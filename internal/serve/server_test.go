package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	fascia "repro"
	"repro/internal/dp"
)

// checkGoroutines fails the test if the goroutine count has not settled
// back to (roughly) its starting value — the lifecycle tests run it
// after drains and cancelled queries to prove worker pools exit.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newTestServer boots a Server with the test graph "g" pre-registered
// and returns it with an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if _, err := s.Registry().Add("g", fascia.ErdosRenyi(120, 480, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.Bytes()
}

func countQuery(t *testing.T, ts *httptest.Server, req CountRequest) (int, CountResponse, http.Header) {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/count", req)
	var out CountResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := ts.Client()

	// Upload a second graph over HTTP and list both.
	var edge bytes.Buffer
	if err := fascia.WriteGraph(&edge, fascia.ErdosRenyi(60, 180, 2)); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/graphs?name=up", "text/plain", bytes.NewReader(edge.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Name != "g" || infos[1].Name != "up" {
		t.Fatalf("graphs = %+v", infos)
	}

	// A served count must agree bit-for-bit with the library.
	req := CountRequest{Graph: "g", Template: "0-1 1-2 2-3", Iterations: 12, Seed: 5, PerIteration: true}
	code, out, _ := countQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("count status = %d", code)
	}
	g, _, _ := s.Registry().Get("g")
	tr, _ := fascia.ParseTemplate("t", req.Template)
	want, err := fascia.Count(g, tr, fascia.DefaultOptions().WithIterations(12).WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Count != want.Count || out.Iterations != 12 || out.Cache != "miss" || out.Partial {
		t.Fatalf("served %+v, library count %v", out, want.Count)
	}
	for i, x := range out.PerIteration {
		if x != want.PerIteration[i] {
			t.Fatalf("per-iteration %d: served %v, library %v", i, x, want.PerIteration[i])
		}
	}

	// Error paths.
	for _, bad := range []struct {
		req  CountRequest
		code int
	}{
		{CountRequest{Graph: "nope", Template: "0-1"}, http.StatusNotFound},
		{CountRequest{Graph: "g", Template: "0-0"}, http.StatusBadRequest},
		{CountRequest{Graph: "g", Template: "0-1 2-3"}, http.StatusBadRequest},
		{CountRequest{Graph: "g", Template: "0-1", Iterations: -4}, http.StatusBadRequest},
		{CountRequest{Graph: "g", Template: "0-1 1-2", Colors: 2}, http.StatusBadRequest},
		{CountRequest{Graph: "g", Template: "0-1", TemplateLabels: []int32{1, 2}}, http.StatusBadRequest},
	} {
		if code, _, _ := countQuery(t, ts, bad.req); code != bad.code {
			t.Errorf("%+v -> status %d, want %d", bad.req, code, bad.code)
		}
	}

	// Health and stats.
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	st := s.Stats()
	if st.Queries < 1 || st.Graphs != 2 || st.Cache.Misses < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServerCacheHitAndOverlap is the seed-keyed cache acceptance test:
// a repeated query is a pure hit (no scheduler involvement), and an
// overlapping larger query computes only the residual iterations yet
// returns estimates bit-identical to a from-scratch run.
func TestServerCacheHitAndOverlap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := CountRequest{Graph: "g", Template: "0-1 1-2 1-3", Seed: 11, PerIteration: true}

	prime := base
	prime.Iterations = 6
	code, miss, _ := countQuery(t, ts, prime)
	if code != http.StatusOK || miss.Cache != "miss" || miss.CachedIterations != 0 {
		t.Fatalf("prime: %d %+v", code, miss)
	}

	// Exact repeat: full hit, zero fresh iterations, identical numbers.
	code, hit, _ := countQuery(t, ts, prime)
	if code != http.StatusOK || hit.Cache != "hit" || hit.CachedIterations != 6 || hit.Iterations != 6 {
		t.Fatalf("repeat: %d %+v", code, hit)
	}
	if hit.Count != miss.Count || hit.StdErr != miss.StdErr {
		t.Fatalf("cache hit changed the answer: %v vs %v", hit.Count, miss.Count)
	}
	if st := s.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("hit counter = %d, want 1 (stats %+v)", st.Cache.Hits, st.Cache)
	}

	// A smaller query with the same seed is also fully covered.
	small := base
	small.Iterations = 3
	if code, out, _ := countQuery(t, ts, small); code != http.StatusOK || out.Cache != "hit" || out.Iterations != 3 {
		t.Fatalf("prefix query: %d %+v", code, out)
	}

	// Overlap: 10 iterations on top of the cached 6 runs only 4 more.
	over := base
	over.Iterations = 10
	code, part, _ := countQuery(t, ts, over)
	if code != http.StatusOK || part.Cache != "partial" || part.CachedIterations != 6 || part.Iterations != 10 {
		t.Fatalf("overlap: %d %+v", code, part)
	}
	if st := s.Stats(); st.Cache.PartialHits != 1 {
		t.Fatalf("partial-hit counter = %d, want 1", st.Cache.PartialHits)
	}

	// The merged stream must equal a from-scratch 10-iteration run.
	g, _, _ := s.Registry().Get("g")
	tr, _ := fascia.ParseTemplate("t", base.Template)
	want, err := fascia.Count(g, tr, fascia.DefaultOptions().WithIterations(10).WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(part.PerIteration) != 10 {
		t.Fatalf("merged stream has %d estimates", len(part.PerIteration))
	}
	for i, x := range part.PerIteration {
		if x != want.PerIteration[i] {
			t.Fatalf("merged iteration %d: %v, want %v (seed %d)", i, x, want.PerIteration[i], base.Seed+int64(i))
		}
	}
	if part.Count != want.Count {
		t.Fatalf("merged mean %v, want %v", part.Count, want.Count)
	}

	// The now-extended entry fully covers the larger range.
	if code, out, _ := countQuery(t, ts, over); code != http.StatusOK || out.Cache != "hit" || out.CachedIterations != 10 {
		t.Fatalf("post-extend repeat: %d %+v", code, out)
	}

	// no_cache bypasses both read and write paths.
	bypass := prime
	bypass.NoCache = true
	if code, out, _ := countQuery(t, ts, bypass); code != http.StatusOK || out.Cache != "bypass" || out.CachedIterations != 0 {
		t.Fatalf("bypass: %d %+v", code, out)
	}
}

// TestServerAdaptive covers the variance-targeted stopping rule end to
// end: an adaptive query stops at exactly the dp.StopIndex of the
// fixed-run seed stream (bit-identical prefix), repeats are pure cache
// hits served from the shared (seed-keyed, adaptivity-blind) entry,
// fixed queries reuse the same entry, and a tighter tolerance resumes
// from the cached prefix instead of starting over.
func TestServerAdaptive(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const seed, cap1, rel1, rel2 = 11, 400, 0.02, 0.01

	// Fixed-run reference stream straight from the library.
	g, _, _ := s.Registry().Get("g")
	tr, _ := fascia.ParseTemplate("t", "0-1 1-2 1-3")
	want, err := fascia.Count(g, tr, fascia.DefaultOptions().WithIterations(cap1).WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	stop1 := dp.StopIndex(want.PerIteration, rel1, 2)
	stop2 := dp.StopIndex(want.PerIteration, rel2, 2)
	if stop1 < 2 || stop2 <= stop1 {
		t.Fatalf("degenerate workload: stops %d, %d", stop1, stop2)
	}

	base := CountRequest{Graph: "g", Template: "0-1 1-2 1-3", Seed: seed, Iterations: cap1, PerIteration: true}

	// Adaptive miss: runs until converged, returns the exact prefix.
	ad := base
	ad.Adaptive = rel1
	code, out, _ := countQuery(t, ts, ad)
	if code != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("adaptive miss: %d %+v", code, out)
	}
	if out.Iterations != stop1 || len(out.PerIteration) != stop1 {
		t.Fatalf("adaptive run stopped at %d iterations, want %d", out.Iterations, stop1)
	}
	for i, x := range out.PerIteration {
		if x != want.PerIteration[i] {
			t.Fatalf("adaptive iteration %d: %v != fixed run %v", i, x, want.PerIteration[i])
		}
	}

	// Repeat: served from cache without recounting.
	if code, hit, _ := countQuery(t, ts, ad); code != http.StatusOK || hit.Cache != "hit" || hit.Iterations != stop1 {
		t.Fatalf("adaptive repeat: %d %+v", code, hit)
	}

	// The cache entry is shared with fixed queries at the same seed.
	fixed := base
	fixed.Iterations = stop1 - 1
	if code, out, _ := countQuery(t, ts, fixed); code != http.StatusOK || out.Cache != "hit" {
		t.Fatalf("fixed query on adaptive entry: %d %+v", code, out)
	}

	// Tighter tolerance: resumes from the cached prefix (partial, not
	// miss) and lands on the tighter stopping point, still bit-identical.
	tight := base
	tight.Adaptive = rel2
	code, out, _ = countQuery(t, ts, tight)
	if code != http.StatusOK || out.Cache != "partial" || out.CachedIterations != stop1 {
		t.Fatalf("tighter adaptive: %d %+v", code, out)
	}
	if out.Iterations != stop2 || len(out.PerIteration) != stop2 {
		t.Fatalf("tighter adaptive stopped at %d iterations, want %d", out.Iterations, stop2)
	}
	for i, x := range out.PerIteration {
		if x != want.PerIteration[i] {
			t.Fatalf("tighter adaptive iteration %d: %v != fixed run %v", i, x, want.PerIteration[i])
		}
	}

	// Validation: a negative tolerance is rejected.
	bad := base
	bad.Adaptive = -0.1
	if code, _, _ := countQuery(t, ts, bad); code != http.StatusBadRequest {
		t.Fatalf("negative adaptive tolerance accepted: %d", code)
	}
}

// slowRequest is a query sized to hold a run slot long enough for the
// test to observe it mid-flight (cancelled by deadline/drain, never run
// to completion).
func slowRequest() CountRequest {
	return CountRequest{Graph: "slow", Template: "0-1 1-2 2-3 3-4 4-5 5-6 6-7", Iterations: 100000, Seed: 3, TimeoutMillis: 60000}
}

func addSlowGraph(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Registry().Add("slow", fascia.ErdosRenyi(1500, 15000, 2)); err != nil {
		t.Fatal(err)
	}
}

// waitRunning polls until n queries hold run slots.
func waitRunning(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running queries: %+v", n, s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerQueueFull429 fills the single run slot and the zero-depth
// queue, then checks admission control rejects with 429 + Retry-After.
func TestServerQueueFull429(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{WorkerBudget: 1, MaxConcurrent: 1, QueueDepth: -1})
	addSlowGraph(t, s)

	// Prime a small cached query while the slot is free; it is re-issued
	// later to prove hits bypass admission control.
	cached := CountRequest{Graph: "g", Template: "0-1 1-2", Iterations: 4, Seed: 1}
	if code, out, _ := countQuery(t, ts, cached); code != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("prime: %d %+v", code, out)
	}

	type slowResult struct {
		code int
		out  CountResponse
	}
	done := make(chan slowResult, 1)
	go func() {
		code, out, _ := countQuery(t, ts, slowRequest())
		done <- slowResult{code, out}
	}()
	waitRunning(t, s, 1)

	req := slowRequest()
	req.Seed = 99 // distinct stream: must not be served from cache
	code, _, hdr := countQuery(t, ts, req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive estimate", ra)
	}
	if st := s.Stats(); st.Rejected < 1 {
		t.Fatalf("rejected counter = %d", st.Rejected)
	}

	// Cache hits bypass admission entirely: with the slot held and the
	// queue full, the primed query is still answered from cache.
	if code, out, _ := countQuery(t, ts, cached); code != http.StatusOK || out.Cache != "hit" {
		t.Fatalf("cached query during saturation: %d %+v (want 200 hit)", code, out)
	}

	// Drain to cancel the in-flight query; it must flush a partial mean.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-done
	if res.code != http.StatusOK || !res.out.Partial {
		t.Fatalf("cancelled slow query: %d %+v", res.code, res.out)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
	checkGoroutines(t, before)
}

// TestServerDeadlinePartial checks a query cut short by its own
// deadline returns 200 with the partial mean over completed iterations
// and ctx error semantics.
func TestServerDeadlinePartial(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{})
	addSlowGraph(t, s)

	req := slowRequest()
	req.TimeoutMillis = 250
	req.NoCache = true
	start := time.Now()
	code, out, _ := countQuery(t, ts, req)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !out.Partial || !strings.Contains(out.Error, "deadline") {
		t.Fatalf("want partial result with deadline error, got %+v", out)
	}
	if out.Iterations >= req.Iterations {
		t.Fatalf("all %d iterations completed under a %dms deadline", out.Iterations, req.TimeoutMillis)
	}
	if out.Iterations > 0 && out.Count <= 0 {
		t.Fatalf("partial mean = %v over %d iterations", out.Count, out.Iterations)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded query took %v", elapsed)
	}
	if st := s.Stats(); st.PartialResults != 1 {
		t.Fatalf("partial counter = %d", st.PartialResults)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
	checkGoroutines(t, before)
}

// TestServerPartialExtendsCache pins the prefix contract of cancelled
// local runs: a deadline-cut fixed query running in Outer mode with two
// concurrent iterations keeps a seed-order prefix of its stream, so it
// extends the cache with exactly that prefix. A follow-up one iteration
// longer is then a cache partial that computes only the missing
// iteration and matches an uncached run bit for bit.
func TestServerPartialExtendsCache(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerBudget: 2, MaxConcurrent: 1})
	addSlowGraph(t, s)

	req := slowRequest()
	req.TimeoutMillis = 400
	req.PerIteration = true
	code, cut, _ := countQuery(t, ts, req)
	if code != http.StatusOK || !cut.Partial {
		t.Fatalf("status %d, partial %v: want a deadline-cut partial result", code, cut.Partial)
	}
	n := cut.Iterations
	if n == 0 {
		t.Skip("no iteration finished before the deadline")
	}

	req.Iterations = n + 1
	req.TimeoutMillis = 60000
	code, top, _ := countQuery(t, ts, req)
	if code != http.StatusOK || top.Partial {
		t.Fatalf("top-up: status %d, partial %v (%s)", code, top.Partial, top.Error)
	}
	if top.Cache != "partial" || top.CachedIterations != n {
		t.Fatalf("top-up served cache %q with %d cached iterations, want partial with %d", top.Cache, top.CachedIterations, n)
	}

	req.NoCache = true
	_, ref, _ := countQuery(t, ts, req)
	if len(top.PerIteration) != n+1 || len(ref.PerIteration) != n+1 {
		t.Fatalf("streams have %d and %d iterations, want %d", len(top.PerIteration), len(ref.PerIteration), n+1)
	}
	for i := range ref.PerIteration {
		if top.PerIteration[i] != ref.PerIteration[i] || (i < n && cut.PerIteration[i] != ref.PerIteration[i]) {
			t.Fatalf("iteration %d: cut %v, top-up %v, uncached %v", i, cut.PerIteration[i], top.PerIteration[i], ref.PerIteration[i])
		}
	}
}

// TestServerDrain checks the graceful-drain contract: in-flight queries
// are cancelled and flush partial means, new queries get 503, health
// flips, drain is idempotent, and no goroutines leak.
func TestServerDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{WorkerBudget: 2, MaxConcurrent: 2})
	addSlowGraph(t, s)

	type result struct {
		code int
		out  CountResponse
	}
	done := make(chan result, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			req := slowRequest()
			req.Seed = int64(100 + i)
			code, out, _ := countQuery(t, ts, req)
			done <- result{code, out}
		}()
	}
	waitRunning(t, s, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain took %v", d)
	}
	for i := 0; i < 2; i++ {
		res := <-done
		if res.code != http.StatusOK {
			t.Fatalf("in-flight query got status %d during drain", res.code)
		}
		if !res.out.Partial || res.out.Error == "" {
			t.Fatalf("in-flight query not flushed as partial: %+v", res.out)
		}
		if res.out.Iterations > 0 && res.out.Count <= 0 {
			t.Fatalf("flushed mean %v over %d iterations", res.out.Count, res.out.Iterations)
		}
	}

	// Post-drain: no admission, health 503, stats report draining.
	if code, _, _ := countQuery(t, ts, CountRequest{Graph: "g", Template: "0-1", Iterations: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status = %d, want 503", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d, want 503", resp.StatusCode)
	}
	if !s.Stats().Draining {
		t.Fatal("stats do not report draining")
	}
	// Idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
	checkGoroutines(t, before)
}

// TestServerConcurrentCacheHits hammers one cached query from many
// goroutines: every response must be a full hit with identical numbers,
// and the scheduler must never be touched (hits bypass admission).
func TestServerConcurrentCacheHits(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{WorkerBudget: 1, MaxConcurrent: 1, QueueDepth: -1})

	req := CountRequest{Graph: "g", Template: "0-1 1-2 2-3", Iterations: 8, Seed: 21}
	code, primed, _ := countQuery(t, ts, req)
	if code != http.StatusOK || primed.Cache != "miss" {
		t.Fatalf("prime: %d %+v", code, primed)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, out, _ := countQuery(t, ts, req)
			switch {
			case code != http.StatusOK:
				errs <- fmt.Errorf("status %d", code)
			case out.Cache != "hit":
				errs <- fmt.Errorf("cache = %q, want hit", out.Cache)
			case out.Count != primed.Count || out.StdErr != primed.StdErr:
				errs <- fmt.Errorf("hit diverged: %v vs %v", out.Count, primed.Count)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Cache.Hits < clients {
		t.Fatalf("cache hits = %d, want >= %d", st.Cache.Hits, clients)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
	checkGoroutines(t, before)
}
