package shard

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/tmpl"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return graph.MustFromEdges(n, edges, nil)
}

// startWorker boots a shard worker on a loopback listener and returns
// its address.
func startWorker(t *testing.T, g *graph.Graph, opts WorkerOptions) (*Worker, string) {
	t.Helper()
	if opts.PeerTimeout == 0 {
		opts.PeerTimeout = 10 * time.Second
	}
	opts.Logf = t.Logf
	w := NewWorker(opts)
	w.AddGraph(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(w.Close)
	return w, ln.Addr().String()
}

// startFleet boots n workers over the same graph and a pool that knows
// all of them.
func startFleet(t *testing.T, g *graph.Graph, n int, opts WorkerOptions) (*Pool, []*Worker, []string) {
	t.Helper()
	h := graph.Hash(g)
	pool := NewPool(PoolOptions{Logf: t.Logf})
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		workers[i], addrs[i] = startWorker(t, g, opts)
		pool.Register(addrs[i], []uint64{h})
	}
	return pool, workers, addrs
}

func meanStderr(xs []float64) (mean, stderr float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if len(xs) > 1 {
		stderr = math.Sqrt(ss/float64(len(xs)-1)) / math.Sqrt(float64(len(xs)))
	}
	return mean, stderr
}

func TestWireRoundTrips(t *testing.T) {
	q := runRequest{
		RunID: 7, GraphHash: 0xdeadbeefcafef00d, Rank: 1, Ranks: 3,
		Colors: 5, Strategy: 1, Seed: -42, Iters: 9, TK: 4,
		Template: "0-1 1-2 1-3",
		Labels:   []int32{0, 2, 1, 0},
		Peers:    []string{"a:1", "b:2", "c:3"},
	}
	got, err := decodeRun(encodeRun(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != q.RunID || got.GraphHash != q.GraphHash || got.Rank != q.Rank ||
		got.Ranks != q.Ranks || got.Colors != q.Colors || got.Strategy != q.Strategy ||
		got.Seed != q.Seed || got.Iters != q.Iters || got.TK != q.TK || got.Template != q.Template {
		t.Fatalf("run request round trip: got %+v want %+v", got, q)
	}
	if len(got.Labels) != 4 || got.Labels[1] != 2 || len(got.Peers) != 3 || got.Peers[2] != "c:3" {
		t.Fatalf("labels/peers round trip: %+v", got)
	}

	rows := rowsMsg{Iter: 3, Step: 5, Rows: [][]float64{{1.5, 0, -2.25}, nil, {}, {7}}}
	rt, err := decodeRowsFrame(rowsFrame(encodeRows(rows)))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Iter != 3 || rt.Step != 5 || len(rt.Rows) != 4 {
		t.Fatalf("rows header round trip: %+v", rt)
	}
	if rt.Rows[1] != nil || rt.Rows[2] == nil || len(rt.Rows[2]) != 0 {
		t.Fatalf("nil/empty row distinction lost: %+v", rt.Rows)
	}
	if rt.Rows[0][2] != -2.25 || rt.Rows[3][0] != 7 {
		t.Fatalf("row values corrupted: %+v", rt.Rows)
	}

	h, err := decodeHello(encodeHello(hello{Kind: kindPeer, GraphHash: 1, RunID: 99, Rank: 2}))
	if err != nil || h.RunID != 99 || h.Rank != 2 || h.Kind != kindPeer {
		t.Fatalf("hello round trip: %+v err %v", h, err)
	}
	d, err := decodeDone(encodeDone(doneMsg{Messages: 10, CommBytes: 1 << 40, MaxRows: 3, Groups: 4, GroupedFrames: 8}))
	if err != nil || d.CommBytes != 1<<40 || d.Groups != 4 {
		t.Fatalf("done round trip: %+v err %v", d, err)
	}
}

// TestTemplateWireRoundTrip pins that the edge-spec wire form rebuilds
// an isomorphic template with identical vertex numbering (the DP
// depends on the numbering, not just the isomorphism class).
func TestTemplateWireRoundTrip(t *testing.T) {
	for _, tr := range []*tmpl.Template{
		tmpl.Path(3), tmpl.Star(5), tmpl.MustNamed("U5-2"), tmpl.Spider(2, 2, 1),
	} {
		q := runRequest{TK: uint32(tr.K()), Template: templateSpec(tr), Labels: templateLabels(tr)}
		back, err := templateFromWire(q)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if back.K() != tr.K() {
			t.Fatalf("%v: came back with %d vertices", tr, back.K())
		}
		be := back.Edges()
		for i, e := range tr.Edges() {
			if be[i] != e {
				t.Fatalf("%v: edge %d changed: %v vs %v", tr, i, be[i], e)
			}
		}
	}
}

// TestShardBitIdentity is the keystone: a coordinator driving real
// worker processes' protocol over TCP must reproduce the in-process
// distributed engine bit for bit — estimates AND communication
// accounting (same needs lists, same skip rule, same cost model).
func TestShardBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 50, 150)
	tr := tmpl.MustNamed("U5-2")
	const iters, seed = 4, 11

	for _, ranks := range []int{1, 2, 3} {
		de, err := dist.New(g, tr, dist.Config{Ranks: ranks, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := de.Run(iters)
		if err != nil {
			t.Fatal(err)
		}

		pool, _, _ := startFleet(t, g, ranks, WorkerOptions{})
		out, err := pool.Count(context.Background(), Query{
			GraphHash: graph.Hash(g), GraphN: g.N(),
			Template: tr, Seed: seed, Iterations: iters,
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(out.PerIteration) != iters {
			t.Fatalf("ranks=%d: got %d iterations, want %d", ranks, len(out.PerIteration), iters)
		}
		for i := range want.PerIteration {
			if out.PerIteration[i] != want.PerIteration[i] {
				t.Fatalf("ranks=%d iter %d: wire %v, in-process %v",
					ranks, i, out.PerIteration[i], want.PerIteration[i])
			}
		}
		if out.Messages != want.Messages || out.CommBytes != want.CommBytes {
			t.Fatalf("ranks=%d: wire accounting (%d msgs, %d bytes) != in-process (%d msgs, %d bytes)",
				ranks, out.Messages, out.CommBytes, want.Messages, want.CommBytes)
		}
		if ranks > 1 && out.Messages > 0 && out.Groups == 0 {
			t.Fatalf("ranks=%d: sender flushed %d messages in zero groups", ranks, out.Messages)
		}
		if out.Shards != ranks || out.Redispatches != 0 {
			t.Fatalf("ranks=%d: outcome %+v", ranks, out)
		}
	}
}

// TestShardOracleDifferential checks the whole multi-worker wire path
// against the exhaustive oracle at 6 standard errors, same contract as
// the root diff_test harness.
func TestShardOracleDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run is slow under -short")
	}
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 26, 70)
	tr := tmpl.MustNamed("U5-2")
	exactCount := exact.Count(g, tr)
	if exactCount <= 0 {
		t.Fatalf("degenerate workload: exact count %d", exactCount)
	}

	pool, _, _ := startFleet(t, g, 3, WorkerOptions{})
	const iters, seed = 300, 101
	out, err := pool.Count(context.Background(), Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tr, Seed: seed, Iterations: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean, stderr := meanStderr(out.PerIteration)
	diff := math.Abs(mean - float64(exactCount))
	tol := 6*stderr + 1e-9 + 1e-12*float64(exactCount)
	if diff > tol {
		t.Fatalf("ORACLE DISAGREEMENT seed=%d: sharded estimate %v over %d iterations vs exact %d (|diff| %g > 6σ tolerance %g)",
			seed, mean, iters, exactCount, diff, tol)
	}
}

// TestShardLossRedispatch kills one worker mid-run and requires the
// coordinator to finish the query on the survivors with `excluded`
// semantics: the dead shard leaves the group, the unfinished iterations
// re-dispatch, and the final stream is still bit-identical.
func TestShardLossRedispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 40, 120)
	tr := tmpl.Path(4)
	const iters, seed = 8, 5

	de, err := dist.New(g, tr, dist.Config{Ranks: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := de.Run(iters)
	if err != nil {
		t.Fatal(err)
	}

	// 20ms per iteration stretches the run to ~160ms; the kill at 50ms
	// lands mid-exchange with plenty of margin on both sides.
	pool, workers, addrs := startFleet(t, g, 3, WorkerOptions{IterDelay: 20 * time.Millisecond})
	killed := workers[1]
	timer := time.AfterFunc(50*time.Millisecond, killed.Close)
	defer timer.Stop()

	out, err := pool.Count(context.Background(), Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tr, Seed: seed, Iterations: iters,
	})
	if err != nil {
		t.Fatalf("query should survive shard loss: %v", err)
	}
	if out.Redispatches < 1 || len(out.FailedShards) < 1 {
		t.Fatalf("kill went unnoticed: %+v", out)
	}
	if out.FailedShards[0] != addrs[1] {
		t.Fatalf("failed shard %q, killed %q", out.FailedShards[0], addrs[1])
	}
	if len(out.PerIteration) != iters {
		t.Fatalf("got %d iterations, want %d", len(out.PerIteration), iters)
	}
	for i := range want.PerIteration {
		if out.PerIteration[i] != want.PerIteration[i] {
			t.Fatalf("iter %d after re-dispatch: %v, want %v", i, out.PerIteration[i], want.PerIteration[i])
		}
	}
}

// TestShardAllLost drives the pool to ErrNoShards once every shard is
// gone, handing back the completed prefix for a local fallback.
func TestShardAllLost(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 30, 80)
	tr := tmpl.Path(3)

	pool, workers, _ := startFleet(t, g, 2, WorkerOptions{IterDelay: 20 * time.Millisecond})
	timer := time.AfterFunc(50*time.Millisecond, func() {
		for _, w := range workers {
			w.Close()
		}
	})
	defer timer.Stop()

	out, err := pool.Count(context.Background(), Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tr, Seed: 1, Iterations: 50,
	})
	if !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v (outcome %+v)", err, out)
	}
	if len(out.PerIteration) >= 50 {
		t.Fatalf("all shards died yet all iterations completed")
	}
	// The prefix that did complete must be bit-identical.
	de, err := dist.New(g, tr, dist.Config{Ranks: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := de.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.PerIteration {
		if out.PerIteration[i] != want.PerIteration[i] {
			t.Fatalf("prefix iter %d: %v, want %v", i, out.PerIteration[i], want.PerIteration[i])
		}
	}
}

// TestShardCancellation cancels mid-run: the coordinator hands back the
// completed prefix with ctx.Err(), workers tear their runs down, and no
// goroutines leak on either side.
func TestShardCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 30, 80)
	tr := tmpl.Path(3)

	pool, workers, _ := startFleet(t, g, 2, WorkerOptions{IterDelay: 10 * time.Millisecond})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(60*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	out, err := pool.Count(ctx, Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tr, Seed: 9, Iterations: 1000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(out.PerIteration) >= 1000 {
		t.Fatal("cancellation did not interrupt the run")
	}

	// Workers must notice the hangup and reap their runs.
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range workers {
		for {
			w.mu.Lock()
			n := len(w.runs)
			w.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker still holds %d runs after cancellation", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked after cancellation: %d -> %d\n%s",
		base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestWorkerDrain pins SIGTERM semantics: draining lets the in-flight
// exchange finish (the run completes and stays bit-identical) while new
// runs are refused, which the pool converts into exclusion.
func TestWorkerDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := randomGraph(rng, 30, 80)
	tr := tmpl.Path(3)
	const iters, seed = 6, 3

	pool, workers, _ := startFleet(t, g, 2, WorkerOptions{IterDelay: 20 * time.Millisecond})

	type res struct {
		out Outcome
		err error
	}
	resCh := make(chan res, 1)
	go func() {
		out, err := pool.Count(context.Background(), Query{
			GraphHash: graph.Hash(g), GraphN: g.N(),
			Template: tr, Seed: seed, Iterations: iters,
		})
		resCh <- res{out, err}
	}()
	time.Sleep(40 * time.Millisecond) // let the run get in flight

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- workers[0].Drain(ctx)
	}()

	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight query should complete through drain: %v", r.err)
	}
	if len(r.out.PerIteration) != iters {
		t.Fatalf("drained run returned %d iterations, want %d", len(r.out.PerIteration), iters)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	de, err := dist.New(g, tr, dist.Config{Ranks: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := de.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PerIteration {
		if r.out.PerIteration[i] != want.PerIteration[i] {
			t.Fatalf("iter %d through drain: %v, want %v", i, r.out.PerIteration[i], want.PerIteration[i])
		}
	}

	// The drained worker now refuses runs; the pool excludes it and
	// finishes on the survivor.
	out, err := pool.Count(context.Background(), Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tr, Seed: seed, Iterations: 2,
	})
	if err != nil {
		t.Fatalf("post-drain query: %v", err)
	}
	if len(out.FailedShards) != 1 {
		t.Fatalf("draining shard was not excluded: %+v", out)
	}
	if out.PerIteration[0] != want.PerIteration[0] {
		t.Fatalf("post-drain estimate drifted: %v vs %v", out.PerIteration[0], want.PerIteration[0])
	}
}

// TestPoolUnknownGraph: a shard advertising a graph it cannot actually
// serve is excluded, not fatal.
func TestPoolUnknownGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := randomGraph(rng, 20, 50)
	other := randomGraph(rng, 21, 50)

	// Worker holds `other` but the pool believes it covers g's hash.
	_, addr := startWorker(t, other, WorkerOptions{})
	pool := NewPool(PoolOptions{Logf: t.Logf})
	pool.Register(addr, []uint64{graph.Hash(g)})

	_, err := pool.Count(context.Background(), Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tmpl.Path(3), Seed: 1, Iterations: 1,
	})
	if !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards after excluding the lying shard, got %v", err)
	}
}

// TestPoolRegistry covers the registry surface the serve layer uses.
func TestPoolRegistry(t *testing.T) {
	pool := NewPool(PoolOptions{})
	if n := pool.Register("b:1", []uint64{7}); n != 1 {
		t.Fatalf("register count %d", n)
	}
	pool.Register("a:1", []uint64{7, 9})
	if got := pool.Covers(7); got != 2 {
		t.Fatalf("Covers(7) = %d", got)
	}
	if got := pool.Covers(9); got != 1 {
		t.Fatalf("Covers(9) = %d", got)
	}
	lst := pool.List()
	if len(lst) != 2 || lst[0].Addr != "a:1" || lst[1].Addr != "b:1" {
		t.Fatalf("list not sorted: %+v", lst)
	}
	if len(lst[0].Graphs) != 2 || lst[0].Graphs[0] != 7 {
		t.Fatalf("graphs not sorted: %+v", lst[0])
	}
	if !pool.Deregister("b:1") || pool.Deregister("b:1") {
		t.Fatal("deregister semantics")
	}
	if got := pool.Covers(7); got != 1 {
		t.Fatalf("Covers(7) after deregister = %d", got)
	}
}

// TestShardConverged drives the adaptive wave dispatcher over real TCP
// workers: the converged stream must be the exact dp.StopIndex prefix of
// the fixed-run stream (bit-identical), a cached prior must shift the
// dispatch without changing the stopping point, and an already-converged
// prior must dispatch nothing.
func TestShardConverged(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(rng, 40, 120)
	tr := tmpl.MustNamed("U5-2")
	const seed, cap1 = 9, 200
	const relStdErr, minIters = 0.1, 5

	pool, _, _ := startFleet(t, g, 2, WorkerOptions{})
	base := Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tr, Seed: seed, Iterations: cap1,
	}
	ref, err := pool.Count(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	stop := dp.StopIndex(ref.PerIteration, relStdErr, minIters)
	if stop < minIters || stop >= cap1 {
		t.Fatalf("degenerate workload: stop %d", stop)
	}

	// Adaptive from scratch: exactly the dp.StopIndex prefix.
	q := base
	q.Converge = &ConvergeSpec{RelStdErr: relStdErr, MinIters: minIters}
	out, err := pool.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerIteration) != stop {
		t.Fatalf("adaptive dispatch ran %d iterations, want %d", len(out.PerIteration), stop)
	}
	for i, x := range out.PerIteration {
		if x != ref.PerIteration[i] {
			t.Fatalf("EXACTNESS DISAGREEMENT adaptive iteration %d: %v != fixed %v", i, x, ref.PerIteration[i])
		}
	}

	// A cached prior shifts the fresh seeds (the caller pre-offsets
	// Seed, as the serving layer does) but not the stopping point; only
	// the fresh iterations come back.
	const p = 4
	q = base
	q.Seed = seed + p
	q.Iterations = cap1 - p
	q.Converge = &ConvergeSpec{RelStdErr: relStdErr, MinIters: minIters, Prior: ref.PerIteration[:p]}
	out, err = pool.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerIteration) != stop-p {
		t.Fatalf("prior-seeded dispatch ran %d fresh iterations, want %d", len(out.PerIteration), stop-p)
	}
	for i, x := range out.PerIteration {
		if x != ref.PerIteration[p+i] {
			t.Fatalf("EXACTNESS DISAGREEMENT prior-seeded iteration %d: %v != fixed %v", i, x, ref.PerIteration[p+i])
		}
	}

	// An already-converged prior dispatches nothing.
	q = base
	q.Seed = seed + int64(stop)
	q.Iterations = cap1 - stop
	q.Converge = &ConvergeSpec{RelStdErr: relStdErr, MinIters: minIters, Prior: ref.PerIteration[:stop]}
	out, err = pool.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerIteration) != 0 || out.Shards != 0 {
		t.Fatalf("converged prior still dispatched: %d iterations over %d shards", len(out.PerIteration), out.Shards)
	}
}

// TestShardIdentityMatrix is internal/dist's TestDistributedIdentityMatrix
// over TCP: at {1, 2, 3, 5} workers the wire stream must equal the local
// engine's bit for bit — for a single-vertex template, a graph with
// fewer vertices than ranks, a labeled template and a Balanced
// partition — with the same message and byte accounting as the
// in-process protocol.
func TestShardIdentityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	single, err := tmpl.NewTree("K1", 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	labeledG := randomGraph(rng, 50, 170)
	labeledG.Labels = make([]int32, labeledG.N())
	for i := range labeledG.Labels {
		labeledG.Labels[i] = int32(rng.Intn(2))
	}
	labeledT, err := tmpl.MustNamed("U5-2").WithLabels("U5-2L", []int32{0, 1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		t     *tmpl.Template
		strat part.Strategy
	}{
		{"single-vertex", randomGraph(rng, 30, 80), single, part.OneAtATime},
		{"fewer-vertices-than-ranks", graph.MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil), tmpl.Path(3), part.OneAtATime},
		{"U7-1", randomGraph(rng, 60, 200), tmpl.MustNamed("U7-1"), part.OneAtATime},
		{"labeled", labeledG, labeledT, part.OneAtATime},
		{"balanced", randomGraph(rng, 45, 150), tmpl.MustNamed("U7-2"), part.Balanced},
	}
	const iters, seed = 3, 17
	for _, c := range cases {
		cfg := dp.DefaultConfig()
		cfg.Seed = seed
		cfg.Strategy = c.strat
		local, err := dp.New(c.g, c.t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 3, 5} {
			de, err := dist.New(c.g, c.t, dist.Config{Ranks: ranks, Seed: seed, Strategy: c.strat})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := de.Run(iters)
			if err != nil {
				t.Fatal(err)
			}
			pool, _, _ := startFleet(t, c.g, ranks, WorkerOptions{})
			out, err := pool.Count(context.Background(), Query{
				GraphHash: graph.Hash(c.g), GraphN: c.g.N(),
				Template: c.t, Strategy: c.strat, Seed: seed, Iterations: iters,
			})
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", c.name, ranks, err)
			}
			if len(out.PerIteration) != iters {
				t.Fatalf("%s ranks=%d: %d iterations, want %d", c.name, ranks, len(out.PerIteration), iters)
			}
			for i := range want.PerIteration {
				if out.PerIteration[i] != want.PerIteration[i] {
					t.Fatalf("%s ranks=%d iter %d: wire %v, local %v",
						c.name, ranks, i, out.PerIteration[i], want.PerIteration[i])
				}
			}
			if out.Messages != sim.Messages || out.CommBytes != sim.CommBytes || out.MaxRankRows != sim.MaxRankRows {
				t.Fatalf("%s ranks=%d: wire accounting (%d msgs, %d bytes, %d rows) != in-process (%d, %d, %d)",
					c.name, ranks, out.Messages, out.CommBytes, out.MaxRankRows, sim.Messages, sim.CommBytes, sim.MaxRankRows)
			}
		}
	}
}

// TestWorkerRefusesOtherVersion pins the refusal: a hello with the
// right magic and another protocol version gets an err frame naming
// both versions, while a bad magic still gets a silent close.
func TestWorkerRefusesOtherVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := randomGraph(rng, 20, 50)
	_, addr := startWorker(t, g, WorkerOptions{})

	send := func(h []byte) (msgType, []byte, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, msgHello, h); err != nil {
			t.Fatal(err)
		}
		return readFrame(bufio.NewReader(conn))
	}

	v1 := encodeHello(hello{Kind: kindControl, GraphHash: graph.Hash(g)})
	v1[4] = 1 // the version byte follows the 4-byte magic
	typ, payload, err := send(v1)
	if err != nil || typ != msgErr {
		t.Fatalf("v1 hello: frame %d, err %v; want an err frame", typ, err)
	}
	if msg, _ := decodeErr(payload); msg != "protocol version 1, want 2" {
		t.Fatalf("v1 hello refused with %q", msg)
	}

	bad := encodeHello(hello{Kind: kindControl, GraphHash: graph.Hash(g)})
	bad[0] ^= 0xff
	if typ, _, err := send(bad); !errors.Is(err, io.EOF) {
		t.Fatalf("bad magic: frame %d, err %v; want a silent close", typ, err)
	}
}

// TestPoolExcludesOtherVersion: a pool whose only shard refuses every
// hello as another protocol version excludes it and returns ErrNoShards
// instead of hanging or retrying forever.
func TestPoolExcludesOtherVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(rng, 20, 50)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.SetDeadline(time.Now().Add(5 * time.Second))
			readFrame(bufio.NewReader(c))
			writeFrame(c, msgErr, encodeErr(versionError{got: wireVersion + 1}.Error()))
			c.Close()
		}
	}()
	pool := NewPool(PoolOptions{Logf: t.Logf})
	pool.Register(ln.Addr().String(), []uint64{graph.Hash(g)})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := pool.Count(ctx, Query{
		GraphHash: graph.Hash(g), GraphN: g.N(),
		Template: tmpl.Path(3), Seed: 1, Iterations: 2,
	})
	if !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v", err)
	}
	if len(out.FailedShards) != 1 || out.FailedShards[0] != ln.Addr().String() {
		t.Fatalf("refusing shard not excluded: %+v", out)
	}
}
