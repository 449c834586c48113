package dist

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comb"
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

// TestDistributedMatchesSharedMemory is the keystone: the distributed
// runtime must produce bit-identical per-iteration estimates to the
// shared-memory engine under the same seed, for any rank count.
func TestDistributedMatchesSharedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3; trial++ {
		g := randomGraph(rng, 40+20*trial, 120+40*trial)
		tr := tmpl.MustNamed([]string{"U3-1", "U5-2", "U7-1"}[trial])

		cfg := dp.DefaultConfig()
		cfg.Seed = 11
		single, err := dp.New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.Run(4)
		if err != nil {
			t.Fatal(err)
		}

		for _, ranks := range []int{1, 2, 3, 7} {
			de, err := New(g, tr, Config{Ranks: ranks, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			got, err := de.Run(4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.PerIteration {
				if got.PerIteration[i] != want.PerIteration[i] {
					t.Fatalf("trial %d ranks=%d iter %d: dist %v, shared %v",
						trial, ranks, i, got.PerIteration[i], want.PerIteration[i])
				}
			}
		}
	}
}

// TestDistributedColorfulExact checks against the brute-force oracle too.
func TestDistributedColorfulExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 25, 70)
	tr := tmpl.Spider(2, 1, 1)
	de, err := New(g, tr, Config{Ranks: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := de.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the same coloring.
	crng := rand.New(rand.NewSource(3))
	colors := make([]int8, g.N())
	for i := range colors {
		colors[i] = int8(crng.Intn(5))
	}
	wantColorful := exact.CountColorfulMappings(g, tr, colors)
	gotColorful := res.PerIteration[0] * de.Scale()
	if diff := gotColorful - float64(wantColorful); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("distributed colorful total %v, exact %d", gotColorful, wantColorful)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 60, 180)
	tr := tmpl.Path(4)

	one, err := New(g, tr, Config{Ranks: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := one.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CommBytes != 0 || r1.Messages != 0 {
		t.Fatalf("single rank should not communicate: %d bytes, %d msgs", r1.CommBytes, r1.Messages)
	}

	four, err := New(g, tr, Config{Ranks: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := four.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CommBytes <= 0 || r4.Messages <= 0 {
		t.Fatal("multi-rank run reported no communication")
	}
	// Messages: per iteration, per DP step whose passive child is
	// internal, each ordered rank pair with a non-empty needs list
	// exchanges exactly one message (empty packets are skipped — on this
	// dense random graph every pair communicates). Steps whose passive
	// child is a leaf send nothing: every rank derives leaf cells from
	// the coloring.
	exchanging := exchangingSteps(four)
	if len(exchanging) == 0 {
		t.Fatal("degenerate workload: no step exchanges rows")
	}
	pairs := talkingPairs(four)
	wantMsgs := int64(2 /*iters*/ * len(exchanging) * pairs)
	if r4.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d", r4.Messages, wantMsgs)
	}
	sends := recordSends(t, four, 0)
	for i, n := range four.tree.Order {
		want := 0
		if exchanging[i] {
			want = pairs
		}
		if sends[i] != want {
			t.Fatalf("step %d (leaf=%v, leaf passive=%v): %d sends, want %d",
				i, n.IsLeaf(), !n.IsLeaf() && n.Passive.IsLeaf(), sends[i], want)
		}
	}
	// Partitioning bounds per-rank rows: with 4 ranks nobody should hold
	// more rows than a single rank run holds.
	if r4.MaxRankRows > r1.MaxRankRows {
		t.Fatalf("per-rank rows %d exceed single-rank %d", r4.MaxRankRows, r1.MaxRankRows)
	}
	if r4.MaxRankRows <= 0 {
		t.Fatal("row accounting broken")
	}
}

// TestEmptyGraphRejected pins the satellite fix: dist.New on an empty
// graph used to reach the owner lookup's v*p/n proportionality with
// n = 0; it must instead refuse with the typed error.
func TestEmptyGraphRejected(t *testing.T) {
	g := graph.MustFromEdges(0, nil, nil)
	_, err := New(g, tmpl.Path(3), Config{Ranks: 2, Seed: 1})
	if !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("New on empty graph = %v, want ErrEmptyGraph", err)
	}
	if _, err := New(nil, tmpl.Path(3), Config{Ranks: 2, Seed: 1}); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("New on nil graph = %v, want ErrEmptyGraph", err)
	}
}

// TestNoEmptyPacketsOnPathGraph pins the corrected message accounting
// before it becomes wire traffic. A path graph block-partitioned into 4
// ranks only has boundary edges between adjacent ranks, so only the 6
// ordered adjacent pairs may exchange; the old protocol shipped an empty
// packet to every other rank for every internal node (12 ordered pairs),
// inflating Messages by 2x relative to what a real MPI run would send.
func TestNoEmptyPacketsOnPathGraph(t *testing.T) {
	const n, ranks, iters = 40, 4, 2
	edges := make([][2]int32, n-1)
	for i := range edges {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	g := graph.MustFromEdges(n, edges, nil)
	tr := tmpl.Path(4)
	de, err := New(g, tr, Config{Ranks: ranks, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Partition sanity: non-adjacent rank pairs must have empty needs.
	nonEmptyPairs := 0
	for s := 0; s < ranks; s++ {
		for r := 0; r < ranks; r++ {
			if s == r {
				continue
			}
			if len(de.NeedList(s, r)) > 0 {
				nonEmptyPairs++
				if d := s - r; d != 1 && d != -1 {
					t.Fatalf("path graph: ranks %d and %d should not need each other", s, r)
				}
			}
		}
	}
	if nonEmptyPairs != 6 {
		t.Fatalf("non-empty needs pairs = %d, want 6 (adjacent ordered pairs)", nonEmptyPairs)
	}

	res, err := de.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	// One message per exchanging step (passive child internal) per
	// talking pair; leaf-passive steps send nothing.
	exchanging := exchangingSteps(de)
	wantMsgs := int64(iters * len(exchanging) * nonEmptyPairs)
	if res.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d (no packets for empty needs lists)", res.Messages, wantMsgs)
	}
	for step, n := range recordSends(t, de, 0) {
		if n > 0 && !exchanging[step] {
			t.Fatalf("step %d sent %d packets, but its passive child is a leaf", step, n)
		}
	}
	if res.CommBytes <= 0 {
		t.Fatal("adjacent ranks should still ship row payloads")
	}

	// The skip must not change the estimates: bit-identical to the
	// shared-memory engine, which is the deadlock-freedom proof in
	// practice (every rank completed the protocol).
	cfg := dp.DefaultConfig()
	cfg.Seed = 3
	single, err := dp.New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PerIteration {
		if res.PerIteration[i] != want.PerIteration[i] {
			t.Fatalf("iter %d: dist %v, shared %v", i, res.PerIteration[i], want.PerIteration[i])
		}
	}
}

// TestCommBytesUnchangedBySkip pins that dropping empty packets cannot
// change CommBytes: an empty packet carried zero payload, so the byte
// accounting on a graph where every pair communicates must equal the
// needs-list payload model exactly.
func TestCommBytesUnchangedBySkip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 60, 180)
	tr := tmpl.Path(4)
	de, err := New(g, tr, Config{Ranks: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := de.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Independent payload model: at each exchanging step the sender ships
	// the passive child's rows (width C(k, |passive|)) for its needs
	// list, 8 bytes per value plus a 4-byte id, nil rows free. Rows are
	// nil exactly when the sender holds no counts, so the model gives an
	// upper bound that a run with phantom empty packets would still meet
	// (they carried zero payload) — the pin is that bytes are non-zero
	// and within the needs-list bound.
	var upper int64
	for _, nd := range de.tree.Nodes {
		if nd.IsLeaf() {
			continue
		}
		width := comb.Binomial(de.dp.Colors(), nd.Passive.Size())
		for s := 0; s < 3; s++ {
			for r := 0; r < 3; r++ {
				if s != r {
					upper += int64(len(de.NeedList(s, r))) * (width*8 + 4)
				}
			}
		}
	}
	if res.CommBytes <= 0 || res.CommBytes > upper {
		t.Fatalf("CommBytes %d outside (0, %d]", res.CommBytes, upper)
	}
}

func TestMoreRanksLessPerRankMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 400, 1600)
	tr := tmpl.Path(5)
	var prev int
	for i, ranks := range []int{1, 4, 16} {
		de, err := New(g, tr, Config{Ranks: ranks, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := de.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MaxRankRows >= prev {
			t.Fatalf("ranks=%d: per-rank rows %d did not shrink from %d", ranks, res.MaxRankRows, prev)
		}
		prev = res.MaxRankRows
	}
}

func TestGhostCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 50, 150)
	de, err := New(g, tmpl.Path(3), Config{Ranks: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := de.GhostCounts()
	if len(counts) != 5 {
		t.Fatalf("ghost counts per rank = %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("random graph should have boundary vertices")
	}
	// Ghosts are remote by construction.
	for s := 0; s < 5; s++ {
		for r := 0; r < 5; r++ {
			for _, u := range de.needs[s][r] {
				if u < de.bounds[s] || u >= de.bounds[s+1] {
					t.Fatalf("need list (%d->%d) contains non-owned vertex %d", s, r, u)
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 10, 20)
	if _, err := New(g, tmpl.Path(3), Config{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	lt, _ := tmpl.Path(3).WithLabels("l", []int32{0, 1, 0})
	if _, err := New(g, lt, Config{Ranks: 2}); err == nil {
		t.Error("labeled template on unlabeled graph accepted")
	}
	if _, err := New(g, tmpl.Path(3), Config{Ranks: 2, Colors: 2}); err == nil {
		t.Error("too few colors accepted")
	}
	de, _ := New(g, tmpl.Path(3), Config{Ranks: 2})
	if _, err := de.Run(0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestBalancedStrategyWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 30, 90)
	tr := tmpl.MustNamed("U7-2")
	de, err := New(g, tr, Config{Ranks: 3, Seed: 5, Strategy: part.Balanced})
	if err != nil {
		t.Fatal(err)
	}
	got, err := de.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dp.DefaultConfig()
	cfg.Seed = 5
	cfg.Strategy = part.Balanced
	single, err := dp.New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PerIteration {
		if got.PerIteration[i] != want.PerIteration[i] {
			t.Fatalf("balanced iter %d: %v vs %v", i, got.PerIteration[i], want.PerIteration[i])
		}
	}
}

// TestDistributedLabeledMatchesShared verifies labeled pruning works
// identically in the distributed runtime.
func TestDistributedLabeledMatchesShared(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 50, 160)
	g.Labels = make([]int32, g.N())
	for i := range g.Labels {
		g.Labels[i] = int32(rng.Intn(3))
	}
	lt, err := tmpl.Spider(2, 1, 1).WithLabels("lab", []int32{0, 1, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dp.DefaultConfig()
	cfg.Seed = 21
	shared, err := dp.New(g, lt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shared.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	de, err := New(g, lt, Config{Ranks: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	got, err := de.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PerIteration {
		if got.PerIteration[i] != want.PerIteration[i] {
			t.Fatalf("labeled distributed iter %d: %v vs %v", i, got.PerIteration[i], want.PerIteration[i])
		}
	}
}

// exchangingSteps marks the evaluation positions that exchange rows:
// internal nodes whose passive child is internal.
func exchangingSteps(de *Engine) map[int]bool {
	out := map[int]bool{}
	for i, n := range de.tree.Order {
		if !n.IsLeaf() && !n.Passive.IsLeaf() {
			out[i] = true
		}
	}
	return out
}

// talkingPairs counts the ordered rank pairs with a non-empty needs list.
func talkingPairs(de *Engine) int {
	pairs := 0
	for s := 0; s < de.Ranks(); s++ {
		for r := 0; r < de.Ranks(); r++ {
			if s != r && len(de.NeedList(s, r)) > 0 {
				pairs++
			}
		}
	}
	return pairs
}

// sendCounter wraps a rank's exchange and counts its sends per step.
type sendCounter struct {
	Exchange
	mu    *sync.Mutex
	sends map[int]int
}

func (x sendCounter) Send(dst, step int, pk Packet) error {
	x.mu.Lock()
	x.sends[step]++
	x.mu.Unlock()
	return x.Exchange.Send(dst, step, pk)
}

// recordSends runs iteration iter on every rank in-process and returns
// the packets sent per evaluation step.
func recordSends(t *testing.T, de *Engine, iter int) map[int]int {
	t.Helper()
	mail := de.newMailbox()
	var comm CommStats
	var mu sync.Mutex
	sends := map[int]int{}
	errs := make([]error, de.Ranks())
	var wg sync.WaitGroup
	for r := 0; r < de.Ranks(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ex := sendCounter{Exchange: &chanExchange{rank: r, mail: mail, comm: &comm}, mu: &mu, sends: sends}
			_, errs[r] = de.RunRank(r, iter, ex, nil)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return sends
}

// TestDistributedIdentityMatrix widens the keystone: at ranks
// {1, 2, 3, 5} every iteration's rank-order sum must equal the local
// engine's estimate bit for bit — for a single-vertex template (the root
// is a leaf), a graph with fewer vertices than ranks (empty blocks),
// labeled templates and Balanced partitions. TestShardIdentityMatrix
// runs the same cases over the wire.
func TestDistributedIdentityMatrix(t *testing.T) {
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
			de, err := New(c.g, c.t, Config{Ranks: ranks, Seed: seed, Strategy: c.strat})
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", c.name, ranks, err)
			}
			got, err := de.Run(iters)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", c.name, ranks, err)
			}
			for i := range want.PerIteration {
				if got.PerIteration[i] != want.PerIteration[i] {
					t.Fatalf("%s ranks=%d iter %d: dist %v, local %v",
						c.name, ranks, i, got.PerIteration[i], want.PerIteration[i])
				}
			}
		}
	}
}

// TestCancelledRankCompletesProtocol pins the cancellation contract: a
// rank whose stop flag is set computes nothing, yet still sends and
// receives every packet of the iteration, so its healthy peers finish
// instead of waiting forever.
func TestCancelledRankCompletesProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randomGraph(rng, 60, 200)
	de, err := New(g, tmpl.MustNamed("U7-1"), Config{Ranks: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(exchangingSteps(de)) == 0 || talkingPairs(de) == 0 {
		t.Fatal("degenerate workload: ranks never exchange")
	}
	var stop atomic.Bool
	stop.Store(true)
	mail := de.newMailbox()
	var comm CommStats
	results := make([]RankResult, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var s *atomic.Bool
			if r == 1 {
				s = &stop
			}
			results[r], errs[r] = de.RunRank(r, 0, &chanExchange{rank: r, mail: mail, comm: &comm}, s)
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ranks still waiting 10s after one was cancelled")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if results[1].Total != 0 {
		t.Fatalf("cancelled rank reported total %v", results[1].Total)
	}
	if want := int64(len(exchangingSteps(de)) * talkingPairs(de)); comm.Messages.Load() != want {
		t.Fatalf("%d messages, want the full protocol's %d", comm.Messages.Load(), want)
	}
}
