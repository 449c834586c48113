package dp

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// TestBatchEquivalence is the keystone property test of the batched
// execution mode: for every table layout and parallel mode, a
// batched run's PerIteration estimates must be BIT-IDENTICAL to the
// unbatched run's — lane j of batch b colors with seed Seed + b·B + j,
// exactly the unbatched schedule, and counts are integer-valued float64s
// so no summation-order slack is needed or tolerated. iters=5 against
// B ∈ {2, 4, 8} exercises ragged last batches (5 = 2+2+1 = 4+1 = 5).
func TestBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []struct {
		name string
		n, m int
	}{
		{"sparse", 80, 160},
		{"dense", 60, 600},
	}
	const iters = 5
	for _, gs := range graphs {
		g := randomGraph(rng, gs.n, gs.m)
		for _, k := range []int{3, 5, 7} {
			tpl := randomTree(rng, k)
			for _, kind := range []table.Kind{table.Lazy, table.Naive, table.Hash} {
				for _, mode := range []Mode{Inner, Outer, Hybrid} {
					base := DefaultConfig()
					base.TableKind = kind
					base.Mode = mode
					base.Workers = 3
					base.Seed = 42

					e1, err := New(g, tpl, base)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := e1.Run(iters)
					if err != nil {
						t.Fatal(err)
					}
					if got := e1.Batch(); got != 1 {
						t.Fatalf("default batch = %d, want 1", got)
					}
					for _, B := range []int{2, 4, 8} {
						cfg := base
						cfg.Batch = B
						e2, err := New(g, tpl, cfg)
						if err != nil {
							t.Fatal(err)
						}
						res, err := e2.Run(iters)
						if err != nil {
							t.Fatal(err)
						}
						if len(res.PerIteration) != iters {
							t.Fatalf("%s k=%d %v/%v B=%d: %d iterations, want %d",
								gs.name, k, kind, mode, B, len(res.PerIteration), iters)
						}
						for i := range res.PerIteration {
							if res.PerIteration[i] != ref.PerIteration[i] {
								t.Fatalf("%s k=%d %v/%v B=%d: iteration %d estimate %v != unbatched %v",
									gs.name, k, kind, mode, B, i, res.PerIteration[i], ref.PerIteration[i])
							}
						}
						if res.Estimate != ref.Estimate {
							t.Fatalf("%s k=%d %v/%v B=%d: mean %v != %v",
								gs.name, k, kind, mode, B, res.Estimate, ref.Estimate)
						}
					}
				}
			}
		}
	}
}

// TestBatchLabeledEquivalence covers the label-pruned leaf path under
// batching.
func TestBatchLabeledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 100
	edges := make([][2]int32, 400)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(rng.Intn(3))
	}
	g := mustLabeledGraph(t, n, edges, labels)
	tpl := tmpl.MustTree("ltree", 4, [][2]int{{0, 1}, {1, 2}, {1, 3}}, []int32{0, 1, 2, 1})

	base := DefaultConfig()
	base.Seed = 5
	e1, err := New(g, tpl, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e1.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Batch = 4
	e2, err := New(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.PerIteration {
		if res.PerIteration[i] != ref.PerIteration[i] {
			t.Fatalf("labeled batched iteration %d: %v != %v", i, res.PerIteration[i], ref.PerIteration[i])
		}
	}
}

// TestBatchStats checks the batched path's accounting: BatchesRun counts
// ceil(iters/B), BatchSize reports the resolved width, row and table
// traffic balances (everything allocated is released), and peak bytes
// stay within B× the unbatched peak (the documented memory model).
func TestBatchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 300, 1500)
	tpl := tmpl.Path(5)

	base := DefaultConfig()
	base.Seed = 9
	e1, err := New(g, tpl, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e1.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.BatchSize != 1 || ref.Stats.BatchesRun != 0 {
		t.Fatalf("unbatched stats: BatchSize=%d BatchesRun=%d", ref.Stats.BatchSize, ref.Stats.BatchesRun)
	}

	cfg := base
	cfg.Batch = 4
	e2, err := New(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Run(10) // 4 + 4 + 2 lanes
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.BatchSize != 4 {
		t.Fatalf("BatchSize = %d, want 4", s.BatchSize)
	}
	if s.BatchesRun != 3 {
		t.Fatalf("BatchesRun = %d, want 3", s.BatchesRun)
	}
	if s.Iterations != 10 {
		t.Fatalf("Iterations = %d, want 10", s.Iterations)
	}
	if s.RowsAllocated == 0 || s.RowsAllocated != s.RowsReleased {
		t.Fatalf("row traffic unbalanced: allocated %d released %d", s.RowsAllocated, s.RowsReleased)
	}
	if s.TablesAllocated == 0 || s.TablesAllocated != s.TablesReleased {
		t.Fatalf("table traffic unbalanced: allocated %d released %d", s.TablesAllocated, s.TablesReleased)
	}
	if len(s.IterTimes) != 10 {
		t.Fatalf("IterTimes has %d entries, want 10", len(s.IterTimes))
	}
	if res.PeakTableBytes > 4*ref.PeakTableBytes {
		t.Fatalf("batched peak %d exceeds B x unbatched peak %d", res.PeakTableBytes, 4*ref.PeakTableBytes)
	}
	if res.PeakTableBytes <= ref.PeakTableBytes {
		t.Fatalf("batched peak %d not larger than unbatched %d (lanes should widen tables)",
			res.PeakTableBytes, ref.PeakTableBytes)
	}
}

// TestBatchOnIterationOrder checks that the batched scheduler reports
// every iteration exactly once through OnIteration, with in-order
// delivery within each batch under Inner mode.
func TestBatchOnIterationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 120, 500)
	cfg := DefaultConfig()
	cfg.Batch = 4
	cfg.Mode = Inner
	var seen []int
	cfg.OnIteration = func(i int, est float64, _ time.Duration) {
		seen = append(seen, i)
		if est == 0 {
			t.Errorf("iteration %d reported zero estimate", i)
		}
	}
	e, err := New(g, tmpl.Path(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(7); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 {
		t.Fatalf("OnIteration fired %d times, want 7", len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("Inner-mode batched OnIteration order %v, want 0..6", seen)
		}
	}
}

// TestBatchAutoResolve checks the automatic width selection: BatchAuto
// yields a width in [1, maxBatch], KeepTables forces unbatched execution
// (sampling reads per-iteration tables), and explicit widths are clamped
// to maxBatch.
func TestBatchAutoResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 200, 800)
	cfg := DefaultConfig()
	cfg.Batch = BatchAuto
	e, err := New(g, tmpl.Path(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b := e.Batch(); b < 1 || b > maxBatch {
		t.Fatalf("auto batch %d out of [1, %d]", b, maxBatch)
	}
	if b := e.Batch(); b < 2 {
		t.Fatalf("auto batch %d on a small graph, want >= 2 (budget is ample)", b)
	}
	// The planner sizes every layout at 8 bytes per cell: Path(5) at 5
	// colors has 10-cell rows, so a lane costs 200·10·2·8 = 32,000
	// bytes, and a 256,000-byte budget (halved for the planner) admits
	// exactly 4 lanes on every layout.
	for _, kind := range table.Kinds {
		cb := cfg
		cb.TableKind = kind
		cb.MemBudgetBytes = 256_000
		eb, err := New(g, tmpl.Path(5), cb)
		if err != nil {
			t.Fatal(err)
		}
		if b := eb.Batch(); b != 4 {
			t.Fatalf("%v: auto batch under a 256,000-byte budget = %d, want 4", kind, b)
		}
	}

	cfg.KeepTables = true
	ek, err := New(g, tmpl.Path(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b := ek.Batch(); b != 1 {
		t.Fatalf("KeepTables batch = %d, want 1", b)
	}

	cfg.KeepTables = false
	cfg.Batch = 10 * maxBatch
	ec, err := New(g, tmpl.Path(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b := ec.Batch(); b != maxBatch {
		t.Fatalf("oversized batch resolved to %d, want clamp to %d", b, maxBatch)
	}
}

// TestHybridSplit pins the worker-budget split: the inner widths must sum
// to the full budget (the old floor-division split stranded workers on
// non-square budgets), no width may be zero, and the outer width never
// exceeds the schedulable slots.
func TestHybridSplit(t *testing.T) {
	cases := []struct {
		total, slots int
		wantOuter    int
		wantInner    []int
	}{
		{1, 8, 1, []int{1}},
		{2, 8, 2, []int{1, 1}},
		{3, 8, 2, []int{2, 1}},
		{4, 8, 2, []int{2, 2}},
		{6, 8, 3, []int{2, 2, 2}},
		{7, 8, 3, []int{3, 2, 2}}, // the old split used 3x2 = 6 of 7
		{9, 8, 3, []int{3, 3, 3}},
		{16, 2, 2, []int{8, 8}}, // capped by slots: widen inner
		{16, 8, 4, []int{4, 4, 4, 4}},
		{5, 1, 1, []int{5}},
	}
	for _, c := range cases {
		outer, inner := hybridSplit(c.total, c.slots)
		if outer != c.wantOuter {
			t.Errorf("hybridSplit(%d, %d) outer = %d, want %d", c.total, c.slots, outer, c.wantOuter)
		}
		if len(inner) != len(c.wantInner) {
			t.Fatalf("hybridSplit(%d, %d) inner = %v, want %v", c.total, c.slots, inner, c.wantInner)
		}
		for i := range inner {
			if inner[i] != c.wantInner[i] {
				t.Errorf("hybridSplit(%d, %d) inner = %v, want %v", c.total, c.slots, inner, c.wantInner)
				break
			}
		}
	}
	// Property sweep: for every budget 1..16 and slot count 1..16, the
	// widths sum to the whole budget whenever outer slots allow, and
	// every concurrent unit gets at least one worker.
	for total := 1; total <= 16; total++ {
		for slots := 1; slots <= 16; slots++ {
			outer, inner := hybridSplit(total, slots)
			if outer < 1 || outer > slots {
				t.Fatalf("hybridSplit(%d, %d): outer %d out of range", total, slots, outer)
			}
			sum := 0
			for _, w := range inner {
				if w < 1 {
					t.Fatalf("hybridSplit(%d, %d): zero inner width in %v", total, slots, inner)
				}
				sum += w
			}
			if sum != total {
				t.Fatalf("hybridSplit(%d, %d): inner %v sums to %d, want %d", total, slots, inner, sum, total)
			}
		}
	}
}

// TestBatchCancellation checks that a cancelled batched run returns a
// clean partial result: the kept iterations are a seed-order prefix of
// the uncancelled stream and everything allocated is released. Inner
// mode runs batches in order, so cancelling from the first batch's fold
// keeps exactly that batch. Outer mode runs two batches at once, so a
// later batch may finish before an earlier one is cut short; whatever
// it keeps (possibly nothing) must still be a prefix.
func TestBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 400, 2000)
	cfg := DefaultConfig()
	cfg.Batch = 2
	cfg.Seed = 3
	cfg.Workers = 2
	e, err := New(g, tmpl.Path(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	ref, err := e.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Inner, Outer} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		c := cfg
		c.Mode = mode
		c.OnIteration = func(i int, est float64, _ time.Duration) {
			calls++
			if calls == 2 { // cancel after the first full batch folds
				cancel()
			}
		}
		e2, err := New(g, tmpl.Path(6), c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e2.RunContext(ctx, iters)
		cancel()
		if err == nil {
			t.Fatalf("%v: expected context error", mode)
		}
		if !res.Stats.Cancelled {
			t.Fatalf("%v: Stats.Cancelled not set", mode)
		}
		if len(res.PerIteration) >= iters {
			t.Fatalf("%v: partial run kept %d iterations", mode, len(res.PerIteration))
		}
		if mode == Inner && len(res.PerIteration) != 2 {
			t.Fatalf("Inner: partial run kept %d iterations, want the first batch's 2", len(res.PerIteration))
		}
		for i := range res.PerIteration {
			if res.PerIteration[i] != ref.PerIteration[i] {
				t.Fatalf("%v: partial iteration %d: %v != %v", mode, i, res.PerIteration[i], ref.PerIteration[i])
			}
		}
		if res.Stats.Iterations != len(res.PerIteration) || len(res.Stats.IterTimes) != len(res.PerIteration) {
			t.Fatalf("%v: stats count %d iterations and %d times for a %d-iteration prefix",
				mode, res.Stats.Iterations, len(res.Stats.IterTimes), len(res.PerIteration))
		}
		if res.Stats.RowsAllocated != res.Stats.RowsReleased {
			t.Fatalf("%v: cancelled batched run leaked rows: %d allocated, %d released",
				mode, res.Stats.RowsAllocated, res.Stats.RowsReleased)
		}
	}
}

// mustLabeledGraph builds a labeled graph for the label-pruning tests.
func mustLabeledGraph(t *testing.T, n int, edges [][2]int32, labels []int32) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, labels)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
