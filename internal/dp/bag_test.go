package dp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tmpl"
)

// TestBagColorfulExactEquivalence is the bag DP's keystone: under a
// fixed coloring its colorful-mapping total must EXACTLY equal
// brute-force colorful enumeration, for every zoo motif, longer cycles,
// templates whose decompositions hold join bags, and the triangle cacti
// (tailed triangles, the bowtie), with exactly k colors and with two
// extra, on random graphs.
func TestBagColorfulExactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	templates := []*tmpl.Template{}
	for _, name := range tmpl.ZooNames() {
		templates = append(templates, tmpl.MustZoo(name))
	}
	for _, spec := range []string{
		"c5",
		"c6",
		"0-1 1-2 2-0 1-3 2-4",     // pendants on two corners: joins over 2- and 1-vertex bags
		"0-1 1-2 2-0 1-3 2-4 4-5", // a pendant and a 2-vertex path on two corners
		"0-1 1-2 2-0 0-3 0-4",     // two pendants on one corner: a join over a 3-vertex bag
		"0-1 1-2 2-0 0-3 3-4",     // triangle with a 2-vertex tail
		"0-1 1-2 2-0 0-3 3-4 4-5", // triangle with a 3-vertex tail
		"0-1 1-2 2-0 0-3 3-4 4-0", // bowtie: two triangles sharing vertex 0
	} {
		tr, err := tmpl.ParseGraph(spec, spec)
		if err != nil {
			t.Fatal(err)
		}
		templates = append(templates, tr)
	}
	for trial := 0; trial < 4; trial++ {
		n := 10 + rng.Intn(15)
		g := randomGraph(rng, n, n*3)
		seed := rng.Int63()
		for _, tr := range templates {
			for _, extra := range []int{0, 2} {
				cfg := DefaultConfig()
				cfg.Colors = tr.K() + extra
				e, err := New(g, tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := exact.CountColorfulMappings(g, tr, e.ColoringFor(seed))
				if got := e.ColorfulTotal(seed); got != float64(want) {
					t.Fatalf("trial %d template %s colors %d: bag DP total %v, exact %d", trial, tr.Name(), cfg.Colors, got, want)
				}
			}
		}
	}
}

// TestBagTreeBitIdentity pins the reduction: on tree templates the bag
// DP's per-iteration estimates are bit-identical to the partition-tree
// DP's, across modes and extra colors.
func TestBagTreeBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(rng, 12+rng.Intn(12), 40)
		tr := randomTree(rng, 3+rng.Intn(4))
		for _, colors := range []int{0, tr.K() + 2} {
			for _, mode := range []Mode{Inner, Outer, Hybrid} {
				cfg := DefaultConfig()
				cfg.Colors = colors
				cfg.Mode = mode
				cfg.Seed = int64(trial)
				treeEng, err := New(g, tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.ForceBagDP = true
				bagEng, err := New(g, tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if bagEng.Decomposition() == nil || bagEng.Tree() != nil {
					t.Fatal("ForceBagDP engine did not take the bag path")
				}
				want, err := treeEng.Run(6)
				if err != nil {
					t.Fatal(err)
				}
				got, err := bagEng.Run(6)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.PerIteration) != len(want.PerIteration) {
					t.Fatalf("iteration counts differ: %d vs %d", len(got.PerIteration), len(want.PerIteration))
				}
				for i := range got.PerIteration {
					if got.PerIteration[i] != want.PerIteration[i] {
						t.Fatalf("trial %d %s colors=%d mode=%v iter %d: bag %v != tree %v",
							trial, tr.Name(), colors, mode, i, got.PerIteration[i], want.PerIteration[i])
					}
				}
				if got.Estimate != want.Estimate {
					t.Fatalf("estimates differ: bag %v != tree %v", got.Estimate, want.Estimate)
				}
			}
		}
	}
}

// TestBagEstimateApproachesExact runs enough iterations on a non-tree
// template for the scaled mean to land near the exact count.
func TestBagEstimateApproachesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 120)
	for _, name := range []string{"triangle", "c4", "diamond", "k4"} {
		tr := tmpl.MustZoo(name)
		exactCount, err := exact.CountMotif(g, name)
		if err != nil {
			t.Fatal(err)
		}
		if exactCount == 0 {
			t.Fatalf("test graph has no %s; pick a denser graph", name)
		}
		cfg := DefaultConfig()
		cfg.Seed = 77
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(400)
		if err != nil {
			t.Fatal(err)
		}
		tol := 6*res.StdErr + 1e-9
		if diff := res.Estimate - float64(exactCount); diff > tol || -diff > tol {
			t.Errorf("%s: estimate %v vs exact %d (tol %v)", name, res.Estimate, exactCount, tol)
		}
	}
}

// TestBagRejections pins the clear errors for features the bag DP does
// not provide.
func TestBagRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 10, 25)
	tri := tmpl.Triangle()

	cfg := DefaultConfig()
	cfg.KeepTables = true
	if _, err := New(g, tri, cfg); err == nil {
		t.Error("KeepTables accepted on a non-tree template")
	}

	cfg = DefaultConfig()
	cfg.RootVertex = 0
	if _, err := New(g, tri, cfg); err == nil {
		t.Error("RootVertex accepted on a non-tree template")
	}

	e, err := New(g, tri, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.VertexCounts(2); err == nil {
		t.Error("VertexCounts accepted on a non-tree template")
	}
	if _, err := e.SampleEmbeddings(rng, 1); err == nil {
		t.Error("SampleEmbeddings accepted without kept tables")
	}
	if e.Batch() != 1 {
		t.Errorf("bag engine batch = %d, want 1", e.Batch())
	}

	// K5 exceeds the supported width and must fail at construction.
	k5, err := tmpl.Clique(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, k5, DefaultConfig()); err == nil {
		t.Error("treewidth-4 template accepted")
	}
}

// TestBagCancellation checks the bag DP aborts promptly on context
// cancellation and reports a partial result.
func TestBagCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 60, 400)
	e, err := New(g, tmpl.MustZoo("diamond"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunContext(ctx, 50)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !res.Stats.Cancelled {
		t.Error("cancelled run did not set Stats.Cancelled")
	}
	if len(res.PerIteration) != 0 {
		t.Errorf("pre-cancelled run completed %d iterations", len(res.PerIteration))
	}
}

// TestBagCancelMidIteration cancels a bag-DP run half-way through an
// iteration, on a C5 workload whose iterations take a few hundred
// milliseconds, in Inner mode and in Outer mode at two workers:
// RunContext must return within 100ms of the cancel, with
// Stats.Cancelled set, a seed-order prefix kept exactly as an
// uncancelled run computes it, and no goroutine left behind. The same
// engine then runs the uncancelled stream, which must equal a fresh
// engine's bit for bit: an introduce, forget or join cut short must
// leave no stale marker, rowOf or index entry in the slabs it hands
// back to the arena.
//
// The cancel fires per/2 after iteration 0 completes, where per is one
// warm iteration. Iteration 0's worker goes straight on to its next
// iteration (1 under Inner, 2 under Outer, where the second worker runs
// the odd ones), and the run still has three warm iterations of work on
// that worker, so the cancel lands while an iteration runs unless the
// host speeds up sixfold. The cut iteration is not kept, so the kept
// prefix holds 1 to iters-1 iterations.
func TestBagCancelMidIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("needs iterations of a few hundred milliseconds")
	}
	g := randomGraph(rand.New(rand.NewSource(41)), 1200, 8000)
	c5, err := tmpl.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode           Mode
		workers, iters int
	}{{Inner, 0, 4}, {Outer, 2, 8}} {
		cfg := DefaultConfig()
		cfg.Seed = 3
		cfg.Mode = c.mode
		cfg.Workers = c.workers
		fresh, err := New(g, c5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := fresh.scale(fresh.ColorfulTotal(cfg.Seed))
		start := time.Now()
		fresh.ColorfulTotal(cfg.Seed + 1)
		per := time.Since(start)

		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var cancelTime time.Time
		var timer *time.Timer
		cfg.OnIteration = func(i int, _ float64, _ time.Duration) {
			if i == 0 && timer == nil {
				timer = time.AfterFunc(per/2, func() {
					cancelTime = time.Now()
					cancel()
				})
			}
		}
		e, err := New(g, c5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunContext(ctx, c.iters)
		returned := time.Now()
		if timer != nil {
			timer.Stop()
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", c.mode, err)
		}
		if cancelTime.IsZero() {
			t.Fatalf("%v: run finished before the cancel fired", c.mode)
		}
		if lat := returned.Sub(cancelTime); lat > 100*time.Millisecond {
			t.Errorf("%v: returned %v after cancellation, want <= 100ms (iterations take %v)", c.mode, lat, per)
		}
		if !res.Stats.Cancelled {
			t.Errorf("%v: Stats.Cancelled not set", c.mode)
		}
		if n := len(res.PerIteration); n < 1 || n >= c.iters || res.PerIteration[0] != first {
			t.Fatalf("%v: kept %v, want a prefix of 1 to %d iterations starting with %v", c.mode, res.PerIteration, c.iters-1, first)
		}
		want, err := fresh.RunContext(context.Background(), c.iters)
		if err != nil {
			t.Fatal(err)
		}
		for i, est := range res.PerIteration {
			if est != want.PerIteration[i] {
				t.Errorf("%v: iteration %d kept %v, uncancelled %v", c.mode, i, est, want.PerIteration[i])
			}
		}
		again, err := e.RunContext(context.Background(), c.iters)
		if err != nil {
			t.Fatal(err)
		}
		for i, est := range again.PerIteration {
			if est != want.PerIteration[i] {
				t.Errorf("%v: after the cancel, iteration %d reads %v, a fresh engine %v", c.mode, i, est, want.PerIteration[i])
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%v: goroutines leaked: %d before, %d after", c.mode, before, after)
		}
	}
}

// TestBagAutoModeIsOuter checks that a bag engine resolves Auto and
// Hybrid to Outer even past autoInnerThreshold, where a partition-tree
// engine would pick Inner: a bag iteration runs on one worker, so Inner
// would leave the others idle. The stream stays bit-identical to an
// Inner run's.
func TestBagAutoModeIsOuter(t *testing.T) {
	g := gen.ErdosRenyiM(autoInnerThreshold, 2*autoInnerThreshold, 1)
	paw := tmpl.MustZoo("tailed-triangle")
	run := func(mode Mode) Result {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Workers = 2
		cfg.Seed = 5
		e, err := New(g, paw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(Inner)
	if want.ModeUsed != Inner {
		t.Fatalf("explicit Inner resolved to %v", want.ModeUsed)
	}
	if want.Estimate == 0 {
		t.Fatal("no paw counted; the comparison checks nothing")
	}
	for _, mode := range []Mode{Auto, Hybrid} {
		got := run(mode)
		if got.ModeUsed != Outer {
			t.Errorf("%v on %d vertices resolved to %v, want Outer", mode, g.N(), got.ModeUsed)
		}
		for i := range want.PerIteration {
			if got.PerIteration[i] != want.PerIteration[i] {
				t.Errorf("%v: iteration %d = %v, Inner %v", mode, i, got.PerIteration[i], want.PerIteration[i])
			}
		}
	}
}

// TestBagWarmRunAllocs pins the bag DP's slab recycling: once a run has
// warmed an engine's arenas and high-water marks, repeating it takes
// every node table, marker array and row index from the arena and every
// coloring generator from the engine's pool, so RunContext allocates a
// few dozen fixed objects (run bookkeeping) and no memory that grows
// with the graph or the tables. A fresh generator per iteration (about
// 5 KB each) would break the byte bound. The templates cover 2- and
// 3-vertex keys in both forget and join, and the warm-up covers the
// index's growth.
func TestBagWarmRunAllocs(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(8)), 1500, 22500)
	ctx := context.Background()
	for _, spec := range []string{
		"0-1 1-2 2-0 0-3",         // paw: forget to 2-vertex keys
		"0-1 0-2 0-3 1-2 1-3 2-3", // K4: forget to 3-vertex keys
		"0-1 1-2 2-0 1-3 2-4",     // joins over 2- and 1-vertex bags
		"0-1 1-2 2-0 0-3 0-4",     // a join over a 3-vertex bag
	} {
		tr, err := tmpl.ParseGraph(spec, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			e, err := New(g, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := e.RunContext(ctx, 4)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Estimate == 0 {
				t.Fatalf("%s: nothing counted; the pin checks nothing", spec)
			}
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := e.RunContext(ctx, 4); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			if allocs > 120 || perRun > 24<<10 {
				t.Errorf("%s, %d workers: a warm RunContext(ctx, 4) allocated %v objects and %d bytes, want <= 120 and <= 24 KiB",
					spec, workers, allocs, perRun)
			}
		}
	}
}

// TestBagConvergedAndProfile exercises the adaptive driver and profiler
// through the bag path.
func TestBagConvergedAndProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 25, 90)
	cfg := DefaultConfig()
	cfg.Seed = 11
	e, err := New(g, tmpl.MustZoo("c4"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunConverged(0.5, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIteration) < 2 {
		t.Fatalf("converged run did %d iterations, want >= 2", len(res.PerIteration))
	}
	prof, est := e.ProfileIteration(11)
	if prof.Compute <= 0 {
		t.Error("profile recorded no compute time")
	}
	// The profiled iteration uses seed 11 = Seed+0, so its estimate must
	// equal the first per-iteration estimate of the run.
	if est != res.PerIteration[0] {
		t.Errorf("profiled estimate %v != first iteration %v", est, res.PerIteration[0])
	}
}

// TestBagLabeledTemplates checks labeled pruning through the bag DP
// against the generalized exact counter, over several colorings so that
// every template meets some colorful labeled occurrence.
func TestBagLabeledTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 16
	edges := make([][2]int32, 50)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(rng.Intn(2))
	}
	g := graph.MustFromEdges(n, edges, labels)
	for _, c := range []struct {
		t      *tmpl.Template
		labels []int32
	}{
		{tmpl.Triangle(), []int32{0, 0, 1}},
		{tmpl.TailedTriangle(), []int32{0, 1, 1, 0}},
		{tmpl.Diamond(), []int32{0, 1, 1, 0}},
	} {
		tr, err := c.t.WithLabels(c.t.Name()+"-labeled", c.labels)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(g, tr, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var seen int64
		for seed := int64(29); seed < 29+16; seed++ {
			want := exact.CountColorfulMappings(g, tr, e.ColoringFor(seed))
			if got := e.ColorfulTotal(seed); got != float64(want) {
				t.Fatalf("%s seed %d: labeled bag DP total %v, exact %d", tr.Name(), seed, got, want)
			}
			seen += want
		}
		if seen == 0 {
			t.Fatalf("%s: no colorful labeled occurrence under any coloring; the test checks nothing", tr.Name())
		}
	}
}
