package dp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/comb"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/table"
	"repro/internal/tmpl"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return graph.MustFromEdges(n, edges, nil)
}

func randomTree(rng *rand.Rand, k int) *tmpl.Template {
	edges := make([][2]int, 0, k-1)
	for v := 1; v < k; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	return tmpl.MustTree("rand", k, edges, nil)
}

// TestColorfulExactEquivalence is the keystone correctness test: under a
// fixed coloring, the DP's colorful-mapping total must EXACTLY equal
// brute-force colorful enumeration, for every combination of strategy,
// table layout, sharing, leaf specialization, worker count, and lane
// count — each lane of a multi-lane traversal against enumeration under
// that lane's own coloring.
func TestColorfulExactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(18)
		g := randomGraph(rng, n, n*2)
		k := 2 + rng.Intn(4)
		tr := randomTree(rng, k)
		seed := rng.Int63()

		var want []int64
		for _, lanes := range []int{1, 3} {
			for _, strat := range []part.Strategy{part.OneAtATime, part.Balanced} {
				for _, kind := range table.Kinds {
					for _, share := range []bool{false, true} {
						for _, noSpecial := range []bool{false, true} {
							for _, workers := range []int{1, 3} {
								cfg := DefaultConfig()
								cfg.Strategy = strat
								cfg.TableKind = kind
								cfg.Share = share
								cfg.DisableLeafSpecial = noSpecial
								cfg.Workers = workers
								cfg.Mode = Inner
								cfg.Batch = lanes
								e, err := New(g, tr, cfg)
								if err != nil {
									t.Fatal(err)
								}
								for len(want) < lanes {
									s := seed + int64(len(want))
									want = append(want, exact.CountColorfulMappings(g, tr, e.ColoringFor(s)))
								}
								st := e.newBatchState(e.arena, seed, lanes, workers)
								st.run()
								for j, got := range st.totals {
									if got != float64(want[j]) {
										t.Fatalf("trial %d (lanes=%d lane %d/%v/%v/share=%v/nospecial=%v/w=%d): DP total %v, exact %d\ntemplate %v",
											trial, lanes, j, strat, kind, share, noSpecial, workers, got, want[j], tr)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestColorfulEquivalenceExtraColors repeats the keystone check with more
// colors than template vertices.
func TestColorfulEquivalenceExtraColors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 15, 30)
	tr := tmpl.Spider(2, 1, 1) // k = 5
	for _, colors := range []int{5, 6, 8} {
		cfg := DefaultConfig()
		cfg.Colors = colors
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.CountColorfulMappings(g, tr, e.ColoringFor(99))
		if got := e.ColorfulTotal(99); got != float64(want) {
			t.Fatalf("colors=%d: DP %v, exact %d", colors, got, want)
		}
	}
}

// TestColorfulEquivalenceLabeled checks labeled pruning end to end.
func TestColorfulEquivalenceLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 20, 50)
	g.Labels = make([]int32, g.N())
	for i := range g.Labels {
		g.Labels[i] = int32(rng.Intn(3))
	}
	base := tmpl.Spider(2, 1, 1)
	lt, err := base.WithLabels("lab", []int32{0, 1, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range table.Kinds {
		cfg := DefaultConfig()
		cfg.TableKind = kind
		e, err := New(g, lt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.CountColorfulMappings(g, lt, e.ColoringFor(4))
		if got := e.ColorfulTotal(4); got != float64(want) {
			t.Fatalf("%v: labeled DP %v, exact %d", kind, got, want)
		}
	}
}

func TestEstimateUnbiased(t *testing.T) {
	// With enough iterations the mean estimate must approach the exact
	// occurrence count.
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 30, 90)
	tr := tmpl.Path(4)
	want := float64(exact.Count(g, tr))
	cfg := DefaultConfig()
	cfg.Seed = 5
	e, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Skip("degenerate instance")
	}
	rel := math.Abs(res.Estimate-want) / want
	if rel > 0.10 {
		t.Fatalf("estimate %.1f vs exact %.1f (rel err %.3f)", res.Estimate, want, rel)
	}
	if res.StdErr <= 0 {
		t.Fatal("stderr not computed")
	}
}

func TestInnerOuterSameEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 25, 60)
	tr := tmpl.Path(5)
	results := map[Mode][]float64{}
	for _, mode := range []Mode{Inner, Outer} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Workers = 4
		cfg.Seed = 77
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = res.PerIteration
	}
	for i := range results[Inner] {
		if results[Inner][i] != results[Outer][i] {
			t.Fatalf("iteration %d differs between modes: %v vs %v", i, results[Inner][i], results[Outer][i])
		}
	}
}

func TestAutoModeSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := randomGraph(rng, 50, 100)
	cfg := DefaultConfig()
	e, err := New(small, tmpl.Path(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.mode() != Outer {
		t.Fatalf("small graph resolved to %v, want Outer", e.mode())
	}
	if Inner.String() != "inner" || Outer.String() != "outer" || Auto.String() != "auto" || Mode(9).String() == "" {
		t.Fatal("mode strings broken")
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 10, 15)
	if _, err := New(nil, tmpl.Path(3), DefaultConfig()); err == nil {
		t.Error("nil graph accepted")
	}
	cfg := DefaultConfig()
	cfg.Colors = 2
	if _, err := New(g, tmpl.Path(3), cfg); err == nil {
		t.Error("too few colors accepted")
	}
	cfg = DefaultConfig()
	cfg.Colors = 40
	if _, err := New(g, tmpl.Path(3), cfg); err == nil {
		t.Error("too many colors accepted")
	}
	cfg = DefaultConfig()
	cfg.Colors = 32
	var wide *RowWidthError
	if _, err := New(g, tmpl.Path(12), cfg); !errors.As(err, &wide) || wide.Cells != comb.Binomial(32, 12) {
		t.Errorf("32 colors on a 12-vertex path: got %v, want a RowWidthError of C(32, 12) cells", err)
	}
	cfg.Colors = 22 // C(22, 11) = 705432 cells, under the cap
	if err := CheckRowWidth(12, cfg.Colors); err != nil {
		t.Errorf("22 colors on a 12-vertex template refused: %v", err)
	}
	if err := CheckRowWidth(23, 0); err == nil {
		t.Error("a 23-vertex template at 23 colors (C(23, 11)-cell rows) passed the row-width cap")
	}
	lt, _ := tmpl.Path(3).WithLabels("l", []int32{0, 1, 0})
	if _, err := New(g, lt, DefaultConfig()); err == nil {
		t.Error("labeled template on unlabeled graph accepted")
	}
	e, _ := New(g, tmpl.Path(3), DefaultConfig())
	if _, err := e.Run(0); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := e.VertexCounts(0); err == nil {
		t.Error("zero iterations accepted for vertex counts")
	}
}

func TestEngineAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 10, 15)
	e, err := New(g, tmpl.Path(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.Colors() != 3 || e.Automorphisms() != 2 || e.Tree() == nil {
		t.Fatal("accessors broken")
	}
	p := e.ColorfulProbability()
	want := 6.0 / 27.0 // 3!/3^3
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("colorful probability %v, want %v", p, want)
	}
}

func TestSingleVertexTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 17, 25)
	e, err := New(g, tmpl.MustTree("k1", 1, nil, nil), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 17 {
		t.Fatalf("K1 estimate %v, want 17 (number of vertices)", res.Estimate)
	}
}

func TestEdgeTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 20, 40)
	e, err := New(g, tmpl.Path(2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(g.M())
	if math.Abs(res.Estimate-want)/want > 0.1 {
		t.Fatalf("edge estimate %v, want ~%v", res.Estimate, want)
	}
}

func TestVertexCountsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 14, 26)
	tr := tmpl.Path(3)
	cfg := DefaultConfig()
	cfg.RootVertex = 1 // center of the path
	cfg.Seed = 13
	e, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.VertexCounts(1500)
	if err != nil {
		t.Fatal(err)
	}
	exactRooted := exact.CountRootedMappings(g, tr, 1)
	rAut := tr.RootedAutomorphisms(1) // = 2 (swap the arms)
	for v := range got {
		want := float64(exactRooted[v]) / float64(rAut)
		if want == 0 {
			if got[v] != 0 {
				t.Fatalf("vertex %d: got %v, want 0", v, got[v])
			}
			continue
		}
		if math.Abs(got[v]-want)/want > 0.25 {
			t.Fatalf("vertex %d: got %.2f, want %.2f", v, got[v], want)
		}
	}
	// Sharing must be rejected for per-vertex counts.
	cfg.Share = true
	e2, err := New(g, tmpl.MustNamed("U7-2"), cfg2Share(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.VertexCounts(1); err == nil {
		t.Fatal("shared engine accepted for vertex counts")
	}
}

func cfg2Share(cfg Config) Config {
	cfg.Share = true
	cfg.RootVertex = -1
	return cfg
}

func TestSampleEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 20, 50)
	tr := tmpl.Spider(2, 1, 1)
	cfg := DefaultConfig()
	cfg.KeepTables = true
	cfg.Seed = 3
	e, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SampleEmbeddings(rng, 1); err == nil {
		t.Fatal("sampling before any run accepted")
	}
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	embs, err := e.SampleEmbeddings(rng, 30)
	if err != nil {
		t.Skip("no colorful embeddings under this coloring")
	}
	colors := e.kept.colors
	for _, emb := range embs {
		if err := e.VerifyEmbedding(emb); err != nil {
			t.Fatal(err)
		}
		seen := map[int8]bool{}
		for _, v := range emb.Mapping {
			c := colors[v]
			if seen[c] {
				t.Fatal("sampled embedding not colorful")
			}
			seen[c] = true
		}
	}
}

func TestVerifyEmbeddingRejectsBadMappings(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}}, nil)
	e, err := New(g, tmpl.Path(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Embedding{
		{Mapping: []int32{0, 1}},    // wrong length
		{Mapping: []int32{0, 1, 0}}, // duplicate
		{Mapping: []int32{0, 2, 3}}, // missing edge 0-2
		{Mapping: []int32{0, 1, 9}}, // out of range
	}
	for i, emb := range bad {
		if err := e.VerifyEmbedding(emb); err == nil {
			t.Errorf("bad embedding %d accepted", i)
		}
	}
	if err := e.VerifyEmbedding(Embedding{Mapping: []int32{0, 1, 2}}); err != nil {
		t.Errorf("good embedding rejected: %v", err)
	}
}

func TestPeakBytesOrdering(t *testing.T) {
	// A sparse graph and a large template: many vertices never acquire
	// counts for the bigger subtemplates, which is where the lazy layout
	// saves memory (with small templates the per-row header overhead can
	// exceed the savings, as on a 3-vertex template).
	rng := rand.New(rand.NewSource(55))
	g := randomGraph(rng, 3000, 3000)
	tr := tmpl.Path(10)
	peak := map[table.Kind]int64{}
	for _, kind := range table.Kinds {
		cfg := DefaultConfig()
		cfg.TableKind = kind
		cfg.Seed = 9
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		peak[kind] = res.PeakTableBytes
	}
	if peak[table.Naive] < peak[table.Lazy] {
		t.Fatalf("naive peak %d < lazy peak %d", peak[table.Naive], peak[table.Lazy])
	}
	if peak[table.Naive] <= 0 {
		t.Fatal("peak tracking broken")
	}
}

func TestIterationsFor(t *testing.T) {
	if IterationsFor(0.1, 0.1, 5) <= IterationsFor(0.2, 0.1, 5) {
		t.Fatal("tighter eps should need more iterations")
	}
	if IterationsFor(0.1, 0.05, 5) <= IterationsFor(0.1, 0.2, 5) {
		t.Fatal("tighter delta should need more iterations")
	}
	if IterationsFor(0.1, 0.1, 8) <= IterationsFor(0.1, 0.1, 4) {
		t.Fatal("larger templates should need more iterations")
	}
	if IterationsFor(0, 0.1, 5) != 1 || IterationsFor(0.1, 0, 5) != 1 {
		t.Fatal("degenerate parameters should clamp to 1")
	}
	if IterationsFor(1e-9, 1e-9, 30) != math.MaxInt32 {
		t.Fatal("overflow not clamped")
	}
}

func TestShareMatchesUnshared(t *testing.T) {
	// Estimates must be identical with and without subtemplate sharing.
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 40, 100)
	tr := tmpl.MustNamed("U7-2")
	var base []float64
	for _, share := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Share = share
		cfg.Seed = 23
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res.PerIteration
			continue
		}
		for i := range base {
			if base[i] != res.PerIteration[i] {
				t.Fatalf("share changed iteration %d: %v vs %v", i, base[i], res.PerIteration[i])
			}
		}
	}
}

func TestHybridMatchesOtherModes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomGraph(rng, 30, 80)
	tr := tmpl.MustNamed("U5-2")
	var base []float64
	for _, mode := range []Mode{Inner, Outer, Hybrid} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Workers = 4
		cfg.Seed = 19
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(9)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res.PerIteration
			continue
		}
		for i := range base {
			if res.PerIteration[i] != base[i] {
				t.Fatalf("%v: iteration %d differs: %v vs %v", mode, i, res.PerIteration[i], base[i])
			}
		}
	}
	if Hybrid.String() != "hybrid" {
		t.Fatal("hybrid string")
	}
}

func TestHybridWithHashTables(t *testing.T) {
	// Hash-layout stores must stay consistent when hybrid mode nests
	// inner workers inside concurrent iterations.
	rng := rand.New(rand.NewSource(44))
	g := randomGraph(rng, 40, 120)
	tr := tmpl.Path(4)
	cfg := DefaultConfig()
	cfg.Mode = Hybrid
	cfg.Workers = 4
	cfg.TableKind = table.Hash
	cfg.Seed = 8
	e, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = Inner
	cfg.TableKind = table.Lazy
	e2, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.PerIteration {
		if res.PerIteration[i] != res2.PerIteration[i] {
			t.Fatalf("hybrid+hash diverged at iteration %d", i)
		}
	}
}

func TestRunConverged(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(rng, 40, 120)
	tr := tmpl.Path(4)
	cfg := DefaultConfig()
	cfg.Seed = 4
	e, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunConverged(0.02, 3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIteration) < 3 || len(res.PerIteration) > 5000 {
		t.Fatalf("converged after %d iterations", len(res.PerIteration))
	}
	if res.StdErr/res.Estimate > 0.021 && len(res.PerIteration) < 5000 {
		t.Fatalf("stopped early with rel stderr %.4f", res.StdErr/res.Estimate)
	}
	want := float64(exact.Count(g, tr))
	if want > 0 && math.Abs(res.Estimate-want)/want > 0.10 {
		t.Fatalf("converged estimate %.1f, exact %.1f", res.Estimate, want)
	}
	// Prefix property: converged per-iteration estimates match a fixed
	// run's prefix.
	fixed, err := e.Run(len(res.PerIteration))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.PerIteration {
		if res.PerIteration[i] != fixed.PerIteration[i] {
			t.Fatal("converged run is not a prefix of the fixed run")
		}
	}
	// Validation.
	if _, err := e.RunConverged(0, 2, 10); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	if _, err := e.RunConverged(0.1, 10, 5); err == nil {
		t.Fatal("max < min accepted")
	}
}

func TestRunConvergedTightToleranceHitsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomGraph(rng, 20, 40)
	e, err := New(g, tmpl.Path(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunConverged(1e-9, 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIteration) != 25 {
		t.Fatalf("expected to hit maxIters, ran %d", len(res.PerIteration))
	}
}

// TestRunConvergedPriorResume checks the prior-seeded adaptive runner:
// splitting a converged run at any point and resuming from the prefix
// (with the seed offset by the prior length, as the serving layer does)
// must reproduce the remaining iterations, the stopping point, and the
// final estimate bit for bit.
func TestRunConvergedPriorResume(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := randomGraph(rng, 40, 120)
	tr := tmpl.Path(4)
	cfg := DefaultConfig()
	cfg.Seed = 4
	e, err := New(g, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const relStdErr, minIters, maxIters = 0.05, 3, 2000
	full, err := e.RunConverged(relStdErr, minIters, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	n := len(full.PerIteration)
	if n < minIters || n >= maxIters {
		t.Fatalf("full run converged after %d iterations (want interior of [%d, %d))", n, minIters, maxIters)
	}
	// An adaptive run's summary must be bit-identical to a fixed run of
	// its stop length — the serve cache hands the two out interchangeably.
	fixed, err := e.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Estimate != full.Estimate || fixed.StdErr != full.StdErr {
		t.Fatalf("adaptive summary (%v ± %v) != fixed %d-iteration summary (%v ± %v)",
			full.Estimate, full.StdErr, n, fixed.Estimate, fixed.StdErr)
	}
	for _, p := range []int{1, n / 2, n - 1} {
		prior := full.PerIteration[:p]
		cfg2 := cfg
		cfg2.Seed = cfg.Seed + int64(p)
		e2, err := New(g, tr, cfg2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e2.RunConvergedPriorContext(context.Background(), relStdErr, minIters, maxIters, prior)
		if err != nil {
			t.Fatal(err)
		}
		if p+len(res.PerIteration) != n {
			t.Fatalf("prior=%d: resumed run stopped at %d total iterations, full run at %d", p, p+len(res.PerIteration), n)
		}
		for i, x := range res.PerIteration {
			if x != full.PerIteration[p+i] {
				t.Fatalf("prior=%d: fresh iteration %d estimate %v != full run %v", p, i, x, full.PerIteration[p+i])
			}
		}
		if res.Estimate != full.Estimate || res.StdErr != full.StdErr {
			t.Fatalf("prior=%d: resumed estimate %v ± %v != full %v ± %v",
				p, res.Estimate, res.StdErr, full.Estimate, full.StdErr)
		}
	}
	// A prior already past the stopping rule runs nothing fresh.
	done, err := e.RunConvergedPriorContext(context.Background(), relStdErr, minIters, maxIters, full.PerIteration)
	if err != nil {
		t.Fatal(err)
	}
	if len(done.PerIteration) != 0 {
		t.Fatalf("converged prior still ran %d fresh iterations", len(done.PerIteration))
	}
	if done.Estimate != full.Estimate || done.StdErr != full.StdErr {
		t.Fatalf("converged-prior estimate %v ± %v != full %v ± %v",
			done.Estimate, done.StdErr, full.Estimate, full.StdErr)
	}
}

// TestStopIndex pins the Welford stopping rule every adaptive tier
// shares: constant streams stop at the floor, high-variance streams
// never stop, zero means and non-positive targets disable stopping.
func TestStopIndex(t *testing.T) {
	constant := []float64{8, 8, 8, 8, 8, 8}
	if got := StopIndex(constant, 0.1, 4); got != 4 {
		t.Fatalf("constant stream: stop %d, want 4 (the floor)", got)
	}
	if got := StopIndex(constant, 0.1, 0); got != 2 {
		t.Fatalf("minIters < 2 not clamped: stop %d, want 2", got)
	}
	if got := StopIndex([]float64{1, 100, 1, 100, 1, 100}, 0.01, 2); got != -1 {
		t.Fatalf("high-variance stream converged at %d", got)
	}
	if got := StopIndex([]float64{5, -5, 5, -5}, 0.5, 2); got != -1 {
		t.Fatalf("zero-mean stream converged at %d", got)
	}
	if got := StopIndex(constant, 0, 2); got != -1 {
		t.Fatalf("non-positive target converged at %d", got)
	}
	if got := StopIndex(nil, 0.1, 2); got != -1 {
		t.Fatalf("empty stream converged at %d", got)
	}
}

func TestProfileIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(rng, 2000, 10000)
	e, err := New(g, tmpl.Path(7), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, est := e.ProfileIteration(3)
	if est != e.scale(e.ColorfulTotal(3)) {
		t.Fatal("profiled estimate differs from normal run")
	}
	if prof.Total() <= 0 || len(prof.PerNode) == 0 {
		t.Fatalf("degenerate profile %+v", prof)
	}
	// The paper's §V-A observation: the DP combination step dominates.
	if share := prof.ComputeShare(); share < 0.5 {
		t.Fatalf("compute share %.2f implausibly low for k=7", share)
	}
	var perNodeSum time.Duration
	for _, d := range prof.PerNode {
		perNodeSum += d
	}
	if perNodeSum != prof.Compute {
		t.Fatal("per-node times do not sum to compute time")
	}
}
