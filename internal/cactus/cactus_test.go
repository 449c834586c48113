// Package cactus holds the tests of the triangle-cactus counting path:
// templates built by the root package's cactus constructors and counted
// by the tree-decomposition (bag) DP of internal/dp. The directory has no
// code of its own; the tests pin the same guarantees the dedicated
// triangle-merge engine once gave, against the code that now serves them.
package cactus

import (
	"math"
	"math/rand"
	"testing"

	fascia "repro"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/graph"
)

func randomG(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return graph.MustFromEdges(n, edges, nil)
}

func complete(n int) *graph.Graph {
	var edges [][2]int32
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

func mustCactus(t *testing.T, name string, k int, edges [][2]int) *fascia.CactusTemplate {
	t.Helper()
	tpl, err := fascia.NewCactusTemplate(name, k, edges)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tpl
}

func bowtie(t *testing.T) *fascia.CactusTemplate {
	// Two triangles sharing vertex 0.
	return mustCactus(t, "bowtie", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}})
}

// newEngine builds the DP engine CountCactus runs for tpl, with the
// given color count (0 means the template size) and seed.
func newEngine(t *testing.T, g *graph.Graph, tpl *fascia.CactusTemplate, colors int, seed int64) *dp.Engine {
	t.Helper()
	cfg := dp.DefaultConfig()
	cfg.Colors = colors
	cfg.Seed = seed
	e, err := dp.New(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAutomorphismsKnown(t *testing.T) {
	cases := []struct {
		t    *fascia.CactusTemplate
		want int64
	}{
		{fascia.TriangleTemplate(), 6},        // S3
		{fascia.TailedTriangleTemplate(1), 2}, // swap the two free triangle vertices
		{bowtie(t), 8},                        // 2 per triangle × swap triangles
		{mustCactus(t, "p3", 3, [][2]int{{0, 1}, {1, 2}}), 2},
	}
	for _, c := range cases {
		if got := c.t.Automorphisms(); got != c.want {
			t.Errorf("Aut(%s) = %d, want %d", c.t.Name(), got, c.want)
		}
	}
}

func TestExactTriangleCounts(t *testing.T) {
	// Triangles in K4: C(4,3) = 4; in K5: 10.
	if got := fascia.ExactCountCactus(complete(4), fascia.TriangleTemplate()); got != 4 {
		t.Fatalf("triangles in K4 = %d, want 4", got)
	}
	if got := fascia.ExactCountCactus(complete(5), fascia.TriangleTemplate()); got != 10 {
		t.Fatalf("triangles in K5 = %d, want 10", got)
	}
	// A triangle-free graph has none.
	ring := graph.MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, nil)
	if got := fascia.ExactCountCactus(ring, fascia.TriangleTemplate()); got != 0 {
		t.Fatalf("triangles in C6 = %d, want 0", got)
	}
}

// TestCactusColorfulExactEquivalence is the cactus keystone: the DP's
// colorful total must exactly match brute force, for triangle-bearing
// templates on random graphs.
func TestCactusColorfulExactEquivalence(t *testing.T) {
	templates := []*fascia.CactusTemplate{
		fascia.TriangleTemplate(),
		fascia.TailedTriangleTemplate(1),
		fascia.TailedTriangleTemplate(2),
		bowtie(t),
		// Triangle with subtrees on two corners.
		mustCactus(t, "tri-tree", 6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}, {4, 5}}),
		// A pure tree is a cactus too.
		mustCactus(t, "tree", 4, [][2]int{{0, 1}, {1, 2}, {1, 3}}),
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 12 + int(seed)*3
		g := randomG(rand.New(rand.NewSource(seed)), n, n*3)
		for _, tpl := range templates {
			e := newEngine(t, g, tpl, 0, seed)
			want := exact.CountColorfulMappings(g, tpl, e.ColoringFor(seed*7))
			got := e.ColorfulTotal(seed * 7)
			if got != float64(want) {
				t.Fatalf("seed %d %s: DP %v, exact %d", seed, tpl.Name(), got, want)
			}
		}
	}
}

func TestCactusEstimateConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomG(rng, 40, 200)
	tpl := fascia.TailedTriangleTemplate(1)
	want := float64(fascia.ExactCountCactus(g, tpl))
	if want == 0 {
		t.Fatal("degenerate instance: no tailed triangles")
	}
	res, err := fascia.CountCactus(g, tpl, fascia.DefaultOptions().WithIterations(800).WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Count-want)/want > 0.12 {
		t.Fatalf("estimate %.1f, exact %.1f", res.Count, want)
	}
}

func TestCactusMatchesTreeEngineOnTrees(t *testing.T) {
	// For pure trees the bag DP must agree exactly, per coloring, with
	// exhaustive counts and with the partition-tree DP.
	rng := rand.New(rand.NewSource(6))
	g := randomG(rng, 20, 50)
	tpl := mustCactus(t, "star4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	cfg := dp.DefaultConfig()
	cfg.Seed = 2
	cfg.ForceBagDP = true
	bagEng, err := dp.New(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bagEng.Decomposition() == nil {
		t.Fatal("ForceBagDP engine did not take the bag path")
	}
	treeEng := newEngine(t, g, tpl, 0, 2)
	want := exact.CountColorfulMappings(g, tpl, bagEng.ColoringFor(9))
	got := bagEng.ColorfulTotal(9)
	if got != float64(want) {
		t.Fatalf("tree via bag DP: %v vs exact %d", got, want)
	}
	if tree := treeEng.ColorfulTotal(9); got != tree {
		t.Fatalf("tree via bag DP: %v vs partition-tree DP %v", got, tree)
	}
}

func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomG(rng, 10, 20)
	if _, err := dp.New(nil, fascia.TriangleTemplate(), dp.DefaultConfig()); err == nil {
		t.Fatal("nil graph accepted")
	}
	cfg := dp.DefaultConfig()
	cfg.Colors = 2
	if _, err := dp.New(g, fascia.TriangleTemplate(), cfg); err == nil {
		t.Fatal("too few colors accepted")
	}
	e := newEngine(t, g, fascia.TriangleTemplate(), 0, 0)
	if _, err := e.Run(0); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if e.Automorphisms() != 6 {
		t.Fatal("triangle aut wrong")
	}
	if _, err := fascia.CountCactus(nil, fascia.TriangleTemplate(), fascia.DefaultOptions()); err == nil {
		t.Fatal("CountCactus accepted a nil graph")
	}
}

func TestExtraColorsCactus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomG(rng, 15, 45)
	tpl := fascia.TailedTriangleTemplate(1)
	e := newEngine(t, g, tpl, 6, 1)
	want := exact.CountColorfulMappings(g, tpl, e.ColoringFor(11))
	if got := e.ColorfulTotal(11); got != float64(want) {
		t.Fatalf("extra colors: DP %v, exact %d", got, want)
	}
}
