package tmpl

import (
	"strings"
	"testing"
)

// TestDecomposeZoo checks that every zoo motif decomposes into a valid
// nice decomposition at the expected width.
func TestDecomposeZoo(t *testing.T) {
	wantWidth := map[string]int{
		"triangle":        2,
		"path3":           1,
		"star3":           1,
		"c4":              2,
		"diamond":         2,
		"tailed-triangle": 2,
		"k4":              3,
	}
	for _, name := range ZooNames() {
		tr := MustZoo(name)
		d, err := Decompose(tr)
		if err != nil {
			t.Fatalf("Decompose(%s): %v", name, err)
		}
		if err := d.Validate(tr); err != nil {
			t.Errorf("Decompose(%s) invalid: %v", name, err)
		}
		if d.Width != wantWidth[name] {
			t.Errorf("Decompose(%s) width = %d, want %d", name, d.Width, wantWidth[name])
		}
	}
}

// TestDecomposeTreesWidthOne checks that every free tree up to k=7
// decomposes validly at width 1 — the reduction the tree bit-identity
// property rides on.
func TestDecomposeTreesWidthOne(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for _, tr := range AllTrees(k) {
			d, err := Decompose(tr)
			if err != nil {
				t.Fatalf("Decompose(%s): %v", tr.Name(), err)
			}
			if err := d.Validate(tr); err != nil {
				t.Fatalf("Decompose(%s) invalid: %v", tr.Name(), err)
			}
			if k > 1 && d.Width != 1 {
				t.Errorf("Decompose(%s) width = %d, want 1", tr.Name(), d.Width)
			}
		}
	}
}

// TestDecomposeCyclesAndBeyond checks longer cycles (treewidth 2) and
// the clean rejection of higher-treewidth templates.
func TestDecomposeCyclesAndBeyond(t *testing.T) {
	for k := 3; k <= 12; k++ {
		c, err := Cycle(k)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decompose(c)
		if err != nil {
			t.Fatalf("Decompose(C%d): %v", k, err)
		}
		if err := d.Validate(c); err != nil {
			t.Fatalf("Decompose(C%d) invalid: %v", k, err)
		}
		if d.Width != 2 {
			t.Errorf("Decompose(C%d) width = %d, want 2", k, d.Width)
		}
	}
	for k := 5; k <= 8; k++ {
		c, err := Clique(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decompose(c); err == nil {
			t.Errorf("Decompose(K%d) accepted a treewidth-%d template", k, k-1)
		} else if !strings.Contains(err.Error(), "treewidth") {
			t.Errorf("Decompose(K%d) error %q does not name treewidth", k, err)
		}
	}
}

// TestDecomposeSingleVertex covers the degenerate k=1 template.
func TestDecomposeSingleVertex(t *testing.T) {
	tr := MustTree("one", 1, nil, nil)
	d, err := Decompose(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(tr); err != nil {
		t.Fatal(err)
	}
	if d.Width != 0 {
		t.Errorf("width = %d, want 0", d.Width)
	}
}

// TestAutomorphismsNonTree pins |Aut| for the non-tree zoo and small
// cycles/cliques against known group orders — the scale-factor fix the
// sibling-subtree scan could not provide.
func TestAutomorphismsNonTree(t *testing.T) {
	cases := []struct {
		name string
		t    *Template
		want int64
	}{
		{"triangle", Triangle(), 6},
		{"c4", MustZoo("c4"), 8},
		{"c5", mustCycle(t, 5), 10},
		{"c6", mustCycle(t, 6), 12},
		{"diamond", Diamond(), 4},
		{"tailed-triangle", TailedTriangle(), 2},
		{"bowtie", MustGraph("bowtie", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}}, nil), 8}, // 2 per triangle × swap triangles
		{"k4", MustZoo("k4"), 24},
		{"k5", mustClique(t, 5), 120},
		{"k6", mustClique(t, 6), 720},
	}
	for _, c := range cases {
		if got := c.t.Automorphisms(); got != c.want {
			t.Errorf("Automorphisms(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRootedAutomorphismsNonTree pins stabilizer sizes: the number of
// automorphisms fixing one vertex.
func TestRootedAutomorphismsNonTree(t *testing.T) {
	cases := []struct {
		name string
		t    *Template
		root int
		want int64
	}{
		{"c4@0", MustZoo("c4"), 0, 2},     // reflection through 0
		{"k4@0", MustZoo("k4"), 0, 6},     // S3 on the rest
		{"diamond@0", Diamond(), 0, 2},    // chord endpoint: swap 2,3
		{"diamond@2", Diamond(), 2, 2},    // off-chord: swap 0,1
		{"paw@3", TailedTriangle(), 3, 2}, // tail fixed: swap 1,2
		{"paw@1", TailedTriangle(), 1, 1},
	}
	for _, c := range cases {
		if got := c.t.RootedAutomorphisms(c.root); got != c.want {
			t.Errorf("RootedAutomorphisms(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestOrbitsNonTree pins automorphism orbits of the non-tree zoo.
func TestOrbitsNonTree(t *testing.T) {
	check := func(name string, tr *Template, want [][]int) {
		got := tr.Orbits()
		if len(got) != len(want) {
			t.Errorf("Orbits(%s) = %v, want %v", name, got, want)
			return
		}
		for i := range got {
			if !sameVerts(got[i], want[i]) {
				t.Errorf("Orbits(%s) = %v, want %v", name, got, want)
				return
			}
		}
	}
	check("c4", MustZoo("c4"), [][]int{{0, 1, 2, 3}})
	check("k4", MustZoo("k4"), [][]int{{0, 1, 2, 3}})
	check("diamond", Diamond(), [][]int{{0, 1}, {2, 3}})
	check("tailed-triangle", TailedTriangle(), [][]int{{0}, {1, 2}, {3}})
}

// TestIsIsomorphicNonTree covers the backtracking branch: relabeled
// copies match, structurally different templates of equal size and edge
// count do not, and trees never match non-trees.
func TestIsIsomorphicNonTree(t *testing.T) {
	c4 := MustZoo("c4")
	c4b := MustGraph("c4-relabeled", 4, [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}}, nil)
	if !IsIsomorphic(c4, c4b) {
		t.Error("relabeled C4 not recognized as isomorphic")
	}
	if IsIsomorphic(c4, MustZoo("diamond")) {
		t.Error("C4 isomorphic to diamond")
	}
	if IsIsomorphic(c4, Star(4)) {
		t.Error("C4 isomorphic to the 4-star")
	}
	if IsIsomorphic(MustZoo("tailed-triangle"), MustZoo("diamond")) {
		t.Error("paw isomorphic to diamond (equal size, different edge count)")
	}
}

// TestParseGraphNotation covers the cycle/clique/zoo notation and
// general edge lists, including hostile specs.
func TestParseGraphNotation(t *testing.T) {
	accepts := []struct {
		spec  string
		k     int
		edges int
		tree  bool
	}{
		{"triangle", 3, 3, false},
		{"c4", 4, 4, false},
		{"C5", 5, 5, false},
		{"cycle:6", 6, 6, false},
		{"k4", 4, 6, false},
		{"clique:3", 3, 3, false},
		{"diamond", 4, 5, false},
		{"paw", 4, 4, false},
		{"tailed-triangle", 4, 4, false},
		{"path3", 3, 2, true},
		{"star3", 4, 3, true},
		{"0-1 1-2 2-0", 3, 3, false},
		{"0-1 1-2 2-3", 4, 3, true},
		{"0-1 1-2 2-0 0-3 1-3 2-3", 4, 6, false},
	}
	for _, c := range accepts {
		tr, err := ParseGraph("", c.spec)
		if err != nil {
			t.Errorf("ParseGraph(%q): %v", c.spec, err)
			continue
		}
		if tr.K() != c.k || tr.NumEdges() != c.edges || tr.IsTree() != c.tree {
			t.Errorf("ParseGraph(%q) = k=%d m=%d tree=%v, want k=%d m=%d tree=%v",
				c.spec, tr.K(), tr.NumEdges(), tr.IsTree(), c.k, c.edges, c.tree)
		}
	}
	rejects := []string{"", "c2", "c-1", "c999", "k2", "k999999", "cycle:x", "0-0", "0-1 0-1", "0-1 2-3", "1-2-3"}
	for _, spec := range rejects {
		if _, err := ParseGraph("", spec); err == nil {
			t.Errorf("ParseGraph(%q) accepted a hostile spec", spec)
		}
	}
	// Parse stays tree-only: cycles must keep failing there.
	if _, err := Parse("cyc", "0-1 1-2 2-0"); err == nil {
		t.Error("Parse accepted a cyclic edge list")
	}
}

func mustCycle(t *testing.T, k int) *Template {
	t.Helper()
	c, err := Cycle(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustClique(t *testing.T, k int) *Template {
	t.Helper()
	c, err := Clique(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
