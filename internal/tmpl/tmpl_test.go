package tmpl

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewTreeValidation(t *testing.T) {
	cases := []struct {
		k     int
		edges [][2]int
		ok    bool
	}{
		{1, nil, true},
		{2, [][2]int{{0, 1}}, true},
		{3, [][2]int{{0, 1}, {1, 2}}, true},
		{0, nil, false},                              // too small
		{3, [][2]int{{0, 1}}, false},                 // wrong edge count
		{3, [][2]int{{0, 1}, {0, 1}}, false},         // duplicate
		{3, [][2]int{{0, 1}, {1, 1}}, false},         // self loop
		{3, [][2]int{{0, 1}, {1, 5}}, false},         // out of range
		{4, [][2]int{{0, 1}, {1, 0}, {2, 3}}, false}, // disconnected + dup
	}
	for _, c := range cases {
		_, err := NewTree("t", c.k, c.edges, nil)
		if (err == nil) != c.ok {
			t.Errorf("NewTree(k=%d, %v): err=%v, want ok=%v", c.k, c.edges, err, c.ok)
		}
	}
	if _, err := NewTree("t", 2, [][2]int{{0, 1}}, []int32{1}); err == nil {
		t.Error("wrong label count accepted")
	}
}

func TestTemplateAccessors(t *testing.T) {
	tr := MustTree("x", 3, [][2]int{{0, 1}, {1, 2}}, []int32{5, 6, 7})
	if tr.K() != 3 || tr.Name() != "x" {
		t.Fatal("basic accessors broken")
	}
	if tr.Degree(1) != 2 || tr.Degree(0) != 1 {
		t.Fatal("degrees wrong")
	}
	if !tr.Labeled() || tr.Label(2) != 7 {
		t.Fatal("labels wrong")
	}
	un := Path(3)
	if un.Labeled() || un.Label(0) != 0 {
		t.Fatal("unlabeled template should report label 0")
	}
	if len(tr.Edges()) != 2 {
		t.Fatal("edges wrong")
	}
	if !strings.Contains(tr.String(), "k=3") {
		t.Fatalf("String() = %q", tr.String())
	}
}

func TestParse(t *testing.T) {
	tr, err := Parse("p", "0-1 1-2 1-3")
	if err != nil {
		t.Fatal(err)
	}
	if tr.K() != 4 || tr.Degree(1) != 3 {
		t.Fatalf("parsed wrong: %v", tr)
	}
	for _, bad := range []string{"", "0-1 2", "0-1 a-b", "0-0", "0-1 3-4"} {
		if _, err := Parse("p", bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRejectsHostileSpecs pins the rejection behavior for the
// template strings the serve query path can receive over the wire:
// every spec here must return an error — never panic, never be
// silently repaired into a valid tree. Each was first added as a fuzz
// seed; this test keeps the contract even when fuzzing is skipped.
func TestParseRejectsHostileSpecs(t *testing.T) {
	hostile := []struct {
		name, spec string
	}{
		{"duplicate edge", "0-1 0-1"},
		{"reversed duplicate", "0-1 1-0"},
		{"negative id", "-1-2"},
		{"overflowing id", "0-99999999999999999999"},
		{"self-loop with context", "0-1 1-1"},
		{"disconnected pair", "0-1 2-3"},
		{"unicode dash", "0–1"},
		{"arabic digits", "٠-١"},
	}
	for _, h := range hostile {
		if tr, err := Parse("h", h.spec); err == nil {
			t.Errorf("Parse accepted %s %q: %v", h.name, h.spec, tr)
		}
	}
	// A 65-vertex path exceeds the 64-color ceiling and must be refused.
	var b strings.Builder
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", i, i+1)
	}
	if _, err := Parse("long", b.String()); err == nil {
		t.Error("Parse accepted a 65-vertex path (above the 64-color ceiling)")
	}
	// The 64-vertex path is the boundary and must still parse.
	var ok strings.Builder
	for i := 0; i < 63; i++ {
		if i > 0 {
			ok.WriteByte(' ')
		}
		fmt.Fprintf(&ok, "%d-%d", i, i+1)
	}
	if tr, err := Parse("max", ok.String()); err != nil || tr.K() != 64 {
		t.Errorf("64-vertex path: %v, %v", tr, err)
	}
}

func TestConstructors(t *testing.T) {
	p := Path(5)
	if p.K() != 5 || p.Degree(0) != 1 || p.Degree(2) != 2 {
		t.Fatal("Path wrong")
	}
	s := Star(6)
	if s.K() != 6 || s.Degree(0) != 5 {
		t.Fatal("Star wrong")
	}
	sp := Spider(2, 2, 2)
	if sp.K() != 7 || sp.Degree(0) != 3 {
		t.Fatal("Spider wrong")
	}
}

func TestCanonicalRootedDistinguishes(t *testing.T) {
	p := Path(4)
	// Rooted at an end vs at an inner vertex must differ.
	if p.CanonicalRooted(0) == p.CanonicalRooted(1) {
		t.Fatal("rooted encodings should differ by root position")
	}
	// Symmetric roots must agree.
	if p.CanonicalRooted(0) != p.CanonicalRooted(3) {
		t.Fatal("symmetric roots should agree")
	}
	if p.CanonicalRooted(1) != p.CanonicalRooted(2) {
		t.Fatal("symmetric inner roots should agree")
	}
}

func TestCanonicalFreeInvariance(t *testing.T) {
	// The same tree with scrambled vertex numbering must keep its code.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(11)
		tr := randomTree(rng, k)
		perm := rng.Perm(k)
		edges := make([][2]int, 0, k-1)
		for _, e := range tr.Edges() {
			edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
		}
		scrambled := MustTree("s", k, edges, nil)
		return tr.CanonicalFree() == scrambled.CanonicalFree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomTree(rng *rand.Rand, k int) *Template {
	edges := make([][2]int, 0, k-1)
	for v := 1; v < k; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	return MustTree("r", k, edges, nil)
}

func TestCanonicalFreeLabeled(t *testing.T) {
	a := MustTree("a", 3, [][2]int{{0, 1}, {1, 2}}, []int32{1, 2, 1})
	b := MustTree("b", 3, [][2]int{{0, 1}, {1, 2}}, []int32{1, 2, 3})
	c := MustTree("c", 3, [][2]int{{2, 1}, {1, 0}}, []int32{1, 2, 1})
	if a.CanonicalFree() == b.CanonicalFree() {
		t.Fatal("different labelings should differ")
	}
	if a.CanonicalFree() != c.CanonicalFree() {
		t.Fatal("isomorphic labeled trees should agree")
	}
}

func TestCentroids(t *testing.T) {
	if c := Path(5).Centroids(); len(c) != 1 || c[0] != 2 {
		t.Fatalf("P5 centroids = %v, want [2]", c)
	}
	if c := Path(4).Centroids(); len(c) != 2 || c[0] != 1 || c[1] != 2 {
		t.Fatalf("P4 centroids = %v, want [1 2]", c)
	}
	if c := Star(7).Centroids(); len(c) != 1 || c[0] != 0 {
		t.Fatalf("S7 centroids = %v, want [0]", c)
	}
	if c := MustTree("k1", 1, nil, nil).Centroids(); len(c) != 1 || c[0] != 0 {
		t.Fatalf("K1 centroids = %v", c)
	}
	// Double star: both centers are centroids.
	if c := MustNamed("U10-2").Centroids(); len(c) != 2 {
		t.Fatalf("U10-2 centroids = %v, want two", c)
	}
}

func TestAutomorphismsKnownValues(t *testing.T) {
	cases := []struct {
		tpl  *Template
		want int64
	}{
		{MustTree("k1", 1, nil, nil), 1},
		{Path(2), 2},
		{Path(3), 2},
		{Path(7), 2},
		{Star(4), 6},   // 3!
		{Star(7), 720}, // 6!
		{Spider(2, 2, 2), 6},
		{Spider(2, 1, 1), 2},
		{MustNamed("U10-2"), 2 * 24 * 24}, // swap centers × 4! leaves each
	}
	for _, c := range cases {
		if got := c.tpl.Automorphisms(); got != c.want {
			t.Errorf("Aut(%s) = %d, want %d", c.tpl.Name(), got, c.want)
		}
	}
}

// TestAutomorphismsSaturate pins the overflow contract: exact up to 20!
// (the largest factorial an int64 holds), saturated at MaxInt64 beyond —
// never wrapped negative. Found by FuzzParse on a 24-leaf near-star.
func TestAutomorphismsSaturate(t *testing.T) {
	if got := Star(21).Automorphisms(); got != 2432902008176640000 { // 20!
		t.Errorf("Aut(S20) = %d, want 20!", got)
	}
	for _, k := range []int{22, 25, 64} {
		if got := Star(k).Automorphisms(); got != math.MaxInt64 {
			t.Errorf("Aut(star %d) = %d, want saturation at MaxInt64", k, got)
		}
		// Oriented stars keep the whole leaf symmetry, so they saturate
		// too, and never wrap negative.
		for _, s := range []*Template{DiStarOut(k), DiStarIn(k)} {
			if got := s.Automorphisms(); got != math.MaxInt64 {
				t.Errorf("Aut(%s) = %d, want saturation at MaxInt64", s.Name(), got)
			}
		}
	}
}

func TestAutomorphismsLabeled(t *testing.T) {
	// A star whose leaves all share a label keeps the full leaf symmetry;
	// distinct leaf labels kill it.
	same, _ := Star(5).WithLabels("s", []int32{0, 1, 1, 1, 1})
	diff, _ := Star(5).WithLabels("d", []int32{0, 1, 2, 3, 4})
	if got := same.Automorphisms(); got != 24 {
		t.Errorf("uniform star aut = %d, want 24", got)
	}
	if got := diff.Automorphisms(); got != 1 {
		t.Errorf("distinct star aut = %d, want 1", got)
	}
	// Two-centroid labeled case: path of 2 with equal vs distinct labels.
	eq, _ := Path(2).WithLabels("e", []int32{3, 3})
	ne, _ := Path(2).WithLabels("n", []int32{3, 4})
	if eq.Automorphisms() != 2 || ne.Automorphisms() != 1 {
		t.Error("labeled P2 automorphisms wrong")
	}
}

// TestAutomorphismsBruteForce cross-checks the divide-and-conquer count
// against brute-force permutation checking on all trees up to 7 vertices.
func TestAutomorphismsBruteForce(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for _, tr := range AllTrees(k) {
			want := bruteAut(tr)
			if got := tr.Automorphisms(); got != want {
				t.Errorf("Aut(%s k=%d) = %d, brute force %d", tr.Name(), k, got, want)
			}
		}
	}
}

func bruteAut(tr *Template) int64 {
	k := tr.K()
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	adj := make(map[[2]int]bool)
	for _, e := range tr.Edges() {
		adj[[2]int{e[0], e[1]}] = true
		adj[[2]int{e[1], e[0]}] = true
	}
	var count int64
	var recurse func(i int)
	used := make([]bool, k)
	cur := make([]int, k)
	recurse = func(i int) {
		if i == k {
			for e := range adj {
				if !adj[[2]int{cur[e[0]], cur[e[1]]}] {
					return
				}
			}
			count++
			return
		}
		for v := 0; v < k; v++ {
			if !used[v] {
				used[v] = true
				cur[i] = v
				recurse(i + 1)
				used[v] = false
			}
		}
	}
	recurse(0)
	return count
}

func TestOrbits(t *testing.T) {
	// P4: ends form one orbit, middles another.
	orbits := Path(4).Orbits()
	if len(orbits) != 2 {
		t.Fatalf("P4 orbits = %v", orbits)
	}
	// Star: center alone, leaves together.
	orbits = Star(6).Orbits()
	if len(orbits) != 2 || len(orbits[0]) != 1 || len(orbits[1]) != 5 {
		t.Fatalf("S6 orbits = %v", orbits)
	}
	// U5-2 central orbit: the degree-3 vertex is alone in its orbit.
	u52 := MustNamed("U5-2")
	var center []int
	for _, o := range u52.Orbits() {
		if u52.Degree(o[0]) == 3 {
			center = o
		}
	}
	if len(center) != 1 {
		t.Fatalf("U5-2 degree-3 orbit = %v, want singleton", center)
	}
}

func TestOrbitSizesSumToK(t *testing.T) {
	for _, tr := range AllTrees(7) {
		total := 0
		for _, o := range tr.Orbits() {
			total += len(o)
		}
		if total != 7 {
			t.Fatalf("%s orbit sizes sum to %d", tr.Name(), total)
		}
	}
}

func TestIsIsomorphic(t *testing.T) {
	if !IsIsomorphic(Path(5), MustTree("p", 5, [][2]int{{4, 2}, {2, 0}, {0, 1}, {1, 3}}, nil)) {
		t.Fatal("relabeled path not recognized")
	}
	if IsIsomorphic(Path(5), Star(5)) {
		t.Fatal("path and star confused")
	}
	if IsIsomorphic(Path(4), Path(5)) {
		t.Fatal("different sizes confused")
	}
}

func TestAllTreesCounts(t *testing.T) {
	want := []int{0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551}
	for k := 1; k <= 12; k++ {
		trees := AllTrees(k)
		if len(trees) != want[k] {
			t.Errorf("AllTrees(%d) = %d trees, want %d", k, len(trees), want[k])
		}
		if NumFreeTrees(k) != want[k] {
			t.Errorf("NumFreeTrees(%d) = %d, want %d", k, NumFreeTrees(k), want[k])
		}
	}
}

func TestAllTreesDistinctAndValid(t *testing.T) {
	trees := AllTrees(9)
	seen := map[string]bool{}
	for _, tr := range trees {
		if tr.K() != 9 {
			t.Fatalf("%s has %d vertices", tr.Name(), tr.K())
		}
		code := tr.CanonicalFree()
		if seen[code] {
			t.Fatalf("duplicate tree %s", tr.Name())
		}
		seen[code] = true
	}
}

func TestAllTreesDeterministicOrder(t *testing.T) {
	a := AllTrees(8)
	b := AllTrees(8)
	for i := range a {
		if a[i].CanonicalFree() != b[i].CanonicalFree() || a[i].Name() != b[i].Name() {
			t.Fatal("AllTrees ordering not deterministic")
		}
	}
}

func TestNamedTemplates(t *testing.T) {
	all := NamedTemplates()
	if len(all) != 10 {
		t.Fatalf("got %d named templates", len(all))
	}
	wantK := map[string]int{
		"U3-1": 3, "U3-2": 3, "U5-1": 5, "U5-2": 5, "U7-1": 7,
		"U7-2": 7, "U10-1": 10, "U10-2": 10, "U12-1": 12, "U12-2": 12,
	}
	for _, tr := range all {
		if tr.K() != wantK[tr.Name()] {
			t.Errorf("%s has %d vertices, want %d", tr.Name(), tr.K(), wantK[tr.Name()])
		}
	}
	if _, err := Named("U99-1"); err == nil {
		t.Fatal("unknown template accepted")
	}
	// Path variants really are paths.
	for _, n := range []string{"U3-1", "U5-1", "U7-1", "U10-1", "U12-1"} {
		tr := MustNamed(n)
		if !IsIsomorphic(tr, Path(tr.K())) {
			t.Errorf("%s is not a path", n)
		}
	}
	// U7-2 must have a nontrivial symmetry, as the paper exploits.
	if MustNamed("U7-2").Automorphisms() < 2 {
		t.Error("U7-2 should be symmetric")
	}
}

func TestWithLabels(t *testing.T) {
	base := Path(3)
	lab, err := base.WithLabels("lab", []int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !lab.Labeled() || lab.Label(1) != 2 || base.Labeled() {
		t.Fatal("WithLabels wrong")
	}
	if _, err := base.WithLabels("bad", []int32{1}); err == nil {
		t.Fatal("bad label count accepted")
	}
}

func TestDotExport(t *testing.T) {
	dot := MustNamed("U5-2").Dot()
	if !strings.Contains(dot, "graph") || strings.Count(dot, "--") != 4 {
		t.Fatalf("malformed template dot:\n%s", dot)
	}
	lab, _ := Path(3).WithLabels("l", []int32{5, 6, 7})
	if !strings.Contains(lab.Dot(), "L6") {
		t.Fatal("labels missing from dot")
	}
}
