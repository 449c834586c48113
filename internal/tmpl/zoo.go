package tmpl

import (
	"fmt"
	"strconv"
	"strings"
)

// This file defines the size-3/4 motif zoo — the non-tree templates that
// dominate classical network-motif analysis — and the extended parser
// that accepts cycle/clique notation and general edge lists. Every zoo
// template has a matching closed-form counter in internal/exact
// (CountMotif), which serves as both an O(m·d) fast path and the
// independent oracle of the beyond-trees differential matrix.

// Cycle returns the cycle template C_k on k >= 3 vertices
// (0-1-...-(k-1)-0). Its treewidth is 2.
func Cycle(k int) (*Template, error) {
	if k < 3 {
		return nil, fmt.Errorf("tmpl: a cycle needs at least 3 vertices, got %d", k)
	}
	if k > 64 {
		return nil, fmt.Errorf("tmpl: template size %d unsupported (max 64)", k)
	}
	edges := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		edges = append(edges, [2]int{i, (i + 1) % k})
	}
	return NewGraph(fmt.Sprintf("C%d", k), k, edges, nil)
}

// maxCliqueK bounds clique templates: K_k has treewidth k-1, and the bag
// DP supports bags of at most maxBagVerts vertices (see Decompose), so
// only K_3 and K_4 are countable today. The parser still builds larger
// cliques so the decomposition's treewidth rejection is exercised end to
// end, but caps them well below 64 to keep hostile inputs cheap.
const maxCliqueK = 16

// Clique returns the complete template K_k on k >= 3 vertices. K_3 and
// K_4 run through the bag DP; larger cliques parse but are rejected at
// decomposition time (treewidth k-1).
func Clique(k int) (*Template, error) {
	if k < 3 {
		return nil, fmt.Errorf("tmpl: a clique needs at least 3 vertices, got %d", k)
	}
	if k > maxCliqueK {
		return nil, fmt.Errorf("tmpl: clique size %d unsupported (max %d)", k, maxCliqueK)
	}
	edges := make([][2]int, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return NewGraph(fmt.Sprintf("K%d", k), k, edges, nil)
}

// Triangle returns the 3-cycle C_3 = K_3.
func Triangle() *Template {
	t, _ := Cycle(3)
	t.name = "triangle"
	return t
}

// Diamond returns the chordal 4-cycle (K_4 minus one edge): vertices 0,1
// form the chord, each adjacent to both 2 and 3. |Aut| = 4.
func Diamond() *Template {
	return MustGraph("diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}}, nil)
}

// TailedTriangle returns the "paw": a triangle 0-1-2 with a pendant
// vertex 3 attached to 0. |Aut| = 2 (swapping 1 and 2).
func TailedTriangle() *Template {
	return MustGraph("tailed-triangle", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}}, nil)
}

// CheckCactus returns an error unless t is a triangle cactus, the
// paper's "tree-like template with triangles": every biconnected block
// is a single edge or a triangle. A connected template is one exactly
// when no edge lies in two triangles and the triangles span its cycle
// space, that is, their count equals the cyclomatic number m-k+1.
func (t *Template) CheckCactus() error {
	triangles := 0
	for _, e := range t.Edges() {
		shared := 0
		for _, w := range t.adj[e[0]] {
			if t.HasEdge(int(w), e[1]) {
				shared++
			}
		}
		if shared > 1 {
			return fmt.Errorf("tmpl: %s is not a triangle cactus: edge %d-%d lies in %d triangles", t.name, e[0], e[1], shared)
		}
		triangles += shared
	}
	triangles /= 3 // each triangle was seen from its three edges
	if cyc := t.NumEdges() - t.K() + 1; cyc != triangles {
		return fmt.Errorf("tmpl: %s is not a triangle cactus: cyclomatic number %d but %d triangles", t.name, cyc, triangles)
	}
	return nil
}

// ZooNames lists the size-3/4 motif zoo in canonical order. Each name is
// accepted by Zoo, ParseGraph, and exact.CountMotif.
func ZooNames() []string {
	return []string{"triangle", "path3", "star3", "c4", "diamond", "tailed-triangle", "k4"}
}

// Zoo returns the named motif-zoo template: "triangle" (C3), "path3"
// (the 3-vertex path), "star3" (the claw K_{1,3} on 4 vertices), "c4"
// (the 4-cycle), "diamond" (chordal 4-cycle), "tailed-triangle" (the
// paw), and "k4" (the 4-clique).
func Zoo(name string) (*Template, error) {
	switch name {
	case "triangle":
		return Triangle(), nil
	case "path3":
		return Path(3), nil
	case "star3":
		return Star(4), nil
	case "c4":
		t, err := Cycle(4)
		if err != nil {
			return nil, err
		}
		t.name = "c4"
		return t, nil
	case "diamond":
		return Diamond(), nil
	case "tailed-triangle", "paw":
		return TailedTriangle(), nil
	case "k4":
		t, err := Clique(4)
		if err != nil {
			return nil, err
		}
		t.name = "k4"
		return t, nil
	}
	return nil, fmt.Errorf("tmpl: unknown zoo motif %q (want one of %s)", name, strings.Join(ZooNames(), ", "))
}

// MustZoo is Zoo for known-valid names; it panics on error.
func MustZoo(name string) *Template {
	t, err := Zoo(name)
	if err != nil {
		panic(err)
	}
	return t
}

// ParseGraph builds a (possibly non-tree) template from a spec string:
// a zoo motif name ("triangle", "c4", "diamond", "tailed-triangle",
// "k4", ...), cycle notation "cK" / "cycle:K", clique notation "kK" /
// "clique:K", or a general edge list such as "0-1 1-2 2-0". Tree specs
// yield tree templates, so ParseGraph is a strict superset of Parse.
func ParseGraph(name, s string) (*Template, error) {
	spec := strings.TrimSpace(s)
	if spec == "" {
		return nil, fmt.Errorf("tmpl: empty template spec")
	}
	lower := strings.ToLower(spec)
	if t, err := Zoo(lower); err == nil {
		if name != "" {
			t.name = name
		}
		return t, nil
	}
	if k, ok := notationSize(lower, "c", "cycle:"); ok {
		t, err := Cycle(k)
		if err != nil {
			return nil, err
		}
		if name != "" {
			t.name = name
		}
		return t, nil
	}
	if k, ok := notationSize(lower, "k", "clique:"); ok {
		t, err := Clique(k)
		if err != nil {
			return nil, err
		}
		if name != "" {
			t.name = name
		}
		return t, nil
	}
	edges, k, err := scanEdges(spec)
	if err != nil {
		return nil, err
	}
	return NewGraph(name, k, edges, nil)
}

// notationSize matches "c5"/"cycle:5"-style compact notation and returns
// the size. A bare short prefix with a valid integer is required; other
// strings fall through to edge-list parsing.
func notationSize(spec, short, long string) (int, bool) {
	var num string
	switch {
	case strings.HasPrefix(spec, long):
		num = strings.TrimPrefix(spec, long)
	case strings.HasPrefix(spec, short) && len(spec) > len(short):
		num = strings.TrimPrefix(spec, short)
	default:
		return 0, false
	}
	k, err := strconv.Atoi(num)
	if err != nil {
		return 0, false
	}
	return k, true
}
