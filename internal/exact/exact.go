// Package exact provides exhaustive (exponential-time) counting and
// enumeration of non-induced template occurrences by ordered
// backtracking. Templates may be arbitrary connected graphs: tree edges
// guide the search (each vertex after the first extends from its BFS
// parent's adjacency) and the remaining template edges are enforced as
// back-edge checks against already-placed vertices. Oriented tree
// templates on digraphs run the same search, each vertex extending along
// its parent image's out- or in-arcs as the template arc points. The
// package serves two roles in the reproduction: the paper's "naïve exact
// count" baseline used in the error and comparison experiments, and the
// ground-truth oracle for validating the color-coding dynamic programs
// (including exact colorful-count equivalence under a fixed coloring).
// For the size-3/4 motif zoo, motifs.go supplies independent
// closed-form counters cross-checked against the searcher.
package exact

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tmpl"
)

// searcher holds the state of one backtracking run.
type searcher struct {
	g     *graph.Graph
	t     *tmpl.Template
	order []int // template vertices in BFS order from vertex 0
	par   []int // par[i]: position in order of the BFS parent of order[i]
	// ext[i] is the adjacency order[i]'s image is drawn from, read at its
	// BFS parent's image: g itself for an undirected search; for an
	// oriented template on a digraph, the out-arc CSR when the template
	// arc points from the parent to order[i] and the in-arc CSR otherwise.
	ext []*graph.Graph

	// backChecks[i]: positions of earlier-placed template neighbors of
	// order[i] other than its BFS parent. Empty at every position for tree
	// templates; for templates with cycles these carry the non-tree edges.
	backChecks [][]int

	assign []int32 // assign[i]: graph vertex for order[i]
	used   map[int32]bool

	colors   []int8 // when non-nil, only count rainbow (colorful) mappings
	colorBit uint64

	count int64
	visit func(mapping []int32) bool // optional; return false to stop
	stop  bool
}

func newSearcher(g *graph.Graph, t *tmpl.Template) *searcher {
	k := t.K()
	s := &searcher{
		g:      g,
		t:      t,
		order:  make([]int, 0, k),
		par:    make([]int, k),
		ext:    make([]*graph.Graph, k),
		assign: make([]int32, k),
		used:   make(map[int32]bool, k),
	}
	// BFS order over the template so each vertex (after the first) has
	// its parent already placed.
	seen := make([]bool, k)
	s.order = append(s.order, 0)
	seen[0] = true
	s.par[0] = -1
	for i := 0; i < len(s.order); i++ {
		v := s.order[i]
		s.ext[i] = g
		for _, u := range t.Adj(v) {
			if !seen[u] {
				seen[u] = true
				s.par[len(s.order)] = i
				s.order = append(s.order, int(u))
			}
		}
	}
	// Record every template edge not covered by the BFS tree as a back
	// check at the later endpoint's position.
	s.backChecks = make([][]int, k)
	pos := make([]int, k)
	for i, v := range s.order {
		pos[v] = i
	}
	for i, v := range s.order {
		for _, u := range t.Adj(v) {
			if j := pos[u]; j < i && j != s.par[i] {
				s.backChecks[i] = append(s.backChecks[i], j)
			}
		}
	}
	return s
}

// newDirectedSearcher prepares a search for an oriented tree template
// on a digraph: each template arc a → b must map onto a graph arc, so a
// vertex whose arc points away from its BFS parent extends along the
// parent image's out-arcs, and one whose arc points at it along the
// in-arcs.
func newDirectedSearcher(g *graph.Digraph, t *tmpl.Template) *searcher {
	if !t.Oriented() {
		panic(fmt.Sprintf("exact: directed search needs an oriented template, got %s", t.Name()))
	}
	s := newSearcher(g.OutCSR(), t)
	for i := 1; i < len(s.order); i++ {
		if !t.HasArc(s.order[s.par[i]], s.order[i]) {
			s.ext[i] = g.InCSR()
		}
	}
	return s
}

func (s *searcher) labelOK(tv int, gv int32) bool {
	return !s.t.Labeled() || s.g.Label(gv) == s.t.Label(tv)
}

func (s *searcher) recurse(pos int) {
	if s.stop {
		return
	}
	k := s.t.K()
	if pos == k {
		s.count++
		if s.visit != nil {
			m := make([]int32, k)
			for i, tv := range s.order {
				m[tv] = s.assign[i]
			}
			if !s.visit(m) {
				s.stop = true
			}
		}
		return
	}
	tv := s.order[pos]
	try := func(gv int32) {
		if s.used[gv] || !s.labelOK(tv, gv) {
			return
		}
		for _, j := range s.backChecks[pos] {
			if !s.g.HasEdge(gv, s.assign[j]) {
				return
			}
		}
		if s.colors != nil {
			bit := uint64(1) << uint(s.colors[gv])
			if s.colorBit&bit != 0 {
				return
			}
			s.colorBit |= bit
			defer func() { s.colorBit &^= bit }()
		}
		s.used[gv] = true
		s.assign[pos] = gv
		s.recurse(pos + 1)
		delete(s.used, gv)
	}
	if pos == 0 {
		for gv := int32(0); gv < int32(s.g.N()); gv++ {
			try(gv)
			if s.stop {
				return
			}
		}
		return
	}
	parent := s.assign[s.par[pos]]
	for _, gv := range s.ext[pos].Adj(parent) {
		try(gv)
		if s.stop {
			return
		}
	}
}

// CountMappings returns the exact number of injective homomorphisms
// (mappings) of the template into g. Each non-induced occurrence is
// counted once per automorphism of the template.
func CountMappings(g *graph.Graph, t *tmpl.Template) int64 {
	s := newSearcher(g, t)
	s.recurse(0)
	return s.count
}

// Count returns the exact number of non-induced occurrences of the
// template in g: CountMappings divided by |Aut(T)|.
func Count(g *graph.Graph, t *tmpl.Template) int64 {
	return perAut(CountMappings(g, t), t)
}

// perAut divides a mapping count by |Aut(T)|, the number of mappings
// per occurrence.
func perAut(m int64, t *tmpl.Template) int64 {
	aut := t.Automorphisms()
	if m%aut != 0 {
		// Cannot happen for correct automorphism counts; guard loudly.
		panic(fmt.Sprintf("exact: mapping count %d not divisible by aut %d", m, aut))
	}
	return m / aut
}

// CountMappingsDirected returns the exact number of injective
// direction-preserving mappings of the oriented tree template t into
// the digraph g: each template arc a → b must map onto a graph arc.
func CountMappingsDirected(g *graph.Digraph, t *tmpl.Template) int64 {
	s := newDirectedSearcher(g, t)
	s.recurse(0)
	return s.count
}

// CountDirected returns the exact number of non-induced
// direction-preserving occurrences of t in g: CountMappingsDirected
// divided by the direction-preserving automorphism count.
func CountDirected(g *graph.Digraph, t *tmpl.Template) int64 {
	return perAut(CountMappingsDirected(g, t), t)
}

// CountColorfulMappingsDirected is CountColorfulMappings for an oriented
// template on a digraph: the oracle of the directed DP's per-iteration
// total.
func CountColorfulMappingsDirected(g *graph.Digraph, t *tmpl.Template, colors []int8) int64 {
	if len(colors) != g.N() {
		panic("exact: coloring length mismatch")
	}
	s := newDirectedSearcher(g, t)
	s.colors = colors
	s.recurse(0)
	return s.count
}

// CountColorfulMappings returns the exact number of mappings whose image
// vertices all have distinct colors under the given coloring — the
// ground truth for the color-coding DP's per-iteration total. colors must
// assign each graph vertex a color in [0, 64).
func CountColorfulMappings(g *graph.Graph, t *tmpl.Template, colors []int8) int64 {
	if len(colors) != g.N() {
		panic("exact: coloring length mismatch")
	}
	s := newSearcher(g, t)
	s.colors = colors
	s.recurse(0)
	return s.count
}

// CountRootedMappings returns, per graph vertex v, the number of mappings
// that send template vertex root to v — the exact analogue of the DP's
// per-vertex root-table sums (used by graphlet-degree ground truth).
func CountRootedMappings(g *graph.Graph, t *tmpl.Template, root int) []int64 {
	out := make([]int64, g.N())
	s := newSearcher(g, t)
	s.visit = func(m []int32) bool {
		out[m[root]]++
		return true
	}
	s.recurse(0)
	return out
}

// Enumerate calls visit for every mapping of the template into g, until
// visit returns false. The mapping slice passed to visit is owned by the
// callback (a fresh copy per call); mapping[i] is the graph vertex of
// template vertex i.
func Enumerate(g *graph.Graph, t *tmpl.Template, visit func(mapping []int32) bool) {
	s := newSearcher(g, t)
	s.visit = visit
	s.recurse(0)
}

// CountInducedMappings returns the number of injective mappings of the
// template whose image is an induced copy: no graph edge may exist
// between image vertices beyond those required by the template (the
// distinction of the paper's Figure 1; color coding itself counts
// non-induced occurrences).
func CountInducedMappings(g *graph.Graph, t *tmpl.Template) int64 {
	var count int64
	s := newSearcher(g, t)
	required := make(map[[2]int]bool, t.K()-1)
	for _, e := range t.Edges() {
		required[[2]int{e[0], e[1]}] = true
		required[[2]int{e[1], e[0]}] = true
	}
	s.visit = func(m []int32) bool {
		for a := 0; a < t.K(); a++ {
			for b := a + 1; b < t.K(); b++ {
				if !required[[2]int{a, b}] && g.HasEdge(m[a], m[b]) {
					return true // extra edge: not induced
				}
			}
		}
		count++
		return true
	}
	s.recurse(0)
	return count
}

// CountInduced returns the exact number of induced occurrences of the
// template: CountInducedMappings divided by |Aut(T)|.
func CountInduced(g *graph.Graph, t *tmpl.Template) int64 {
	m := CountInducedMappings(g, t)
	aut := t.Automorphisms()
	if m%aut != 0 {
		panic(fmt.Sprintf("exact: induced mapping count %d not divisible by aut %d", m, aut))
	}
	return m / aut
}
