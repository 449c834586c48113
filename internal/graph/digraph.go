package graph

import "fmt"

// Digraph is a directed graph in dual-CSR form: both out- and
// in-adjacency are stored, because a directed DP step walks a cut arc in
// whichever direction the template arc points. Vertices are dense int32
// ids; parallel arcs and self-loops are dropped.
type Digraph struct {
	// out and in are one-directional CSRs: out.Adj(v) lists v's
	// out-neighbours and in.Adj(v) its in-neighbours, each sorted and
	// deduplicated.
	out, in *Graph
}

// FromArcs builds a Digraph over n vertices from a directed arc list
// (from, to). Duplicate arcs and self-loops are dropped; both (u, v) and
// (v, u) may coexist (a bidirectional pair).
func FromArcs(n int, arcs [][2]int32) (*Digraph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, a := range arcs {
		if u, v := a[0], a[1]; u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("graph: arc (%d,%d) out of range [0,%d)", u, v, n)
		}
	}
	return &Digraph{out: oneWay(n, arcs, 0), in: oneWay(n, arcs, 1)}, nil
}

// MustFromArcs is FromArcs for known-valid inputs; it panics on error.
func MustFromArcs(n int, arcs [][2]int32) *Digraph {
	g, err := FromArcs(n, arcs)
	if err != nil {
		panic(err)
	}
	return g
}

// oneWay builds the one-directional CSR that files every arc under its
// endpoint a[from] and lists the other endpoint there: from = 0 gives
// out-adjacency, from = 1 in-adjacency. Self-loops are dropped.
func oneWay(n int, arcs [][2]int32, from int) *Graph {
	offsets := make([]int64, n+1)
	for _, a := range arcs {
		if a[0] != a[1] {
			offsets[a[from]+1]++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]int32, offsets[n])
	fill := append([]int64(nil), offsets[:n]...)
	for _, a := range arcs {
		if a[0] != a[1] {
			adj[fill[a[from]]] = a[1-from]
			fill[a[from]]++
		}
	}
	g := &Graph{offsets: offsets, adj: adj}
	g.sortAndDedup()
	return g
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.out.N() }

// A returns the number of arcs.
func (g *Digraph) A() int64 { return int64(len(g.out.adj)) }

// Out returns v's out-neighbours (v → u). Do not modify.
func (g *Digraph) Out(v int32) []int32 { return g.out.Adj(v) }

// In returns v's in-neighbours (u → v). Do not modify.
func (g *Digraph) In(v int32) []int32 { return g.in.Adj(v) }

// HasArc reports whether the arc u → v exists.
func (g *Digraph) HasArc(u, v int32) bool { return g.out.HasEdge(u, v) }

// OutCSR returns the out-adjacency as a Graph whose Adj(v) is Out(v),
// and InCSR the in-adjacency likewise. These Graphs are one-directional,
// not undirected: only N, Degree and Adj are meaningful on them (M
// counts half the arcs and Validate fails). They let the DP engine and
// the exact searcher walk either side of the digraph through the CSR
// accessors they already use.
func (g *Digraph) OutCSR() *Graph { return g.out }

// InCSR returns the in-adjacency; see OutCSR.
func (g *Digraph) InCSR() *Graph { return g.in }

// Underlying returns the undirected graph obtained by forgetting arc
// directions (a bidirectional pair collapses to one edge).
func (g *Digraph) Underlying() *Graph {
	edges := make([][2]int32, 0, g.A())
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Out(u) {
			edges = append(edges, [2]int32{u, v})
		}
	}
	return MustFromEdges(g.N(), edges, nil)
}
