// Package tmpl implements templates for subgraph counting: template
// construction and validation (trees and general connected graphs up to
// small treewidth, and oriented trees for directed counting), the
// paper's named templates (U3-1 ... U12-2), the
// size-3/4 motif zoo (cycles, cliques, diamond, tailed triangle), nice
// tree decompositions for the beyond-trees DP, AHU canonical forms for
// rooted and free trees, automorphism and orbit computation (tree
// specializations plus a general orbit-stabilizer fallback), and
// exhaustive enumeration of all free trees of a given size for motif
// finding.
package tmpl

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Template is an undirected connected graph on K() vertices numbered
// 0..K()-1. Most templates are trees (the paper's case); NewGraph also
// admits connected non-tree templates, which the engine counts via a
// tree decomposition of the template. Labels, when non-nil, assigns an
// integer label per template vertex for labeled counting. An oriented
// template (NewDiTree) is a tree that also fixes a direction on every
// edge, for counting in directed graphs. Templates are immutable after
// construction.
type Template struct {
	name   string
	adj    [][]int8
	labels []int32
	tree   bool
	// out, when non-nil, orients the template: bit b of out[a] is set
	// when the template has the arc a → b.
	out []uint64
}

// NewTree builds a template from an undirected edge list over vertices
// 0..k-1 and verifies it is a tree (connected, acyclic, no self-loops or
// duplicate edges). labels may be nil or have length k.
func NewTree(name string, k int, edges [][2]int, labels []int32) (*Template, error) {
	if k >= 1 && len(edges) != k-1 {
		return nil, fmt.Errorf("tmpl: a tree on %d vertices needs %d edges, got %d", k, k-1, len(edges))
	}
	return NewGraph(name, k, edges, labels)
}

// NewGraph builds a template from an undirected edge list over vertices
// 0..k-1 and verifies it is a simple connected graph (no self-loops or
// duplicate edges). Tree templates run the classic partition-tree DP;
// non-tree templates run the tree-decomposition DP and must have small
// treewidth (see Decompose). labels may be nil or have length k.
func NewGraph(name string, k int, edges [][2]int, labels []int32) (*Template, error) {
	if k < 1 {
		return nil, fmt.Errorf("tmpl: template must have at least 1 vertex, got %d", k)
	}
	if k > 64 {
		return nil, fmt.Errorf("tmpl: template size %d unsupported (max 64)", k)
	}
	if labels != nil && len(labels) != k {
		return nil, fmt.Errorf("tmpl: %d labels for %d vertices", len(labels), k)
	}
	adj := make([][]int8, k)
	seen := map[[2]int]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= k || v >= k {
			return nil, fmt.Errorf("tmpl: edge (%d,%d) out of range [0,%d)", u, v, k)
		}
		if u == v {
			return nil, fmt.Errorf("tmpl: self-loop at %d", u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("tmpl: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		adj[u] = append(adj[u], int8(v))
		adj[v] = append(adj[v], int8(u))
	}
	t := &Template{name: name, adj: adj, tree: len(edges) == k-1}
	if labels != nil {
		t.labels = append([]int32(nil), labels...)
	}
	// Connectivity; with exactly k-1 edges it also certifies tree-ness.
	visited := make([]bool, k)
	stack := []int8{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !visited[u] {
				visited[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	if count != k {
		return nil, fmt.Errorf("tmpl: template is not connected (%d of %d vertices reachable)", count, k)
	}
	return t, nil
}

// NewDiTree builds an oriented tree template from arcs (from, to) whose
// underlying edges must form a tree on k vertices: every edge carries
// exactly the direction its arc gives it.
func NewDiTree(name string, k int, arcs [][2]int) (*Template, error) {
	t, err := NewTree(name, k, arcs, nil)
	if err != nil {
		return nil, err
	}
	t.out = make([]uint64, k)
	for _, a := range arcs {
		t.out[a[0]] |= 1 << uint(a[1])
	}
	return t, nil
}

// MustDiTree is NewDiTree for statically known-valid inputs; it panics
// on error.
func MustDiTree(name string, k int, arcs [][2]int) *Template {
	t, err := NewDiTree(name, k, arcs)
	if err != nil {
		panic(err)
	}
	return t
}

// MustTree is NewTree for statically known-valid inputs; it panics on
// error.
func MustTree(name string, k int, edges [][2]int, labels []int32) *Template {
	t, err := NewTree(name, k, edges, labels)
	if err != nil {
		panic(err)
	}
	return t
}

// MustGraph is NewGraph for statically known-valid inputs; it panics on
// error.
func MustGraph(name string, k int, edges [][2]int, labels []int32) *Template {
	t, err := NewGraph(name, k, edges, labels)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the number of template vertices.
func (t *Template) K() int { return len(t.adj) }

// Name returns the template's display name.
func (t *Template) Name() string { return t.name }

// Adj returns the neighbors of template vertex v. The slice aliases
// internal storage and must not be modified.
func (t *Template) Adj(v int) []int8 { return t.adj[v] }

// Degree returns the degree of template vertex v.
func (t *Template) Degree(v int) int { return len(t.adj[v]) }

// Labeled reports whether the template carries vertex labels.
func (t *Template) Labeled() bool { return t.labels != nil }

// IsTree reports whether the template is acyclic. Tree templates run the
// classic partition-tree DP; non-tree templates run the bag DP over a
// tree decomposition.
func (t *Template) IsTree() bool { return t.tree }

// NumEdges returns the number of template edges (K()-1 for trees).
func (t *Template) NumEdges() int {
	deg := 0
	for v := range t.adj {
		deg += len(t.adj[v])
	}
	return deg / 2
}

// HasEdge reports whether template vertices u and v are adjacent.
func (t *Template) HasEdge(u, v int) bool {
	for _, w := range t.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Oriented reports whether the template fixes a direction on every edge
// (NewDiTree).
func (t *Template) Oriented() bool { return t.out != nil }

// HasArc reports whether the oriented template contains the arc a → b;
// it is false for every pair of an unoriented template.
func (t *Template) HasArc(a, b int) bool {
	return t.out != nil && t.out[a]>>uint(b)&1 != 0
}

// Arcs returns the arcs (from, to) of an oriented template in ascending
// order, and nil for an unoriented one.
func (t *Template) Arcs() [][2]int {
	if t.out == nil {
		return nil
	}
	out := make([][2]int, 0, t.K()-1)
	for a := range t.out {
		for b := range t.adj {
			if t.HasArc(a, b) {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// Label returns the label of template vertex v (0 when unlabeled).
func (t *Template) Label(v int) int32 {
	if t.labels == nil {
		return 0
	}
	return t.labels[v]
}

// Edges returns each template edge once with smaller endpoint first.
func (t *Template) Edges() [][2]int {
	out := make([][2]int, 0, t.NumEdges())
	for v := range t.adj {
		for _, u := range t.adj[v] {
			if v < int(u) {
				out = append(out, [2]int{v, int(u)})
			}
		}
	}
	return out
}

// WithLabels returns a copy of t carrying the given vertex labels, and
// t's arc directions when t is oriented.
func (t *Template) WithLabels(name string, labels []int32) (*Template, error) {
	c, err := NewGraph(name, t.K(), t.Edges(), labels)
	if err != nil {
		return nil, err
	}
	c.out = t.out
	return c, nil
}

// String renders the template as its name and edge list.
func (t *Template) String() string {
	var sb strings.Builder
	if t.name != "" {
		sb.WriteString(t.name)
		sb.WriteByte(' ')
	}
	fmt.Fprintf(&sb, "k=%d", t.K())
	for _, e := range t.Edges() {
		fmt.Fprintf(&sb, " %d-%d", e[0], e[1])
	}
	return sb.String()
}

// scanEdges parses a compact edge-list string such as "0-1 1-2 1-3" into
// an edge list; the implied vertex count is max id + 1.
func scanEdges(s string) (edges [][2]int, k int, err error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, 0, fmt.Errorf("tmpl: empty template spec")
	}
	edges = make([][2]int, 0, len(fields))
	for _, f := range fields {
		parts := strings.Split(f, "-")
		if len(parts) != 2 {
			return nil, 0, fmt.Errorf("tmpl: malformed edge %q (want u-v)", f)
		}
		u, err1 := strconv.Atoi(parts[0])
		v, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, 0, fmt.Errorf("tmpl: malformed edge %q", f)
		}
		edges = append(edges, [2]int{u, v})
		if u+1 > k {
			k = u + 1
		}
		if v+1 > k {
			k = v + 1
		}
	}
	return edges, k, nil
}

// Parse builds a tree template from a compact edge-list string such as
// "0-1 1-2 1-3". Vertex count is max id + 1. Edge lists with cycles are
// rejected; use ParseGraph for general templates.
func Parse(name, s string) (*Template, error) {
	edges, k, err := scanEdges(s)
	if err != nil {
		return nil, err
	}
	return NewTree(name, k, edges, nil)
}

// Path returns the path template on k vertices (0-1-2-...-k-1).
func Path(k int) *Template {
	edges := make([][2]int, 0, k-1)
	for i := 0; i < k-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return MustTree(fmt.Sprintf("P%d", k), k, edges, nil)
}

// Star returns the star template on k vertices (vertex 0 is the center).
func Star(k int) *Template {
	edges := make([][2]int, 0, k-1)
	for i := 1; i < k; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return MustTree(fmt.Sprintf("S%d", k), k, edges, nil)
}

// DiPath returns the directed path 0→1→…→k-1.
func DiPath(k int) *Template {
	arcs := make([][2]int, 0, k-1)
	for i := 0; i < k-1; i++ {
		arcs = append(arcs, [2]int{i, i + 1})
	}
	return MustDiTree(fmt.Sprintf("DP%d", k), k, arcs)
}

// DiStarOut returns the out-star: center 0 with arcs to k-1 leaves.
func DiStarOut(k int) *Template {
	arcs := make([][2]int, 0, k-1)
	for i := 1; i < k; i++ {
		arcs = append(arcs, [2]int{0, i})
	}
	return MustDiTree(fmt.Sprintf("DSout%d", k), k, arcs)
}

// DiStarIn returns the in-star: k-1 leaves with arcs into center 0.
func DiStarIn(k int) *Template {
	arcs := make([][2]int, 0, k-1)
	for i := 1; i < k; i++ {
		arcs = append(arcs, [2]int{i, 0})
	}
	return MustDiTree(fmt.Sprintf("DSin%d", k), k, arcs)
}

// RandomDiTemplate returns a seeded random oriented tree on k vertices:
// vertex v >= 1 attaches to a uniform earlier vertex, by an arc of
// uniform direction.
func RandomDiTemplate(k int, seed int64) *Template {
	rng := rand.New(rand.NewSource(seed))
	arcs := make([][2]int, 0, k-1)
	for v := 1; v < k; v++ {
		p := rng.Intn(v)
		if rng.Intn(2) == 0 {
			arcs = append(arcs, [2]int{p, v})
		} else {
			arcs = append(arcs, [2]int{v, p})
		}
	}
	return MustDiTree(fmt.Sprintf("DR%d", k), k, arcs)
}

// Spider returns a spider: vertex 0 is the center and one path of each
// given length is attached to it.
func Spider(lengths ...int) *Template {
	k := 1
	for _, l := range lengths {
		if l < 1 {
			panic("tmpl: spider leg length must be >= 1")
		}
		k += l
	}
	edges := make([][2]int, 0, k-1)
	next := 1
	for _, l := range lengths {
		prev := 0
		for i := 0; i < l; i++ {
			edges = append(edges, [2]int{prev, next})
			prev = next
			next++
		}
	}
	name := "spider"
	for _, l := range lengths {
		name += fmt.Sprintf("-%d", l)
	}
	return MustTree(name, k, edges, nil)
}

// Dot renders the template in Graphviz DOT format (labels shown when
// present), for documentation and debugging.
func (t *Template) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n", t.name)
	for v := 0; v < t.K(); v++ {
		if t.Labeled() {
			fmt.Fprintf(&sb, "  %d [label=\"%d (L%d)\"];\n", v, v, t.Label(v))
		} else {
			fmt.Fprintf(&sb, "  %d;\n", v)
		}
	}
	for _, e := range t.Edges() {
		fmt.Fprintf(&sb, "  %d -- %d;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}
