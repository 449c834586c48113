package fascia

import (
	"context"

	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tmpl"
)

// DiGraph is a directed graph with out- and in-adjacency (dual CSR).
type DiGraph = graph.Digraph

// DiTemplate is a directed tree template: a Template whose every edge
// carries an orientation (Template.HasArc, Template.Arcs).
type DiTemplate = tmpl.Template

// NewDiGraph builds a directed graph over n vertices from (from, to)
// arcs; duplicates and self-loops are dropped.
func NewDiGraph(n int, arcs [][2]int32) (*DiGraph, error) {
	return graph.FromArcs(n, arcs)
}

// RandomDiGraph generates a seeded uniform random digraph.
func RandomDiGraph(n int, arcs int64, seed int64) *DiGraph {
	return gen.RandomDigraph(n, arcs, seed)
}

// NewDiTemplate builds a directed tree template from arcs whose
// underlying edges form a tree on k vertices.
func NewDiTemplate(name string, k int, arcs [][2]int) (*DiTemplate, error) {
	return tmpl.NewDiTree(name, k, arcs)
}

// DiPathTemplate returns the directed path 0→1→…→k-1.
func DiPathTemplate(k int) *DiTemplate { return tmpl.DiPath(k) }

// DiStarOutTemplate returns the out-star (center 0, arcs to leaves).
func DiStarOutTemplate(k int) *DiTemplate { return tmpl.DiStarOut(k) }

// DiStarInTemplate returns the in-star (arcs from leaves into center 0).
func DiStarInTemplate(k int) *DiTemplate { return tmpl.DiStarIn(k) }

// CountDirected estimates the number of non-induced direction-preserving
// occurrences of the directed tree template t in g — the directed variant
// of color coding the paper notes as possible but does not analyze
// (§II-C). It runs the same engine as CountContext, so every option
// applies except ShareSubtemplates, which directed counting ignores, and
// KeepTables, which it refuses. An unoriented template is an error; count
// it on an undirected graph with Count.
func CountDirected(g *DiGraph, t *DiTemplate, opt Options) (Result, error) {
	cfg, err := opt.config()
	if err != nil {
		return Result{}, err
	}
	e, err := dp.NewDirected(g, t, cfg)
	if err != nil {
		return Result{}, err
	}
	return (&Engine{inner: e, timeout: opt.Timeout}).count(context.Background(), t.K(), opt)
}

// ExactCountDirected returns the exact directed occurrence count by
// exhaustive backtracking (exponential; small graphs only).
func ExactCountDirected(g *DiGraph, t *DiTemplate) int64 {
	return exact.CountDirected(g, t)
}
