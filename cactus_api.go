package fascia

import (
	"fmt"

	"repro/internal/exact"
	"repro/internal/tmpl"
)

// CactusTemplate is a "tree-like template with triangles" (§I/§II-C of
// the paper): a connected template whose biconnected blocks are single
// edges or triangles. It is an ordinary Template, counted by the
// tree-decomposition DP every non-tree template runs.
type CactusTemplate = Template

// NewCactusTemplate builds a template from an undirected edge list over
// vertices 0..k-1 and rejects it unless it is a triangle cactus.
func NewCactusTemplate(name string, k int, edges [][2]int) (*CactusTemplate, error) {
	t, err := tmpl.NewGraph(name, k, edges, nil)
	if err != nil {
		return nil, err
	}
	if err := t.CheckCactus(); err != nil {
		return nil, err
	}
	return t, nil
}

// TriangleTemplate returns the 3-cycle template.
func TriangleTemplate() *CactusTemplate { return tmpl.Triangle() }

// TailedTriangleTemplate returns a triangle 0-1-2 with a path of tail
// vertices attached to vertex 0.
func TailedTriangleTemplate(tail int) *CactusTemplate {
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	prev := 0
	for i := 0; i < tail; i++ {
		edges = append(edges, [2]int{prev, 3 + i})
		prev = 3 + i
	}
	// One cycle: as many vertices as edges.
	return tmpl.MustGraph(fmt.Sprintf("tailed-triangle-%d", tail), len(edges), edges, nil)
}

// CountCactus estimates the number of non-induced occurrences of a
// triangle-cactus template. It is Count, kept for the paper's "tree-like
// graph templates with triangles" entry point.
func CountCactus(g *Graph, t *CactusTemplate, opt Options) (Result, error) {
	return Count(g, t, opt)
}

// ExactCountCactus returns the exact occurrence count of a cactus
// template by exhaustive backtracking (small graphs only).
func ExactCountCactus(g *Graph, t *CactusTemplate) int64 {
	return exact.Count(g, t)
}
