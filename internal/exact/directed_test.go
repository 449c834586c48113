package exact

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tmpl"
)

func TestExactDirectedPathCounts(t *testing.T) {
	// Directed cycle 0→1→2→3→0: directed P3 (a→b→c) occurs 4 times;
	// in-star S3 (two arcs into a center) occurs 0 times.
	g := graph.MustFromArcs(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if got := CountDirected(g, tmpl.DiPath(3)); got != 4 {
		t.Fatalf("directed P3 in C4 = %d, want 4", got)
	}
	if got := CountDirected(g, tmpl.DiStarIn(3)); got != 0 {
		t.Fatalf("in-star in directed cycle = %d, want 0", got)
	}
	// Reversing the graph turns out-stars into in-stars.
	h := graph.MustFromArcs(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	if CountDirected(h, tmpl.DiStarOut(4)) != 1 || CountDirected(h, tmpl.DiStarIn(4)) != 0 {
		t.Fatal("star orientation confused")
	}
}

func TestDirectedVsUndirectedConsistency(t *testing.T) {
	// On a digraph whose arcs all exist in both directions, directed
	// counting of any orientation equals undirected counting of the
	// skeleton (mapping-for-mapping).
	arcs := [][2]int32{}
	undirected := [][2]int32{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {2, 4}}
	for _, e := range undirected {
		arcs = append(arcs, e, [2]int32{e[1], e[0]})
	}
	g := graph.MustFromArcs(5, arcs)
	dt := tmpl.DiPath(3)
	// Every undirected P3 mapping respects any orientation here.
	if got, want := CountMappingsDirected(g, dt), int64(2*countUndirectedP3(undirected, 5)); got != want {
		t.Fatalf("bidirectional digraph P3 mappings = %d, want %d", got, want)
	}
}

func countUndirectedP3(edges [][2]int32, n int) int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	total := 0
	for _, d := range deg {
		total += d * (d - 1) / 2
	}
	return total
}
