package dp

import (
	"repro/internal/part"
	"repro/internal/table"
)

// laneTab is the read surface the lane kernels (and embedding sampling,
// at lane 0) consume: either a real lane-strided table (*table.Multi) or
// the implicit lane table of a leaf (*leafLanes). Internal nodes always
// materialize; non-root leaves do not — their cell values are a pure
// function of the coloring.
type laneTab interface {
	passiveRows
	Has(v int32) bool
	Get(v, ci int32, lane int) float64
	MaterializeRow(v int32, dst []float64) []float64
}

// passiveRows is all the lane kernels read of a passive child: the sum
// of its neighbors' lane rows, one row of the adjacency × passive-table
// product. A rank pass serves it from rankTab.
type passiveRows interface {
	AccumulateRows(vs []int32, dst []float64)
}

var (
	_ laneTab = (*table.Multi)(nil)
	_ laneTab = (*leafLanes)(nil)
)

// leafLanes is the implicit lane table of a single-vertex subtemplate:
// lane j of vertex v holds count 1 for the singleton color set
// {color_j(v)} (label-gated) and 0 everywhere else — exactly what
// initLeaf materializes for a root leaf. Deriving the cells from the
// coloring on the fly removes the leaf tables entirely at every lane
// count: no leaf allocation, no leaf-init sweep, and the hot
// single-vertex-child kernels read the 1-byte-per-lane color vector
// instead of 8-byte table cells.
type leafLanes struct {
	colors []int8
	lanes  int
	width  int // k·lanes, the flat row width
	// labels gates vertices by graph label when the template is labeled
	// (nil = unlabeled, every vertex matches).
	labels []int32
	want   int32
}

// newLeafLanes builds the implicit lane table of leaf n over this
// traversal's coloring.
func (st *batchState) newLeafLanes(n *part.Node) *leafLanes {
	e := st.e
	lf := &leafLanes{colors: st.colors, lanes: st.lanes, width: e.k * st.lanes}
	if e.t.Labeled() {
		lf.labels = e.g.Labels
		lf.want = e.t.Label(n.LeafVertex())
	}
	return lf
}

// ok reports whether v's graph label matches the leaf's template label.
func (lf *leafLanes) ok(v int32) bool {
	return lf.labels == nil || lf.labels[v] == lf.want
}

// Has implements laneTab: a leaf "row" exists for every label-matching
// vertex (its one nonzero cell per lane is the seeded count 1).
func (lf *leafLanes) Has(v int32) bool { return lf.ok(v) }

// Get implements laneTab: 1 iff ci is lane's color of v (and the label
// matches).
func (lf *leafLanes) Get(v, ci int32, lane int) float64 {
	if lf.ok(v) && int32(lf.colors[int(v)*lf.lanes+lane]) == ci {
		return 1
	}
	return 0
}

// MaterializeRow implements laneTab, writing v's implicit flat row
// (width k·L) into dst.
func (lf *leafLanes) MaterializeRow(v int32, dst []float64) []float64 {
	dst = dst[:lf.width]
	clear(dst)
	if lf.ok(v) {
		L := lf.lanes
		base := int(v) * L
		for j := 0; j < L; j++ {
			dst[int(lf.colors[base+j])*L+j] = 1
		}
	}
	return dst
}

// AccumulateRows implements laneTab: each label-matching vertex u adds 1
// to dst[color_j(u)·L+j] per lane — neighbor aggregation degenerates to
// counting neighbors per (color, lane).
func (lf *leafLanes) AccumulateRows(vs []int32, dst []float64) {
	L := lf.lanes
	for _, u := range vs {
		if !lf.ok(u) {
			continue
		}
		base := int(u) * L
		for j := 0; j < L; j++ {
			dst[int(lf.colors[base+j])*L+j]++
		}
	}
}
