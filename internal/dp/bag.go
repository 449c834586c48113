package dp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// This file is the beyond-trees DP: color-coding over a nice tree
// decomposition instead of the partition tree, which handles templates
// with cycles (treewidth <= 2 plus K4 — everything tmpl.Decompose
// accepts). Each decomposition bag's table maps (assignment of the bag's
// template vertices to graph vertices, set of colors used by the whole
// subtree's image) to the number of ways the forgotten vertices extend
// the assignment. The empty root bag's total is then exactly the
// colorful mapping count the partition-tree DP computes at its root, so
// estimates share scale() unchanged — and on tree templates the two
// engines are bit-identical per iteration (counts are integers well
// inside float64's exact range, and both pipelines sum them
// deterministically).

// bagOp is the precomputed evaluation plan for one decomposition node,
// in post-order. Child tables are consumed exactly once (the
// decomposition is a tree), so slots are freed eagerly.
type bagOp struct {
	kind  tmpl.BagKind
	verts []int // bag vertices after the operation, ascending
	// vPos: introduce — position of the new vertex in verts;
	// forget — position of the forgotten vertex in the CHILD's verts.
	vPos int
	// label is the introduced vertex's template label (labeled runs).
	label int32
	// checkPos: introduce — positions in verts (other than vPos) whose
	// template vertex is adjacent to the introduced one; every candidate
	// graph vertex must have a graph edge to each of their images.
	checkPos    []int
	left, right int // child indices in post-order, -1 when absent
}

// bagKey identifies one bag-table entry: the graph vertices assigned to
// the bag's template vertices (slot order follows verts; unused slots
// hold -1) and the bitmask of colors used by the subtree's whole image.
type bagKey struct {
	tuple [tmpl.MaxBagVerts]int32
	mask  uint64
}

// bagTable is a deterministic accumulation map: entries iterate in first-
// insertion order regardless of Go's map iteration randomization, which
// is what keeps per-iteration totals bit-identical across runs and
// parallel modes.
type bagTable struct {
	keys []bagKey
	vals []float64
	idx  map[bagKey]int32
}

func newBagTable() *bagTable {
	return &bagTable{idx: map[bagKey]int32{}}
}

func (bt *bagTable) add(k bagKey, v float64) {
	if i, ok := bt.idx[k]; ok {
		bt.vals[i] += v
		return
	}
	bt.idx[k] = int32(len(bt.keys))
	bt.keys = append(bt.keys, k)
	bt.vals = append(bt.vals, v)
}

// bagEntryBytes approximates the per-entry footprint (key + value + map
// slot) for the run's peak-memory accounting.
const bagEntryBytes = 72

func (bt *bagTable) bytes() int64 { return int64(len(bt.keys)) * bagEntryBytes }

func emptyBagKey() bagKey {
	var k bagKey
	for i := range k.tuple {
		k.tuple[i] = -1
	}
	return k
}

// insertSlot returns t with gv inserted at position p (later slots shift
// right; the last -1 pad falls off).
func insertSlot(t [tmpl.MaxBagVerts]int32, p int, gv int32) [tmpl.MaxBagVerts]int32 {
	for i := len(t) - 1; i > p; i-- {
		t[i] = t[i-1]
	}
	t[p] = gv
	return t
}

// removeSlot returns t with position p dropped (later slots shift left,
// -1 padding restored).
func removeSlot(t [tmpl.MaxBagVerts]int32, p int) [tmpl.MaxBagVerts]int32 {
	for i := p; i < len(t)-1; i++ {
		t[i] = t[i+1]
	}
	t[len(t)-1] = -1
	return t
}

// newBagEngine builds the decomposition-driven engine used for every
// non-tree template (and for trees under Config.ForceBagDP).
func newBagEngine(g *graph.Graph, t *tmpl.Template, cfg Config, k int) (*Engine, error) {
	if cfg.KeepTables {
		return nil, fmt.Errorf("dp: KeepTables (embedding sampling) requires a tree template; %s runs the bag DP", t.Name())
	}
	if cfg.RootVertex >= 0 {
		return nil, fmt.Errorf("dp: RootVertex (per-vertex rooted counts) requires a tree template; %s runs the bag DP", t.Name())
	}
	d, err := tmpl.Decompose(t)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g: g, t: t, cfg: cfg, k: k, bag: d,
		prob:  colorfulProbability(k, t.K()),
		aut:   t.Automorphisms(),
		batch: 1, // lane batching is a split-table fast path; the bag DP runs one lane
		arena: &table.Arena{},
	}
	e.rAut = e.aut // unused by the bag DP (no rooted counts); keep non-zero
	e.memBytes = resolveMemBytes(cfg.MemBudgetBytes)

	// Precompute the per-node plan: child indices in post-order plus the
	// introduce-time edge checks.
	pos := map[*tmpl.Bag]int{}
	e.bagOps = make([]bagOp, len(d.Order))
	for i, bg := range d.Order {
		pos[bg] = i
		op := bagOp{kind: bg.Kind, verts: bg.Verts, left: -1, right: -1}
		if bg.Left != nil {
			op.left = pos[bg.Left]
		}
		if bg.Right != nil {
			op.right = pos[bg.Right]
		}
		switch bg.Kind {
		case tmpl.BagIntroduce:
			for p, u := range bg.Verts {
				if u == bg.Vertex {
					op.vPos = p
				} else if t.HasEdge(u, bg.Vertex) {
					op.checkPos = append(op.checkPos, p)
				}
			}
			if t.Labeled() {
				op.label = t.Label(bg.Vertex)
			}
		case tmpl.BagForget:
			for p, u := range bg.Left.Verts {
				if u == bg.Vertex {
					op.vPos = p
				}
			}
		}
		e.bagOps[i] = op
	}
	return e, nil
}

// Decomposition exposes the nice tree decomposition of a bag-DP engine
// (nil for partition-tree engines), for diagnostics and tests.
func (e *Engine) Decomposition() *tmpl.Decomposition { return e.bag }

// bagColors returns the bitmask of colors used by the bag's assigned
// graph vertices.
func (st *batchState) bagColors(key bagKey, width int) uint64 {
	var m uint64
	for p := 0; p < width; p++ {
		m |= 1 << uint(st.colors[key.tuple[p]])
	}
	return m
}

// runBag executes one color-coding iteration over the decomposition in
// post-order and returns the colorful mapping total. It runs on a
// one-lane state, so the lane-strided coloring is indexed by vertex
// directly. Cancellation is polled per table entry — the same
// granularity as the partition-tree pass's per-vertex polls.
func (st *batchState) runBag() float64 {
	e := st.e
	tabs := make([]*bagTable, len(e.bagOps))
	free := func(i int) {
		if i >= 0 {
			st.liveBytes -= tabs[i].bytes()
			tabs[i] = nil
		}
	}
	for i := range e.bagOps {
		op := &e.bagOps[i]
		var out *bagTable
		switch op.kind {
		case tmpl.BagLeaf:
			out = newBagTable()
			out.add(emptyBagKey(), 1)
		case tmpl.BagIntroduce:
			out = st.bagIntroduce(op, tabs[op.left])
		case tmpl.BagForget:
			out = st.bagForget(op, tabs[op.left])
		case tmpl.BagJoin:
			out = st.bagJoin(op, tabs[op.left], tabs[op.right])
		}
		if st.cancelled() {
			st.abort()
			return 0
		}
		free(op.left)
		free(op.right)
		tabs[i] = out
		st.tablesAllocated++
		st.tablesReleased++ // bag tables free eagerly; allocation == release
		st.rowsAllocated += int64(len(out.keys))
		st.rowsReleased += int64(len(out.keys))
		st.liveBytes += out.bytes()
		if st.liveBytes > st.peakBytes {
			st.peakBytes = st.liveBytes
		}
	}
	root := tabs[len(tabs)-1]
	var total float64
	for _, v := range root.vals {
		total += v
	}
	st.liveBytes -= root.bytes()
	if st.keep {
		// Bag engines never retain tables (KeepTables is rejected at
		// construction); VertexCounts' keep flag cannot reach here either.
		panic("dp: bag DP cannot keep tables")
	}
	st.release()
	return total
}

// bagIntroduce extends every child entry with every admissible graph
// vertex for the introduced template vertex: label match, a graph edge
// to the image of each adjacent bag vertex, and a color outside the
// subtree's used set (which also enforces injectivity — distinct colors
// force distinct vertices).
func (st *batchState) bagIntroduce(op *bagOp, child *bagTable) *bagTable {
	e := st.e
	out := newBagTable()
	labeled := e.t.Labeled()
	// childPos maps a position in the new bag to the child bag (which
	// lacks the introduced vertex).
	childPos := func(p int) int {
		if p > op.vPos {
			return p - 1
		}
		return p
	}
	// Candidates come from the adjacency of the first constrained bag
	// member when one exists; a bag with no edge to the new vertex (the
	// first introduce above a leaf) scans all graph vertices.
	anchor := -1
	if len(op.checkPos) > 0 {
		anchor = childPos(op.checkPos[0])
	}
	nVerts := int32(e.g.N())
	for ci, ck := range child.keys {
		if st.cancelled() {
			return out
		}
		cv := child.vals[ci]
		try := func(gv int32) {
			if labeled && e.g.Label(gv) != op.label {
				return
			}
			for _, p := range op.checkPos {
				if !e.g.HasEdge(gv, ck.tuple[childPos(p)]) {
					return
				}
			}
			bit := uint64(1) << uint(st.colors[gv])
			if ck.mask&bit != 0 {
				return
			}
			out.add(bagKey{tuple: insertSlot(ck.tuple, op.vPos, gv), mask: ck.mask | bit}, cv)
		}
		if anchor >= 0 {
			for _, gv := range e.g.Adj(ck.tuple[anchor]) {
				try(gv)
			}
		} else {
			for gv := int32(0); gv < nVerts; gv++ {
				try(gv)
			}
		}
	}
	return out
}

// bagForget sums out the forgotten vertex: entries that agree on the
// remaining assignment and the (unchanged) subtree color set merge.
func (st *batchState) bagForget(op *bagOp, child *bagTable) *bagTable {
	out := newBagTable()
	for ci, ck := range child.keys {
		if st.cancelled() {
			return out
		}
		out.add(bagKey{tuple: removeSlot(ck.tuple, op.vPos), mask: ck.mask}, child.vals[ci])
	}
	return out
}

// bagJoin combines two subtrees over an identical bag: entries pair when
// their bag assignments match and their subtree color sets overlap in
// exactly the bag's own colors (the shared vertices), so the forgotten
// portions stay rainbow-disjoint. Vertex-subtree connectivity guarantees
// a template vertex never hides in both sides' forgotten sets, so the
// color test is sufficient.
func (st *batchState) bagJoin(op *bagOp, left, right *bagTable) *bagTable {
	out := newBagTable()
	width := len(op.verts)
	// Group the right entries by assignment; left entries then probe by
	// tuple and scan the (insertion-ordered) matches, keeping the output
	// order deterministic.
	byTuple := map[[tmpl.MaxBagVerts]int32][]int32{}
	for ri, rk := range right.keys {
		byTuple[rk.tuple] = append(byTuple[rk.tuple], int32(ri))
	}
	for li, lk := range left.keys {
		if st.cancelled() {
			return out
		}
		shared := st.bagColors(lk, width)
		for _, ri := range byTuple[lk.tuple] {
			rk := right.keys[ri]
			if lk.mask&rk.mask != shared {
				continue
			}
			out.add(bagKey{tuple: lk.tuple, mask: lk.mask | rk.mask}, left.vals[li]*right.vals[ri])
		}
	}
	return out
}
