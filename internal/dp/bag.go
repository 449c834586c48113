package dp

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/comb"
	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// This file is the beyond-trees DP: color coding over a nice tree
// decomposition instead of the partition tree, which handles templates
// with cycles (treewidth <= 2 plus K4 — everything tmpl.Decompose
// accepts). A bag's table holds one entry per assignment tuple: graph
// vertices for the bag's w template vertices, with distinct colors. The
// tuple's row is dense over the color sets F of the f template vertices
// forgotten below the node: F avoids the tuple's own colors, so it is
// ranked colex among the k-w free colors, and the row has C(k-w, f)
// cells. Cell F counts the ways the forgotten vertices extend the tuple
// with exactly the colors F. The empty root bag's row sums to the
// colorful mapping count the partition-tree DP computes at its root, so
// estimates share scale() unchanged. Every cell is an integer count, so
// below 2^53 every sum is exact whatever its order; on tree templates
// the two engines are bit-identical per iteration.

// bagOp is the precomputed evaluation plan for one decomposition node,
// in post-order. Child tables are consumed exactly once (the
// decomposition is a tree), so they are freed eagerly.
type bagOp struct {
	kind tmpl.BagKind
	// vPos: introduce — position of the new vertex in the output tuple;
	// forget — position of the forgotten vertex in the child tuple.
	vPos int
	// label is the introduced vertex's template label (labeled runs).
	label int32
	// cells is the output row length, C(k-w, f).
	cells int
	// anchor (introduce) is the child-tuple position whose image's
	// adjacency supplies the candidates, -1 to scan every graph vertex.
	// marks are the other child positions whose images a candidate must
	// be adjacent to. The anchor is the constrained member introduced
	// last, whose image changes fastest between consecutive tuples, so
	// the marked images change rarely.
	anchor int
	marks  []int
	// lift: introduce — the gather table: lift[r*cells+i] is the child
	// cell copied into cell i when the new color has rank r among the
	// child's free colors. forget — the scatter table:
	// lift[r*childCells+i] is the cell child cell i adds into when the
	// forgotten color has rank r among the output's free colors.
	lift []int32
	// split (join) pairs each output cell F with every F_left ⊎ F_right.
	split       *comb.SplitTable
	left, right int // child indices in post-order, -1 when absent
	// rowCap is the row capacity the op's output table takes from the
	// arena, and slots the length of its open-addressed tuple index
	// (forget and join over tuples of two or more vertices). Both are
	// high-water marks shared by every iteration and batch slot: they
	// only rise, when an output or index outgrows them, so warm
	// iterations request the same slab lengths and hit.
	rowCap, slots atomic.Int64
}

// minBagRows is every op's starting row capacity. An outgrown table
// takes c + c/4 + minBagRows rows, so from this start every slot of an
// Outer run climbs the same ladder of lengths.
const minBagRows = 16

// minBagSlots is the starting length of an open-addressed tuple index,
// which doubles once half full.
const minBagSlots = 64

// bagTuple holds one tuple on the stack (unused slots zero).
type bagTuple [tmpl.MaxBagVerts]int32

// bagRows is one decomposition node's table. Tuple i is
// tuples[i*width:(i+1)*width] (the bag's template vertices in ascending
// order), and its row is rows[i*cells:(i+1)*cells], for i < n. Tuples
// are distinct, and every row has a nonzero cell. Both slices are arena
// slabs with room for len(rows)/cells tuples.
type bagRows struct {
	width, cells, n int
	tuples          []int32
	rows            []float64
}

func (b *bagRows) tuple(i int) []int32 { return b.tuples[i*b.width : (i+1)*b.width] }
func (b *bagRows) row(i int) []float64 { return b.rows[i*b.cells : (i+1)*b.cells] }

// bytes is the footprint of the tuples in use, not of the slabs'
// spare room.
func (b *bagRows) bytes() int64 { return int64(b.n) * (int64(b.cells)*8 + int64(b.width)*4) }

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
	if err := checkBagBytes(d, t.K(), k); err != nil {
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

	// Precompute the per-node plan: child indices in post-order, the
	// forgotten count f and row length of every node, the introduce-time
	// edge checks and the index tables. since[i][p] is the post-order
	// index of the introduce that put node i's p-th bag vertex there.
	pos, forgot := bagForgot(d)
	since := make([][]int, len(d.Order))
	e.bagOps = make([]bagOp, len(d.Order))
	for i, bg := range d.Order {
		op := &e.bagOps[i]
		op.kind, op.anchor, op.left, op.right = bg.Kind, -1, -1, -1
		if bg.Left != nil {
			op.left = pos[bg.Left]
		}
		if bg.Right != nil {
			op.right = pos[bg.Right]
		}
		free := k - len(bg.Verts)
		switch bg.Kind {
		case tmpl.BagIntroduce:
			op.vPos = slices.Index(bg.Verts, bg.Vertex)
			newest := -1
			for p, u := range bg.Left.Verts {
				if t.HasEdge(u, bg.Vertex) {
					op.marks = append(op.marks, p)
					if since[op.left][p] > newest {
						newest, op.anchor = since[op.left][p], p
					}
				}
			}
			op.marks = slices.DeleteFunc(op.marks, func(p int) bool { return p == op.anchor })
			since[i] = slices.Insert(slices.Clone(since[op.left]), op.vPos, i)
			if t.Labeled() {
				op.label = t.Label(bg.Vertex)
			}
			op.lift = liftTable(free, forgot[i], false)
		case tmpl.BagForget:
			op.vPos = slices.Index(bg.Left.Verts, bg.Vertex)
			since[i] = slices.Delete(slices.Clone(since[op.left]), op.vPos, op.vPos+1)
			op.lift = liftTable(free-1, forgot[i]-1, true)
		case tmpl.BagJoin:
			// Decompose's join children each forget at least one
			// vertex, as the split table requires.
			since[i] = since[op.left]
			op.split = comb.NewSplitTable(free, forgot[i], forgot[op.left])
		}
		op.cells = int(comb.Binomial(free, forgot[i]))
		op.rowCap.Store(minBagRows)
		op.slots.Store(minBagSlots)
	}
	return e, nil
}

// bagForgot returns the post-order index of every bag of d and, per
// node, the number of template vertices forgotten below it.
func bagForgot(d *tmpl.Decomposition) (map[*tmpl.Bag]int, []int) {
	pos := make(map[*tmpl.Bag]int, len(d.Order))
	forgot := make([]int, len(d.Order))
	for i, bg := range d.Order {
		pos[bg] = i
		switch bg.Kind {
		case tmpl.BagIntroduce:
			forgot[i] = forgot[pos[bg.Left]]
		case tmpl.BagForget:
			forgot[i] = forgot[pos[bg.Left]] + 1
		case tmpl.BagJoin:
			forgot[i] = forgot[pos[bg.Left]] + forgot[pos[bg.Right]]
		}
	}
	return pos, forgot
}

// checkBagBytes sums the index tables newBagEngine builds for d at k
// colors — every introduce's gather and forget's scatter table
// (liftTable) and every join's split table — and returns a
// *TableSizeError above comb.MaxIndexBytes, before any is built.
func checkBagBytes(d *tmpl.Decomposition, tk, k int) error {
	pos, forgot := bagForgot(d)
	liftBytes := func(n, h int) int64 { return 4 * int64(n+1) * comb.Binomial(n, h) }
	var bytes int64
	for i, bg := range d.Order {
		free := k - len(bg.Verts)
		switch bg.Kind {
		case tmpl.BagIntroduce:
			bytes += liftBytes(free, forgot[i])
		case tmpl.BagForget:
			bytes += liftBytes(free-1, forgot[i]-1)
		case tmpl.BagJoin:
			bytes += comb.SplitTableBytes(free, forgot[i], forgot[pos[bg.Left]])
		}
	}
	if bytes > comb.MaxIndexBytes {
		return &TableSizeError{K: tk, Colors: k, Bytes: bytes}
	}
	return nil
}

// liftTable maps the h-subsets of n free colors, ranked colex, into a
// free set that gains one color at rank r, for each r in [0, n]: entry
// r*C(n,h)+i is the rank of the i-th subset with members >= r shifted up
// by one, and with r itself added when withR is set. Introduce gathers
// through it (withR false), forget scatters (withR true).
func liftTable(n, h int, withR bool) []int32 {
	sets := comb.Combinations(n, h)
	out := make([]int32, 0, (n+1)*len(sets))
	lifted := make([]int, 0, h+1)
	for r := 0; r <= n; r++ {
		for _, s := range sets {
			lifted = lifted[:0]
			i := 0
			for ; i < len(s) && s[i] < r; i++ {
				lifted = append(lifted, s[i])
			}
			if withR {
				lifted = append(lifted, r)
			}
			for ; i < len(s); i++ {
				lifted = append(lifted, s[i]+1)
			}
			out = append(out, int32(comb.Rank(lifted)))
		}
	}
	return out
}

// Decomposition exposes the nice tree decomposition of a bag-DP engine
// (nil for partition-tree engines), for diagnostics and tests.
func (e *Engine) Decomposition() *tmpl.Decomposition { return e.bag }

// bagPass is one bag-DP iteration's state. Every slab it holds — node
// tables, marker arrays, row indexes — comes from the batch's arena and
// goes back there, so a warm iteration allocates nothing that grows with
// the graph or the tables.
type bagPass struct {
	st *batchState
	// tabs[i] is node i's table while it is live.
	tabs []bagRows
	// marks[j][u] == v+1 records that graph vertex u is adjacent to v,
	// and owner[j] is the v+1 whose whole adjacency was stamped into
	// marks[j] last. An introduce tests a candidate against a marked
	// member with one load instead of an adjacency search.
	marks [tmpl.MaxBagVerts - 2][]int32
	owner [tmpl.MaxBagVerts - 2]int32
	// rowOf[v] is row+1 of the one-vertex tuple (v), or of the empty
	// tuple at v = 0, in the table being indexed; 0 when absent.
	rowOf []int32
}

// vertexSlab takes a graph-length int32 slab from the arena, zeroed:
// an arena slab may hold another table's tuples.
func (p *bagPass) vertexSlab() []int32 {
	s := p.st.arena.I32(max(p.st.e.g.N(), 1))
	clear(s)
	return s
}

// stamp makes marks[j] describe v's adjacency and returns it with the
// value an adjacent vertex holds.
func (p *bagPass) stamp(j int, v int32) ([]int32, int32) {
	if p.marks[j] == nil {
		p.marks[j] = p.vertexSlab()
	}
	m := p.marks[j]
	if p.owner[j] != v+1 {
		for _, u := range p.st.e.g.Adj(v) {
			m[u] = v + 1
		}
		p.owner[j] = v + 1
	}
	return m, v + 1
}

// newRows takes op's output table from the arena at the op's row mark.
func (p *bagPass) newRows(op *bagOp, width int) bagRows {
	c := int(op.rowCap.Load())
	b := bagRows{width: width, cells: op.cells, rows: p.st.arena.F64(c * op.cells)}
	if width > 0 {
		b.tuples = p.st.arena.I32(c * width)
	}
	return b
}

// room makes space for tuple b.n. It is small enough to inline, so
// only a full table pays for the call to grow.
func (p *bagPass) room(op *bagOp, b *bagRows) {
	if (b.n+1)*b.cells > len(b.rows) {
		p.grow(op, b)
	}
}

// grow moves a full table to slabs a quarter larger and raises op's row
// mark with them; the outgrown slabs are left to the collector, since no
// mark names their length any more.
func (p *bagPass) grow(op *bagOp, b *bagRows) {
	c := b.n + b.n/4 + minBagRows
	rows := p.st.arena.F64(c * b.cells)
	copy(rows, b.rows[:b.n*b.cells])
	b.rows = rows
	if b.width > 0 {
		tuples := p.st.arena.I32(c * b.width)
		copy(tuples, b.tuples[:b.n*b.width])
		b.tuples = tuples
	}
	raise(&op.rowCap, int64(c))
}

// raise lifts mark to at least v.
func raise(mark *atomic.Int64, v int64) {
	for {
		old := mark.Load()
		if v <= old || mark.CompareAndSwap(old, v) {
			return
		}
	}
}

// free returns node i's table to the arena and drops it from the live
// bytes. Slabs whose length is no longer the op's mark (a concurrent
// slot raised it) are left to the collector.
func (p *bagPass) free(i int) {
	if i < 0 || p.tabs[i].rows == nil {
		return
	}
	b := &p.tabs[i]
	p.st.liveBytes -= b.bytes()
	if len(b.rows) == int(p.st.e.bagOps[i].rowCap.Load())*b.cells {
		p.st.arena.PutF64(b.rows)
		p.st.arena.PutI32(b.tuples)
	}
	*b = bagRows{}
}

// release frees every live table and the marker and index slabs.
func (p *bagPass) release() {
	for i := range p.tabs {
		p.free(i)
	}
	for j, m := range p.marks {
		p.st.arena.PutI32(m)
		p.marks[j] = nil
	}
	p.st.arena.PutI32(p.rowOf)
	p.rowOf = nil
}

// rowIndex finds a table's rows by tuple. Tuples of at most one vertex
// key the pass's dense rowOf by that vertex. Wider ones probe an
// open-addressed slab linearly from the tuple's hash; a slot holds
// row+1 (0 when empty) and the tuples stay in the table, so rows keep
// the order in which they were added.
type rowIndex struct {
	dense []int32
	slots []int32
	shift uint // 64 - log2(len(slots))
	used  int
}

// index starts op's index over a table of width-vertex tuples.
func (p *bagPass) index(op *bagOp, width int) rowIndex {
	if width <= 1 {
		if p.rowOf == nil {
			p.rowOf = p.vertexSlab()
		}
		return rowIndex{dense: p.rowOf}
	}
	n := int(op.slots.Load())
	s := p.st.arena.I32(n)
	clear(s)
	return rowIndex{slots: s, shift: uint(64 - bits.TrailingZeros(uint(n)))}
}

func denseKey(t []int32) int32 {
	if len(t) == 0 {
		return 0
	}
	return t[0]
}

// tupleHash mixes a tuple's vertices; probe uses its top bits.
func tupleHash(t []int32) uint64 {
	var h uint64
	for _, v := range t {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
	}
	return h
}

// probe returns tuple t's row in tab, or -1, and the slot that holds it
// or would.
//
//fascia:hotpath
func (x *rowIndex) probe(tab *bagRows, t []int32) (slot, row int) {
	if x.slots == nil {
		k := denseKey(t)
		return int(k), int(x.dense[k]) - 1
	}
	mask := len(x.slots) - 1
	for i := int(tupleHash(t) >> x.shift); ; i = (i + 1) & mask {
		r := int(x.slots[i]) - 1
		if r < 0 || slices.Equal(tab.tuple(r), t) {
			return i, r
		}
	}
}

// add records row at the slot probe returned for its absent tuple. Rows
// are added in order, so an open-addressed index holds rows 0..used-1;
// once half full it doubles, re-probes them, and raises op's slot mark.
func (p *bagPass) add(x *rowIndex, op *bagOp, tab *bagRows, slot, row int) {
	if x.slots == nil {
		x.dense[slot] = int32(row) + 1
		return
	}
	x.slots[slot] = int32(row) + 1
	x.used++
	if 2*x.used <= len(x.slots) {
		return
	}
	n := 2 * len(x.slots)
	s := p.st.arena.I32(n)
	clear(s)
	*x = rowIndex{slots: s, shift: x.shift - 1, used: x.used}
	for r := 0; r < x.used; r++ {
		i, _ := x.probe(tab, tab.tuple(r))
		x.slots[i] = int32(r) + 1
	}
	raise(&op.slots, int64(n))
}

// drop ends op's index over tab: a dense one has tab's entries cleared
// for the next index, and an open-addressed one goes back to the arena
// while its length is still op's mark.
func (p *bagPass) drop(x *rowIndex, op *bagOp, tab *bagRows) {
	if x.slots == nil {
		for i := 0; i < tab.n; i++ {
			x.dense[denseKey(tab.tuple(i))] = 0
		}
		return
	}
	if len(x.slots) == int(op.slots.Load()) {
		p.st.arena.PutI32(x.slots)
	}
}

// runBag executes one color-coding iteration over the decomposition in
// post-order and returns the colorful mapping total. It runs on a
// one-lane state, so the lane-strided coloring is indexed by vertex
// directly. Cancellation is polled per child tuple.
func (st *batchState) runBag() float64 {
	e := st.e
	p := &bagPass{st: st, tabs: make([]bagRows, len(e.bagOps))}
	for i := range e.bagOps {
		op := &e.bagOps[i]
		switch op.kind {
		case tmpl.BagLeaf:
			p.tabs[i] = p.newRows(op, 0)
			p.tabs[i].rows[0] = 1
			p.tabs[i].n = 1
		case tmpl.BagIntroduce:
			p.tabs[i] = p.introduce(op, &p.tabs[op.left])
		case tmpl.BagForget:
			p.tabs[i] = p.forget(op, &p.tabs[op.left])
		case tmpl.BagJoin:
			p.tabs[i] = p.join(op, &p.tabs[op.left], &p.tabs[op.right])
		}
		out := &p.tabs[i]
		if st.cancelled() {
			p.release()
			st.abort()
			return 0
		}
		st.tablesAllocated++
		st.tablesReleased++ // bag tables free eagerly; allocation == release
		st.rowsAllocated += int64(out.n)
		st.rowsReleased += int64(out.n)
		// The output and its children are live together.
		st.liveBytes += out.bytes()
		if st.liveBytes > st.peakBytes {
			st.peakBytes = st.liveBytes
		}
		p.free(op.left)
		p.free(op.right)
	}
	root := &p.tabs[len(p.tabs)-1]
	var total float64
	for _, v := range root.rows[:root.n*root.cells] {
		total += v
	}
	if st.keep {
		// Bag engines never retain tables (KeepTables is rejected at
		// construction); VertexCounts' keep flag cannot reach here either.
		panic("dp: bag DP cannot keep tables")
	}
	p.release()
	st.release()
	return total
}

// colorMask returns the set of colors of tuple t's vertices.
//
//fascia:hotpath
func (st *batchState) colorMask(t []int32) uint64 {
	var m uint64
	for _, v := range t {
		m |= 1 << uint(st.colors[v])
	}
	return m
}

// freeRank returns the rank of color c among the colors outside used.
//
//fascia:hotpath
func freeRank(c int8, used uint64) int {
	return int(c) - bits.OnesCount64(used&(1<<uint(c)-1))
}

// introduce extends every child tuple with every admissible graph vertex
// for the introduced template vertex: label match, a graph edge to the
// image of each adjacent bag vertex, and a color outside the tuple's.
// The new row is the child row gathered at the sets that avoid the new
// color; all-zero rows are dropped. Output tuples are distinct, since
// the child tuple and the new vertex determine each, so no index is
// needed.
func (p *bagPass) introduce(op *bagOp, child *bagRows) bagRows {
	st := p.st
	g := st.e.g
	labeled := st.e.t.Labeled()
	out := p.newRows(op, child.width+1)
	w, vp := out.width, op.vPos
	var tuple bagTuple
	for ci := 0; ci < child.n; ci++ {
		if st.cancelled() {
			return out
		}
		ct, crow := child.tuple(ci), child.row(ci)
		used := st.colorMask(ct)
		var m0, m1 []int32
		var o0, o1 int32
		if len(op.marks) > 0 {
			m0, o0 = p.stamp(0, ct[op.marks[0]])
		}
		if len(op.marks) > 1 {
			m1, o1 = p.stamp(1, ct[op.marks[1]])
		}
		copy(tuple[:vp], ct[:vp])
		copy(tuple[vp+1:w], ct[vp:])
		var cand []int32
		hi := g.N()
		if op.anchor >= 0 {
			cand = g.Adj(ct[op.anchor])
			hi = len(cand)
		}
		for x := 0; x < hi; x++ {
			gv := int32(x)
			if op.anchor >= 0 {
				gv = cand[x]
			}
			if labeled && g.Label(gv) != op.label ||
				m0 != nil && m0[gv] != o0 || m1 != nil && m1[gv] != o1 {
				continue
			}
			c := st.colors[gv]
			if used&(1<<uint(c)) != 0 {
				continue
			}
			r := freeRank(c, used)
			p.room(op, &out)
			if !gather(out.row(out.n), crow, op.lift[r*op.cells:(r+1)*op.cells]) {
				continue
			}
			tuple[vp] = gv
			copy(out.tuple(out.n), tuple[:w])
			out.n++
		}
	}
	return out
}

// gather fills row[i] = src[idx[i]] and reports whether any cell is
// nonzero.
//
//fascia:hotpath
func gather(row, src []float64, idx []int32) bool {
	row = row[:len(idx)]
	nz := false
	for i, s := range idx {
		row[i] = src[s]
		nz = nz || row[i] != 0
	}
	return nz
}

// forget sums out the forgotten vertex: child tuples that agree on the
// remaining assignment merge into one output tuple, in first-seen order,
// and each child row adds into it with the forgotten color joining F.
func (p *bagPass) forget(op *bagOp, child *bagRows) bagRows {
	st := p.st
	out := p.newRows(op, child.width-1)
	idx := p.index(op, out.width)
	cc, vp := child.cells, op.vPos
	var tuple bagTuple
	t := tuple[:out.width]
	for ci := 0; ci < child.n; ci++ {
		if st.cancelled() {
			break
		}
		ct, crow := child.tuple(ci), child.row(ci)
		copy(t[:vp], ct[:vp])
		copy(t[vp:], ct[vp+1:])
		r := freeRank(st.colors[ct[vp]], st.colorMask(t))
		slot, ri := idx.probe(&out, t)
		if ri < 0 {
			p.room(op, &out)
			ri = out.n
			out.n++
			copy(out.tuple(ri), t)
			clear(out.row(ri))
			p.add(&idx, op, &out, slot, ri)
		}
		row := out.row(ri)
		for i, d := range op.lift[r*cc : (r+1)*cc] {
			row[d] += crow[i]
		}
	}
	p.drop(&idx, op, &out)
	return out
}

// join combines two subtrees over an identical bag: a left tuple pairs
// with the same right tuple, and its cell F sums the products of every
// split F = F_left ⊎ F_right, so the forgotten portions stay
// rainbow-disjoint. Vertex-subtree connectivity guarantees a template
// vertex never hides in both sides' forgotten sets. Output tuples follow
// the left order; all-zero rows are dropped.
func (p *bagPass) join(op *bagOp, left, right *bagRows) bagRows {
	st := p.st
	out := p.newRows(op, left.width)
	idx := p.index(op, right.width)
	for ri := 0; ri < right.n; ri++ {
		slot, _ := idx.probe(right, right.tuple(ri))
		p.add(&idx, op, right, slot, ri)
	}
	sp := op.split
	per := sp.SplitsPerSet
	for li := 0; li < left.n; li++ {
		if st.cancelled() {
			break
		}
		lt := left.tuple(li)
		_, ri := idx.probe(right, lt)
		if ri < 0 {
			continue
		}
		lrow, rrow := left.row(li), right.row(ri)
		p.room(op, &out)
		row := out.row(out.n)
		nz := false
		for i := range row {
			var s float64
			for x := i * per; x < (i+1)*per; x++ {
				s += lrow[sp.ActiveIdx[x]] * rrow[sp.PassiveIdx[x]]
			}
			row[i] = s
			nz = nz || s != 0
		}
		if !nz {
			continue
		}
		copy(out.tuple(out.n), lt)
		out.n++
	}
	p.drop(&idx, op, right)
	return out
}
