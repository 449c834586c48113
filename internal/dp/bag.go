package dp

import (
	"fmt"
	"math/bits"
	"slices"

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
}

// bagTuple is a tuple as a map key (unused slots zero).
type bagTuple [tmpl.MaxBagVerts]int32

// bagRows is one decomposition node's table. Tuple i is
// tuples[i*width:(i+1)*width] (the bag's template vertices in ascending
// order), and its row is rows[i*cells:(i+1)*cells]. Tuples are distinct,
// and every row has a nonzero cell.
type bagRows struct {
	width, cells int
	tuples       []int32
	rows         []float64
}

func (b *bagRows) n() int              { return len(b.rows) / b.cells }
func (b *bagRows) tuple(i int) []int32 { return b.tuples[i*b.width : (i+1)*b.width] }
func (b *bagRows) row(i int) []float64 { return b.rows[i*b.cells : (i+1)*b.cells] }
func (b *bagRows) bytes() int64        { return int64(len(b.rows))*8 + int64(len(b.tuples))*4 }
func (b *bagRows) drop()               { b.rows = b.rows[:len(b.rows)-b.cells] }
func (b *bagRows) push(t []int32)      { b.tuples = append(b.tuples, t...) }

// grow appends a zeroed row.
func (b *bagRows) grow() []float64 {
	n := len(b.rows)
	b.rows = slices.Grow(b.rows, b.cells)[:n+b.cells]
	row := b.rows[n:]
	clear(row)
	return row
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

	// Precompute the per-node plan: child indices in post-order, the
	// forgotten count f and row length of every node, the introduce-time
	// edge checks and the index tables. since[i][p] is the post-order
	// index of the introduce that put node i's p-th bag vertex there.
	pos := map[*tmpl.Bag]int{}
	forgot := make([]int, len(d.Order))
	since := make([][]int, len(d.Order))
	e.bagOps = make([]bagOp, len(d.Order))
	for i, bg := range d.Order {
		pos[bg] = i
		op := bagOp{kind: bg.Kind, anchor: -1, left: -1, right: -1}
		if bg.Left != nil {
			op.left = pos[bg.Left]
		}
		if bg.Right != nil {
			op.right = pos[bg.Right]
		}
		free := k - len(bg.Verts)
		switch bg.Kind {
		case tmpl.BagIntroduce:
			forgot[i] = forgot[op.left]
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
			forgot[i] = forgot[op.left] + 1
			op.vPos = slices.Index(bg.Left.Verts, bg.Vertex)
			since[i] = slices.Delete(slices.Clone(since[op.left]), op.vPos, op.vPos+1)
			op.lift = liftTable(free-1, forgot[i]-1, true)
		case tmpl.BagJoin:
			// Decompose's join children each forget at least one
			// vertex, as the split table requires.
			forgot[i] = forgot[op.left] + forgot[op.right]
			since[i] = since[op.left]
			op.split = comb.NewSplitTable(free, forgot[i], forgot[op.left])
		}
		op.cells = int(comb.Binomial(free, forgot[i]))
		e.bagOps[i] = op
	}
	return e, nil
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

// bagPass is one bag-DP iteration's scratch.
type bagPass struct {
	st *batchState
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

// stamp makes marks[j] describe v's adjacency and returns it with the
// value an adjacent vertex holds.
func (p *bagPass) stamp(j int, v int32) ([]int32, int32) {
	g := p.st.e.g
	if p.marks[j] == nil {
		p.marks[j] = make([]int32, g.N())
	}
	m := p.marks[j]
	if p.owner[j] != v+1 {
		for _, u := range g.Adj(v) {
			m[u] = v + 1
		}
		p.owner[j] = v + 1
	}
	return m, v + 1
}

// rowIndex numbers a table's distinct tuples: tuples of at most one
// vertex through the pass's dense rowOf, wider ones through a map.
type rowIndex struct {
	dense []int32
	wide  map[bagTuple]int32
}

func (p *bagPass) index(width int) rowIndex {
	if width > 1 {
		return rowIndex{wide: map[bagTuple]int32{}}
	}
	if p.rowOf == nil {
		p.rowOf = make([]int32, max(p.st.e.g.N(), 1))
	}
	return rowIndex{dense: p.rowOf}
}

func denseKey(t []int32) int32 {
	if len(t) == 0 {
		return 0
	}
	return t[0]
}

// find returns tuple t's row, or -1.
func (x rowIndex) find(t []int32) int {
	if x.wide == nil {
		return int(x.dense[denseKey(t)]) - 1
	}
	var key bagTuple
	copy(key[:], t)
	if r, ok := x.wide[key]; ok {
		return int(r)
	}
	return -1
}

func (x rowIndex) set(t []int32, row int) {
	if x.wide == nil {
		x.dense[denseKey(t)] = int32(row) + 1
		return
	}
	var key bagTuple
	copy(key[:], t)
	x.wide[key] = int32(row)
}

// reset clears the dense entries of b's tuples for the next index.
func (x rowIndex) reset(b *bagRows) {
	if x.wide != nil {
		return
	}
	for i := 0; i < b.n(); i++ {
		x.dense[denseKey(b.tuple(i))] = 0
	}
}

// runBag executes one color-coding iteration over the decomposition in
// post-order and returns the colorful mapping total. It runs on a
// one-lane state, so the lane-strided coloring is indexed by vertex
// directly. Cancellation is polled per child tuple.
func (st *batchState) runBag() float64 {
	e := st.e
	p := &bagPass{st: st}
	tabs := make([]*bagRows, len(e.bagOps))
	free := func(i int) {
		if i >= 0 {
			st.liveBytes -= tabs[i].bytes()
			tabs[i] = nil
		}
	}
	for i := range e.bagOps {
		op := &e.bagOps[i]
		var out *bagRows
		switch op.kind {
		case tmpl.BagLeaf:
			out = &bagRows{cells: 1, rows: []float64{1}}
		case tmpl.BagIntroduce:
			out = p.introduce(op, tabs[op.left])
		case tmpl.BagForget:
			out = p.forget(op, tabs[op.left])
		case tmpl.BagJoin:
			out = p.join(op, tabs[op.left], tabs[op.right])
		}
		if st.cancelled() {
			st.abort()
			return 0
		}
		tabs[i] = out
		st.tablesAllocated++
		st.tablesReleased++ // bag tables free eagerly; allocation == release
		st.rowsAllocated += int64(out.n())
		st.rowsReleased += int64(out.n())
		// The output and its children are live together.
		st.liveBytes += out.bytes()
		if st.liveBytes > st.peakBytes {
			st.peakBytes = st.liveBytes
		}
		free(op.left)
		free(op.right)
	}
	root := tabs[len(tabs)-1]
	var total float64
	for _, v := range root.rows {
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

// colorMask returns the set of colors of tuple t's vertices.
func (st *batchState) colorMask(t []int32) uint64 {
	var m uint64
	for _, v := range t {
		m |= 1 << uint(st.colors[v])
	}
	return m
}

// freeRank returns the rank of color c among the colors outside used.
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
func (p *bagPass) introduce(op *bagOp, child *bagRows) *bagRows {
	st := p.st
	g := st.e.g
	labeled := st.e.t.Labeled()
	out := &bagRows{width: child.width + 1, cells: op.cells}
	w, vp := out.width, op.vPos
	var tuple bagTuple
	for ci, n := 0, child.n(); ci < n; ci++ {
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
			if !gather(out.grow(), crow, op.lift[r*op.cells:(r+1)*op.cells]) {
				out.drop()
				continue
			}
			tuple[vp] = gv
			out.push(tuple[:w])
		}
	}
	return out
}

// gather fills row[i] = src[idx[i]] and reports whether any cell is
// nonzero.
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
func (p *bagPass) forget(op *bagOp, child *bagRows) *bagRows {
	st := p.st
	out := &bagRows{width: child.width - 1, cells: op.cells}
	idx := p.index(out.width)
	cc, vp := child.cells, op.vPos
	var tuple bagTuple
	for ci, n := 0, child.n(); ci < n; ci++ {
		if st.cancelled() {
			break
		}
		ct, crow := child.tuple(ci), child.row(ci)
		copy(tuple[:vp], ct[:vp])
		copy(tuple[vp:], ct[vp+1:])
		t := tuple[:out.width]
		r := freeRank(st.colors[ct[vp]], st.colorMask(t))
		var row []float64
		if ri := idx.find(t); ri >= 0 {
			row = out.row(ri)
		} else {
			idx.set(t, out.n())
			row = out.grow()
			out.push(t)
		}
		for i, d := range op.lift[r*cc : (r+1)*cc] {
			row[d] += crow[i]
		}
	}
	idx.reset(out)
	return out
}

// join combines two subtrees over an identical bag: a left tuple pairs
// with the same right tuple, and its cell F sums the products of every
// split F = F_left ⊎ F_right, so the forgotten portions stay
// rainbow-disjoint. Vertex-subtree connectivity guarantees a template
// vertex never hides in both sides' forgotten sets. Output tuples follow
// the left order; all-zero rows are dropped.
func (p *bagPass) join(op *bagOp, left, right *bagRows) *bagRows {
	st := p.st
	out := &bagRows{width: left.width, cells: op.cells}
	idx := p.index(right.width)
	for ri := 0; ri < right.n(); ri++ {
		idx.set(right.tuple(ri), ri)
	}
	sp := op.split
	per := sp.SplitsPerSet
	for li, n := 0, left.n(); li < n; li++ {
		if st.cancelled() {
			break
		}
		lt := left.tuple(li)
		ri := idx.find(lt)
		if ri < 0 {
			continue
		}
		lrow, rrow := left.row(li), right.row(ri)
		row := out.grow()
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
			out.drop()
			continue
		}
		out.push(lt)
	}
	idx.reset(right)
	return out
}
