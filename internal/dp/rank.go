package dp

import (
	"sync/atomic"

	"repro/internal/part"
	"repro/internal/table"
)

// RankPass is one rank's share of one color-coding iteration of the
// distributed runtime (internal/dist): a one-lane traversal of the
// partition tree that computes every node's rows only for the rank's
// owned vertex block [lo, hi), on the same batchState, lane kernels and
// cost model as every other traversal.
//
// The rank derives the full coloring from the seed and holds the whole
// graph and its labels, so leaf children stay implicit leafLanes over
// every vertex. Only an internal passive child's rows of remote
// neighbors live on other ranks; the pass reads them in place from the
// ghost rows its driver hands ComputeStep. The driver owns the step
// schedule and the exchange: it calls ComputeStep for every position of
// the tree's evaluation order in turn, reads the rows it ships with
// Rows, and ends with Finish.
//
// Rank tables take no arena: free-listed slabs count as live memory,
// so the GC target doubles them, and a shard worker holds a rank's
// tables beside its peers' frames (DESIGN.md §7.1).
type RankPass struct {
	st      *batchState
	pas     rankTab
	maxRows int64
}

// NewRankPass starts the pass of iteration seed over the owned block
// [lo, hi). ghostSlot maps every vertex to its index in the ghost rows
// ComputeStep receives, or -1 for vertices that are no ghost of this
// rank; it must cover every remote neighbor of the block. The engine
// must be an unshared, unreordered partition-tree engine with Lazy
// tables: vertex ids define ownership, every node feeds at most one
// parent, and a rank's rows exist only for the vertices it owns.
// stop, when non-nil, cancels the pass: ComputeStep then computes
// nothing, Rows yields nil rows and Finish reports zero, so the driver
// can still complete its protocol.
func (e *Engine) NewRankPass(seed int64, lo, hi int32, ghostSlot []int32, stop *atomic.Bool) *RankPass {
	if e.tree == nil || e.ord != nil || e.cfg.Share || e.cfg.TableKind != table.Lazy {
		panic("dp: NewRankPass needs an unshared, unreordered tree engine with Lazy tables")
	}
	if lo < 0 || lo > hi || int(hi) > e.g.N() || len(ghostSlot) != e.g.N() {
		panic("dp: NewRankPass block or ghost slots out of range")
	}
	st := e.newBatchState(nil, seed, 1, 1)
	st.stop = stop
	st.lo, st.hi = lo, hi
	p := &RankPass{st: st, pas: rankTab{lo: lo, hi: hi, slot: ghostSlot}}
	st.remote = &p.pas
	return p
}

// ComputeStep evaluates position i of the tree's evaluation order over
// the owned block. ghosts holds the passive child's remote rows, indexed
// by ghost slot (nil rows mean the sender holds no counts); it is read
// in place, only when the passive child is an internal node, and only
// during the call.
func (p *RankPass) ComputeStep(i int, ghosts [][]float64) {
	st := p.st
	if st.aborted {
		return
	}
	n := st.e.tree.Order[i]
	p.pas.ghosts = ghosts
	ok := st.step(i, n)
	p.pas.own, p.pas.ghosts = nil, nil
	if !ok {
		return
	}
	if tab := st.tabs[n]; tab != nil {
		p.maxRows = max(p.maxRows, tab.Rows())
	}
}

// Rows fills dst[j] with owned vertex vs[j]'s row of node n, nil when
// the vertex holds no counts or the pass was cancelled. The rows alias
// the pass's table, which lives only until the step that consumes n:
// a transport must copy or serialize them before then.
func (p *RankPass) Rows(n *part.Node, vs []int32, dst [][]float64) {
	tab := p.st.tabs[n]
	for j, v := range vs {
		if tab == nil {
			dst[j] = nil
		} else {
			dst[j] = tab.LaneRow(v)
		}
	}
}

// Finish releases the pass and returns the rank's colorful total (the
// sum of its owned root rows; zero for a cancelled or unfinished pass)
// and the largest row count any of its tables held.
func (p *RankPass) Finish() (total float64, maxRows int) {
	st := p.st
	if !st.aborted {
		if root := st.tabs[st.e.tree.Root]; root != nil {
			root.Totals(st.totals)
			total = st.totals[0]
		}
		st.release()
	}
	return total, int(p.maxRows)
}

// rankTab is a rank pass's one-lane passive-child read surface: owned
// vertices read the rank's own table, remote vertices read in place the
// ghost row their slot names.
type rankTab struct {
	own    *table.Multi
	lo, hi int32
	slot   []int32
	ghosts [][]float64
}

var _ laneTab = (*rankTab)(nil)

// row returns v's row, nil when absent.
func (t *rankTab) row(v int32) []float64 {
	if v >= t.lo && v < t.hi {
		return t.own.LaneRow(v)
	}
	if s := t.slot[v]; s >= 0 {
		return t.ghosts[s]
	}
	return nil
}

// Has implements laneTab.
func (t *rankTab) Has(v int32) bool { return t.row(v) != nil }

// LaneRow implements laneTab.
func (t *rankTab) LaneRow(v int32) []float64 { return t.row(v) }

// Get implements laneTab; lane is always 0.
func (t *rankTab) Get(v, ci int32, lane int) float64 {
	if row := t.row(v); row != nil {
		return row[ci]
	}
	return 0
}

// MaterializeRow implements laneTab: every row is flat, so only an
// absent one is written to dst, as zeros.
func (t *rankTab) MaterializeRow(v int32, dst []float64) []float64 {
	if row := t.row(v); row != nil {
		return row
	}
	dst = dst[:t.own.Width()]
	clear(dst)
	return dst
}

// AccumulateRows implements laneTab: the rows of every vertex in vs,
// owned or ghost, are added into dst with the 8-wide lane add.
//
//fascia:hotpath
func (t *rankTab) AccumulateRows(vs []int32, dst []float64) {
	for _, u := range vs {
		if row := t.row(u); row != nil {
			laneAdd(dst, row)
		}
	}
}

// GatherColors implements laneTab, folding each vertex's cell at its own
// color as table.Multi.GatherColors does at one lane.
//
//fascia:hotpath
func (t *rankTab) GatherColors(vs []int32, colors []int8, dst []float64) {
	for _, u := range vs {
		if row := t.row(u); row != nil {
			c := colors[u]
			dst[c] += row[c]
		}
	}
}
