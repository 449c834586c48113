package dp

import (
	"repro/internal/comb"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/table"
)

// kernel branch identifiers: which specialization an internal node uses.
// The branch is a property of the node (child sizes + config), fixed for
// all vertices of a pass.
type kernelBranch uint8

const (
	branchGeneral       kernelBranch = iota // general (Ca, Cp) split contraction
	branchSize2                             // both children single vertices
	branchActiveSingle                      // active child is a single vertex
	branchPassiveSingle                     // passive child is a single vertex
)

// nodeCtx is one internal node's kernel context within a traversal: the
// specialization branch, the adjacency its cut edge walks, the
// combinatorial index tables and widths, and the children's lane tables.
type nodeCtx struct {
	branch kernelBranch
	// adj is the engine graph, or for a directed engine the out- or
	// in-arc CSR the node's template arc selects.
	adj     *graph.Graph
	split   *comb.SplitTable
	singles [][]comb.SingletonEntry
	nc      int // NumSets of this node: C(k, h)
	ncP     int // passive child width: C(k, pN)
	spn     int // splits per color set: C(h, aN)

	act laneTab
	pas passiveRows
	// pasLeaf is the passive child's implicit leaf table when that child
	// is a single vertex, nil otherwise: a single-vertex child is always
	// a non-root leaf, which never materializes, and a rank pass swaps
	// only materialized passive tables for its ghost rows.
	pasLeaf *leafLanes
}

// nodeCtxFor builds internal node n's kernel context over this batch's
// lane tables: materialized Multi tables for internal children, the
// implicit leafLanes of leaf children, and in a rank pass the rank's
// ghost-row surface in place of an internal passive child.
//
// On a directed engine the node also binds its adjacency here: the
// passive child's root must map to an out-neighbour of v when the
// template arc points from the node's root to the passive root, and to
// an in-neighbour otherwise.
func (st *batchState) nodeCtxFor(n *part.Node, nc int) *nodeCtx {
	e := st.e
	aN, pN := n.Active.Size(), n.Passive.Size()
	ctx := &nodeCtx{
		adj:     e.g,
		split:   e.splits[[2]int{n.Size(), aN}],
		singles: e.singles[n.Size()],
		nc:      nc,
		ncP:     int(comb.Binomial(e.k, pN)),
		act:     st.laneTabFor(n.Active),
		pas:     st.laneTabFor(n.Passive),
		pasLeaf: st.leaves[n.Passive],
	}
	ctx.spn = ctx.split.SplitsPerSet
	if e.in != nil && !e.t.HasArc(n.Root, n.Passive.Root) {
		ctx.adj = e.in
	}
	if own, ok := ctx.pas.(*table.Multi); ok && st.remote != nil {
		st.remote.own = own
		ctx.pas = st.remote
	}

	special := !e.cfg.DisableLeafSpecial
	switch {
	case special && aN == 1 && pN == 1:
		ctx.branch = branchSize2
	case special && ctx.singles != nil && aN == 1:
		ctx.branch = branchActiveSingle
	case special && ctx.singles != nil && pN == 1:
		ctx.branch = branchPassiveSingle
	default:
		ctx.branch = branchGeneral
	}
	return ctx
}

// pairTable returns the k×k pair-set index table of size-2 nodes: entry
// a·k+b is the rank of {a, b} among C(k, 2) sets, and -1 when a == b.
func pairTable(k int) []int32 {
	pairs := make([]int32, k*k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			pairs[a*k+b] = -1
			if a != b {
				pairs[a*k+b] = comb.PairIndex(a, b)
			}
		}
	}
	return pairs
}

// vertexPass computes the lane-strided color-set rows of one vertex for
// all lanes at once and stores them into tab, tallying the pass in lane
// units for RunStats.KernelAggregate.
func (st *batchState) vertexPass(ctx *nodeCtx, tab *table.Multi, v int32, sc *scratch) {
	if !ctx.act.Has(v) {
		return
	}
	adj := ctx.adj.Adj(v)
	if len(adj) == 0 {
		return
	}
	L := st.lanes
	sc.passes += int64(L)
	buf := sc.buf[:ctx.nc*L]
	clear(buf)

	switch ctx.branch {
	case branchSize2:
		st.passSize2(ctx, v, adj, buf)
	case branchActiveSingle:
		st.passActiveSingle(ctx, v, adj, buf, sc)
	case branchPassiveSingle:
		st.passPassiveSingle(ctx, v, adj, buf, sc)
	default:
		st.passGeneral(ctx, v, adj, buf, sc)
	}
	// Counts are nonnegative, so "some lane contributed" is exactly
	// "some cell is nonzero": presence is the union over lanes.
	for _, x := range buf {
		if x != 0 {
			tab.StoreRow(v, buf)
			return
		}
	}
}

// The lane kernels, one per branch of Algorithm 2's inner step. Each is
// the aggregate-first form of the GraphBLAS formulation (arXiv:1903.04395):
// the contraction distributes over the neighbor sum, so a pass first
// sums the neighbors' passive lane rows, agg[Cp] = Σ_{u∈N(v)} pas[u][Cp]
// (one row of the adjacency × passive-table product), and then contracts
// agg once against the active lane row. Every kernel walks the adjacency
// and the combinatorial index tables once per traversal, with a flat
// float64 sweep over the L-lane blocks innermost. Counts are
// integer-valued float64s, so every summation order is exact up to
// 2^53 and each lane's result is bit-identical at every lane count and
// layout.
//
// A single-vertex child is always a non-root leaf, which never gets a
// table: its read surface is the implicit *leafLanes of the coloring
// (st.leaves). Once the active leaf's Has(v) has passed, each lane's
// active root cell is exactly 1, so the size-2 and active-single kernels
// multiply by nothing.

// passSize2 handles h == 2, where both children are single vertices:
// lane j contributes only the pair set {color_j(v), color_j(u)} with
// distinct colors, so each label-matching neighbor adds 1 to the cell
// the engine's k×k pair table names.
func (st *batchState) passSize2(ctx *nodeCtx, v int32, adj []int32, buf []float64) {
	L, k := st.lanes, st.e.k
	pairs := st.e.pairs
	pas := ctx.pasLeaf
	cv := st.colors[int(v)*L:][:L]
	for _, u := range adj {
		if !pas.ok(u) {
			continue
		}
		for j, cu := range st.colors[int(u)*L:][:L] {
			if p := pairs[int(cv[j])*k+int(cu)]; p >= 0 {
				buf[int(p)*L+j]++
			}
		}
	}
}

// passActiveSingle handles aN == 1, h > 2: the active child is the root
// alone, so lane j touches only the singleton entries of color_j(v),
// whose passive part is C \ {color_j(v)} — the (k-1)/k work reduction
// of §III-D. It sums whole lane-strided passive rows first, then walks
// each lane's entry list once.
func (st *batchState) passActiveSingle(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch) {
	L := st.lanes
	agg := sc.agg[:ctx.ncP*L]
	clear(agg)
	ctx.pas.AccumulateRows(adj, agg)
	for j, cv := range st.colors[int(v)*L:][:L] {
		for _, en := range ctx.singles[cv] {
			buf[int(en.SetIdx)*L+j] += agg[int(en.RestIdx)*L+j]
		}
	}
}

// passPassiveSingle handles pN == 1, h > 2: the passive child is a single
// vertex, so neighbor u feeds lane j only through the singleton entries
// of color_j(u), with the active part C \ {color_j(u)}. The passive
// leaf's aggregation counts neighbors per (color, lane); each color with
// a nonzero count then walks its entry list once, with the lane sweep
// inline and innermost.
func (st *batchState) passPassiveSingle(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch) {
	L, k := st.lanes, st.e.k
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	cnt := sc.colorAgg[:k*L]
	clear(cnt)
	ctx.pasLeaf.AccumulateRows(adj, cnt)
	for c := 0; c < k; c++ {
		cs := cnt[c*L : c*L+L]
		nonzero := false
		for _, s := range cs {
			if s != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			continue
		}
		for _, en := range ctx.singles[c] {
			out := buf[int(en.SetIdx)*L:][:len(cs)]
			a := arow[int(en.RestIdx)*L:][:len(cs)]
			for j, s := range cs {
				out[j] += a[j] * s
			}
		}
	}
}

// passGeneral is Algorithm 2 lines 9-12 restructured as an SpMM row: one
// neighbor-aggregation sweep builds the lane-strided agg[Cp] rows on
// sequential memory, then a single split contraction runs against the
// active lane row.
func (st *batchState) passGeneral(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch) {
	L := st.lanes
	agg := sc.agg[:ctx.ncP*L]
	clear(agg)
	ctx.pas.AccumulateRows(adj, agg)
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	split, spn, nc := ctx.split, ctx.spn, ctx.nc
	for ci := 0; ci < nc; ci++ {
		out := buf[ci*L : ci*L+L]
		base := ci * spn
		for j := base; j < base+spn; j++ {
			laneMulAdd(out, arow[int(split.ActiveIdx[j])*L:], agg[int(split.PassiveIdx[j])*L:])
		}
	}
}
