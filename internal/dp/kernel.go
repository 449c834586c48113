package dp

import (
	"fmt"
	"math"

	"repro/internal/comb"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/table"
)

// KernelMode selects how an internal node combines its children's tables
// (the hot inner step of Algorithm 2).
//
// The direct kernel re-runs the full (Ca, Cp) split contraction for every
// neighbor: O(deg(v) · C(k,h)·C(h,aN)) work per vertex. The aggregated
// kernel exploits that the contraction distributes over the neighbor sum
// — it first accumulates agg[Cp] = Σ_{u∈N(v)} table_p[u][Cp] into a dense
// per-worker scratch buffer (an SpMM row: adjacency × passive-count
// matrix) and then contracts ONCE against the active row, reducing the
// dominant term to O(deg(v) · C(k,pN) + C(k,h)·C(h,aN)) on sequential
// memory. Counts are integer-valued float64s, so both summation orders
// are exact and the results are bit-identical (up to 2^53).
type KernelMode int

const (
	// KernelAuto picks direct or aggregated per vertex using a
	// degree/width cost model (the default).
	KernelAuto KernelMode = iota
	// KernelDirect always re-contracts per neighbor (the seed behavior).
	KernelDirect
	// KernelAggregate always aggregates neighbor rows first.
	KernelAggregate
)

func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelDirect:
		return "direct"
	case KernelAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("KernelMode(%d)", int(m))
	}
}

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

// neverAggregate is an unreachable degree threshold.
const neverAggregate = math.MaxInt

// directCellCost calibrates the cost model for memory behavior: one cell
// touched by the direct kernel (a split-table-indexed gather plus a
// dependent multiply-add, repeated per neighbor) costs about this many
// aggregated-kernel cell operations (a sequential streaming add that the
// compiler can pipeline). Measured ~2x on amd64 across the three table
// layouts; a pure operation count (factor 1) makes auto under-aggregate
// badly on mid-size nodes where the direct gather footprint no longer
// fits in L1.
const directCellCost = 2

// kernelShape is the layout-independent per-node kernel context: the
// specialization branch, the combinatorial index tables, the table
// widths, and the resolved cost-model threshold. nodeCtx binds it to a
// traversal's lane tables; the kernel decision — a function of degree
// and widths only — is identical at every lane count.
type kernelShape struct {
	n *part.Node
	// adj is the adjacency the node's cut edge walks: the engine graph,
	// or for a directed engine the out- or in-arc CSR its template arc
	// selects.
	adj     *graph.Graph
	split   *comb.SplitTable
	singles [][]comb.SingletonEntry

	branch kernelBranch
	aN, pN int
	nc     int // NumSets of this node: C(k, h)
	ncA    int // active child width: C(k, aN)
	ncP    int // passive child width: C(k, pN)
	spn    int // splits per color set: C(h, aN)

	mode KernelMode
	// aggMinDeg is the KernelAuto decision threshold: vertices with
	// degree >= aggMinDeg run the aggregated kernel.
	aggMinDeg int
}

// kernelShapeFor builds the per-node kernel shape, resolving the kernel
// choice. The cost model compares per-vertex work at degree d, weighting
// each cell the direct kernel touches by its access pattern: the general
// direct kernel accumulates into a register (one gather per split cell,
// weight α = directCellCost), while the singleton-entry kernels scatter
// into buf per entry (source gather + buf scatter, weight 2α). Aggregated
// cells are sequential streaming adds (weight 1), and the aggregated
// contraction runs the same direct inner loop once per vertex instead of
// once per neighbor:
//
//	general:        α·d·nc·spn vs d·ncP + α·nc·spn    (E = C(k-1,h-1))
//	active-single:  2α·d·E     vs d·ncP + 2α·E
//	passive-single: 2α·d·E     vs d + 2α·k·E
//	size-2:         α·d        vs d + k   (colorAgg grouping)
//
// and solves each inequality for the break-even degree once per node.
// Aggregation never wins where the inequality has no solution — only
// active-single nodes on the upper half of the template, where each
// neighbor's dense passive row (ncP = C(k,h-1) cells) is wider than the
// 2α-weighted entry list the direct kernel reads.
//
// On a directed engine the node also binds its adjacency here: the
// passive child's root must map to an out-neighbour of v when the
// template arc points from the node's root to the passive root, and to
// an in-neighbour otherwise.
func (e *Engine) kernelShapeFor(n *part.Node, nc int) kernelShape {
	ctx := kernelShape{
		n:       n,
		adj:     e.g,
		split:   e.splits[[2]int{n.Size(), n.Active.Size()}],
		singles: e.singles[n.Size()],
		aN:      n.Active.Size(),
		pN:      n.Passive.Size(),
		nc:      nc,
		mode:    e.cfg.Kernel,
	}
	ctx.ncA = int(comb.Binomial(e.k, ctx.aN))
	ctx.ncP = int(comb.Binomial(e.k, ctx.pN))
	ctx.spn = ctx.split.SplitsPerSet
	if e.in != nil && !e.t.HasArc(n.Root, n.Passive.Root) {
		ctx.adj = e.in
	}

	special := !e.cfg.DisableLeafSpecial
	scatter := 2 * directCellCost // per-entry weight of the scatter kernels
	switch {
	case special && ctx.aN == 1 && ctx.pN == 1:
		ctx.branch = branchSize2
		// Grouping neighbors by color saves the per-neighbor pair-index
		// scatter: α·d vs d + k, i.e. d·(α-1) > k.
		ctx.aggMinDeg = e.k/(directCellCost-1) + 1
	case special && ctx.singles != nil && ctx.aN == 1:
		ctx.branch = branchActiveSingle
		// E = entries per color = C(k-1, h-1); aggregation streams the
		// full ncP-wide passive row per neighbor instead of E scattered
		// entries, so it wins when 2α·d·E > d·ncP + 2α·E, i.e.
		// d·(2α·E - ncP) > 2α·E.
		if entries := int(comb.Binomial(e.k-1, n.Size()-1)); scatter*entries > ctx.ncP {
			ctx.aggMinDeg = (scatter*entries)/(scatter*entries-ctx.ncP) + 1
		} else {
			ctx.aggMinDeg = neverAggregate
		}
	case special && ctx.singles != nil && ctx.pN == 1:
		ctx.branch = branchPassiveSingle
		// E = entries per color = C(k-1, h-1); folding neighbors into k
		// per-color sums costs one L1 add each and defers the entry
		// scatter to once per color: 2α·d·E > d + 2α·k·E, i.e.
		// d·(2α·E - 1) > 2α·k·E.
		entries := int(comb.Binomial(e.k-1, n.Size()-1))
		ctx.aggMinDeg = (scatter*e.k*entries)/(scatter*entries-1) + 1
	default:
		ctx.branch = branchGeneral
		// Aggregate wins when α·d·nc·spn > d·ncP + α·nc·spn, i.e.
		// d·(α·nc·spn - ncP) > α·nc·spn. Since nc·spn counts disjoint
		// (Ca, Cp) pairs it is always ≥ ncP, so the threshold is finite
		// (2 at the root, where nc·spn == ncP).
		ncSpn := directCellCost * ctx.nc * ctx.spn
		ctx.aggMinDeg = ncSpn/(ncSpn-ctx.ncP) + 1
	}
	return ctx
}

// useAggregate resolves the kernel for one vertex of degree deg.
func (ctx *kernelShape) useAggregate(deg int) bool {
	switch ctx.mode {
	case KernelDirect:
		return false
	case KernelAggregate:
		return true
	default:
		return deg >= ctx.aggMinDeg
	}
}

// vertexPass computes the lane-strided color-set rows of one vertex for
// all lanes at once and stores them into tab. The kernel decision is a
// function of degree and node shape only, so all lanes of a vertex run
// the same kernel; the tallies count lane units, so they read the same
// at every lane count.
func (st *batchState) vertexPass(ctx *nodeCtx, tab *table.Multi, v int32, sc *scratch) {
	if !ctx.act.Has(v) {
		return
	}
	adj := ctx.adj.Adj(v)
	if len(adj) == 0 {
		return
	}
	L := st.lanes
	aggregate := ctx.useAggregate(len(adj))
	if aggregate {
		sc.aggN += int64(L)
	} else {
		sc.directN += int64(L)
	}
	buf := sc.buf[:ctx.nc*L]
	clear(buf)

	switch ctx.branch {
	case branchSize2:
		st.passSize2(ctx, v, adj, buf, sc, aggregate)
	case branchActiveSingle:
		st.passActiveSingle(ctx, v, adj, buf, sc, aggregate)
	case branchPassiveSingle:
		st.passPassiveSingle(ctx, v, adj, buf, sc, aggregate)
	default:
		if aggregate {
			st.passGeneralAggregate(ctx, v, adj, buf, sc)
		} else {
			st.passGeneralDirect(ctx, v, adj, buf, sc)
		}
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

// The lane kernels, one per branch of Algorithm 2's inner step. Every
// kernel walks the adjacency and the combinatorial index tables exactly
// once per traversal and runs a flat float64 multiply-add over the
// L-lane blocks in its innermost loop. Counts are integer-valued
// float64s, so every summation order is exact (up to 2^53) and each
// lane's result is bit-identical at every lane count, kernel choice and
// layout. Zero-skip guards are kept only where they gate whole loops (a
// zero active cell contributes zero products either way), so dropping
// per-cell branches inside lane loops cannot change any value —
// 0·x == 0 for the finite nonnegative counts stored here.

// laneActives fills sc.avB with lane j's active root cell
// act[v][{color_j(v)}] and reports whether any lane is nonzero: a zero
// active root cell contributes nothing, so a vertex with no nonzero lane
// returns early.
func (st *batchState) laneActives(ctx *nodeCtx, v int32, sc *scratch) ([]float64, bool) {
	L := st.lanes
	avB := sc.avB[:L]
	base := int(v) * L
	any := false
	if lf, ok := ctx.act.(*leafLanes); ok {
		// Implicit leaf active child: cell (v, {color_j(v)}, j) is by
		// definition the seeded 1 (or 0 on a label mismatch).
		if !lf.ok(v) {
			return avB, false
		}
		for j := 0; j < L; j++ {
			avB[j] = 1
		}
		return avB, true
	}
	if arow := ctx.act.LaneRow(v); arow != nil {
		for j := 0; j < L; j++ {
			av := arow[int(st.colors[base+j])*L+j]
			avB[j] = av
			any = any || av != 0
		}
		return avB, any
	}
	for j := 0; j < L; j++ {
		av := ctx.act.Get(v, int32(st.colors[base+j]), j)
		avB[j] = av
		any = any || av != 0
	}
	return avB, any
}

// passSize2 handles h == 2, where both children are single vertices:
// lane j contributes only the pair set {color_j(v), color_j(u)} with
// distinct colors. The aggregated variant groups neighbors into
// per-(color, lane) sums first.
func (st *batchState) passSize2(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch, aggregate bool) {
	L := st.lanes
	avB, any := st.laneActives(ctx, v, sc)
	if !any {
		return
	}
	pas := ctx.pas
	vbase := int(v) * L
	if !aggregate {
		if lf, ok := pas.(*leafLanes); ok {
			// Implicit leaf passive child: lane j of neighbor u holds 1 at
			// u's own color and 0 elsewhere, so the contraction collapses
			// to one colors-vector read per (neighbor, lane) — no table.
			for _, u := range adj {
				if !lf.ok(u) {
					continue
				}
				ubase := int(u) * L
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					cv := int(st.colors[vbase+j])
					cu := int(st.colors[ubase+j])
					if cu == cv {
						continue
					}
					buf[int(comb.PairIndex(cv, cu))*L+j] += av // pv == 1
				}
			}
			return
		}
		for _, u := range adj {
			ubase := int(u) * L
			if prow := pas.LaneRow(u); prow != nil {
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					cv := int(st.colors[vbase+j])
					cu := int(st.colors[ubase+j])
					if cu == cv {
						continue
					}
					if pv := prow[cu*L+j]; pv != 0 {
						buf[int(comb.PairIndex(cv, cu))*L+j] += av * pv
					}
				}
			} else if pas.Has(u) { // hash layout: probe per lane
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					cv := int(st.colors[vbase+j])
					cu := int(st.colors[ubase+j])
					if cu == cv {
						continue
					}
					if pv := pas.Get(u, int32(cu), j); pv != 0 {
						buf[int(comb.PairIndex(cv, cu))*L+j] += av * pv
					}
				}
			}
		}
		return
	}
	k := st.e.k
	colorAgg := sc.colorAgg[:k*L]
	clear(colorAgg)
	pas.GatherColors(adj, st.colors, colorAgg)
	for c := 0; c < k; c++ {
		cs := colorAgg[c*L : c*L+L]
		for j, s := range cs {
			if s == 0 {
				continue
			}
			// Same-color neighbors fold into colorAgg[cv_j] but form no
			// valid pair set, so they contribute nothing.
			cv := int(st.colors[vbase+j])
			if c == cv {
				continue
			}
			if av := avB[j]; av != 0 {
				buf[int(comb.PairIndex(cv, c))*L+j] += av * s
			}
		}
	}
}

// passActiveSingle handles aN == 1, h > 2: the active child is the root
// alone, so lane j touches only the singleton entries of color_j(v) and
// the passive part is C \ {color_j(v)} — the (k-1)/k work reduction of
// §III-D. The aggregated variant sums
// whole lane-strided passive rows first, then walks each lane's entry
// list once.
func (st *batchState) passActiveSingle(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch, aggregate bool) {
	L := st.lanes
	avB, any := st.laneActives(ctx, v, sc)
	if !any {
		return
	}
	pas := ctx.pas
	vbase := int(v) * L
	if !aggregate {
		for _, u := range adj {
			if prow := pas.LaneRow(u); prow != nil {
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					for _, en := range ctx.singles[int(st.colors[vbase+j])] {
						buf[int(en.SetIdx)*L+j] += av * prow[int(en.RestIdx)*L+j]
					}
				}
			} else if pas.Has(u) { // hash layout: probe per lane
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					for _, en := range ctx.singles[int(st.colors[vbase+j])] {
						if pv := pas.Get(u, en.RestIdx, j); pv != 0 {
							buf[int(en.SetIdx)*L+j] += av * pv
						}
					}
				}
			}
		}
		return
	}
	agg := sc.agg[:ctx.ncP*L]
	clear(agg)
	pas.AccumulateRows(adj, agg)
	for j := 0; j < L; j++ {
		av := avB[j]
		if av == 0 {
			continue
		}
		for _, en := range ctx.singles[int(st.colors[vbase+j])] {
			buf[int(en.SetIdx)*L+j] += av * agg[int(en.RestIdx)*L+j]
		}
	}
}

// passPassiveSingle handles pN == 1, h > 2: the passive child is a single
// vertex, so for neighbor u lane j touches only the singleton entries of
// color_j(u), with the active part C \ {color_j(u)}. The aggregated
// variant folds neighbors into k·L per-(color, lane) sums and walks each
// color's entry list once, with the lane sweep innermost on contiguous
// blocks.
func (st *batchState) passPassiveSingle(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch, aggregate bool) {
	L := st.lanes
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	pas := ctx.pas
	if !aggregate {
		if lf, ok := pas.(*leafLanes); ok {
			// Implicit leaf passive child: pv is 1 at u's own lane color,
			// so only that color's singleton entries contribute.
			for _, u := range adj {
				if !lf.ok(u) {
					continue
				}
				ubase := int(u) * L
				for j := 0; j < L; j++ {
					cu := int(st.colors[ubase+j])
					for _, en := range ctx.singles[cu] {
						if av := arow[int(en.RestIdx)*L+j]; av != 0 {
							buf[int(en.SetIdx)*L+j] += av // pv == 1
						}
					}
				}
			}
			return
		}
		for _, u := range adj {
			ubase := int(u) * L
			if prow := pas.LaneRow(u); prow != nil {
				for j := 0; j < L; j++ {
					cu := int(st.colors[ubase+j])
					pv := prow[cu*L+j]
					if pv == 0 {
						continue
					}
					for _, en := range ctx.singles[cu] {
						if av := arow[int(en.RestIdx)*L+j]; av != 0 {
							buf[int(en.SetIdx)*L+j] += av * pv
						}
					}
				}
			} else if pas.Has(u) { // hash layout: probe per lane
				for j := 0; j < L; j++ {
					cu := int(st.colors[ubase+j])
					pv := pas.Get(u, int32(cu), j)
					if pv == 0 {
						continue
					}
					for _, en := range ctx.singles[cu] {
						if av := arow[int(en.RestIdx)*L+j]; av != 0 {
							buf[int(en.SetIdx)*L+j] += av * pv
						}
					}
				}
			}
		}
		return
	}
	k := st.e.k
	colorAgg := sc.colorAgg[:k*L]
	clear(colorAgg)
	pas.GatherColors(adj, st.colors, colorAgg)
	for c := 0; c < k; c++ {
		cs := colorAgg[c*L : c*L+L]
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
			laneMulAdd(buf[int(en.SetIdx)*L:][:L], arow[int(en.RestIdx)*L:], cs)
		}
	}
}

// passGeneralDirect is Algorithm 2 lines 9-12: for every neighbor u,
// every color set C, and every (Ca, Cp) split, run the multiply-add
// across all lanes of the contiguous lane blocks.
func (st *batchState) passGeneralDirect(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch) {
	L := st.lanes
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	pas := ctx.pas
	split, spn, nc := ctx.split, ctx.spn, ctx.nc
	for _, u := range adj {
		prow := pas.LaneRow(u)
		if prow == nil {
			if !pas.Has(u) {
				continue
			}
			prow = pas.MaterializeRow(u, sc.pasRow)
		}
		for ci := 0; ci < nc; ci++ {
			out := buf[ci*L : ci*L+L]
			base := ci * spn
			for j := base; j < base+spn; j++ {
				laneMulAdd(out, arow[int(split.ActiveIdx[j])*L:], prow[int(split.PassiveIdx[j])*L:])
			}
		}
	}
}

// passGeneralAggregate is the SpMM-style restructure of the general
// split: one neighbor-aggregation sweep builds the lane-strided agg[Cp]
// rows on sequential memory, then a single split contraction runs
// against the active lane row.
func (st *batchState) passGeneralAggregate(ctx *nodeCtx, v int32, adj []int32, buf []float64, sc *scratch) {
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
