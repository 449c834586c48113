package dp

import (
	"context"
	"sync/atomic"
	"time"
)

// NodeStat records the accumulated wall time spent computing one
// partition-tree node across all iterations of a run, in evaluation
// order. Internal nodes measure the DP combination pass (the paper's
// "step 12", the dominant cost per §V-A); leaves derive their cells from
// the coloring and build no table (only a root leaf materializes), so
// they read about zero.
type NodeStat struct {
	// Index is the node's position in the tree's evaluation order.
	Index int
	// Size is the subtemplate's vertex count.
	Size int
	// Leaf marks single-vertex subtemplates.
	Leaf bool
	// Time is the wall time spent filling this node's table, summed over
	// every iteration the run executed (including aborted ones). Under
	// outer/hybrid parallelism concurrent iterations' times add up, so
	// the total can exceed the run's wall-clock elapsed time.
	Time time.Duration
}

// RunStats is the per-run observability snapshot populated by RunContext
// and friends: where the time went (per node, per iteration), which
// kernels the cost model chose, and how much table storage moved.
type RunStats struct {
	// Layout names the table layout used ("lazy", "naive", "hash",
	// "succinct").
	Layout string
	// Iterations is the number of iterations that ran to completion
	// (cancelled iterations are excluded).
	Iterations int
	// IterTimes holds the wall time of each completed iteration, in seed
	// order.
	IterTimes []time.Duration
	// Nodes holds per-partition-tree-node accumulated compute times in
	// evaluation order.
	Nodes []NodeStat
	// KernelDirect and KernelAggregate count internal-node vertex passes
	// executed by each DP kernel during this run (the cost-model
	// decisions; forced modes land everything on one counter), in lane
	// units: a pass over one vertex for L lanes counts L, so the figures
	// read the same at every batch width.
	KernelDirect    int64
	KernelAggregate int64
	// RowsAllocated and RowsReleased count materialized table rows over
	// the whole run (dense layouts materialize every vertex; sparse and
	// hash layouts only touched vertices). With the eager-release
	// schedule and no KeepTables the two are equal at run end.
	RowsAllocated int64
	RowsReleased  int64
	// TablesAllocated and TablesReleased count whole subtemplate tables.
	TablesAllocated int64
	TablesReleased  int64
	// PeakTableBytes mirrors Result.PeakTableBytes: the largest live
	// table footprint of any single traversal (one batch of lanes).
	PeakTableBytes int64
	// BatchSize is the resolved lane count of the run's traversals (1 =
	// one coloring per traversal).
	BatchSize int
	// BatchesRun counts multi-lane batches that ran to completion —
	// ceil(Iterations/BatchSize) for an uncancelled run with BatchSize >
	// 1, and 0 when BatchSize is 1.
	BatchesRun int64
	// ArenaHits and ArenaMisses count table-arena slab requests served
	// from the engine's cross-iteration free lists vs fresh allocations
	// during this run. After the first iteration warms the arena, steady
	// state is all hits.
	ArenaHits   int64
	ArenaMisses int64
	// TiledPasses and TileSweeps are always 0.
	//
	// Deprecated: the column-tiled execution path was removed; the fields
	// remain so existing readers keep compiling.
	TiledPasses int64
	TileSweeps  int64
	// MemBudgetBytes is the resolved peak-memory budget the spill and
	// batch-sizing decisions used (0 = unlimited, spilling off).
	MemBudgetBytes int64
	// PeakRSSBytes is the largest process resident-set size sampled from
	// /proc/self/statm at iteration boundaries during the run (0 where
	// /proc is unavailable). Unlike PeakTableBytes it measures the whole
	// process — CSR, scratch, runtime — so it is the figure a memory
	// budget actually bounds.
	PeakRSSBytes int64
	// SpillMappedBytes and SpillSlabs snapshot the arena's file-backed
	// spill region at run end: bytes currently mapped and slabs live.
	SpillMappedBytes int64
	SpillSlabs       int64
	// ReorderApplied reports whether the engine ran on a degree-bucketed
	// vertex relabeling of the input graph.
	ReorderApplied bool
	// CachedIterations counts iterations whose per-iteration estimates
	// were served from a result cache rather than computed by this run.
	// It is always 0 for direct engine runs; serving layers that merge
	// cached estimates into a result (fascia.MergeIterations, the
	// fasciad seed-keyed cache) set it so Iterations =
	// CachedIterations + freshly computed iterations.
	CachedIterations int
	// Cancelled reports whether the run was cut short by its context.
	Cancelled bool
}

// NodeTimeTotal sums the per-node times — in sequential (inner, one
// worker per pass) runs this closely tracks the run's elapsed time.
func (s RunStats) NodeTimeTotal() time.Duration {
	var t time.Duration
	for _, n := range s.Nodes {
		t += n.Time
	}
	return t
}

// newRunStats seeds the per-node stat slots from the engine's partition
// tree.
func (e *Engine) newRunStats() RunStats {
	st := RunStats{
		Layout:         e.cfg.TableKind.String(),
		MemBudgetBytes: e.memBytes,
		ReorderApplied: e.ord != nil,
	}
	if e.tree != nil {
		st.Nodes = make([]NodeStat, len(e.tree.Order))
		for i, n := range e.tree.Order {
			st.Nodes[i] = NodeStat{Index: i, Size: n.Size(), Leaf: n.IsLeaf()}
		}
	}
	return st
}

// sampleRSS folds the current process resident-set size into the peak.
// Called at iteration/batch boundaries under the caller's run lock.
func (s *RunStats) sampleRSS() {
	if r := readRSSBytes(); r > s.PeakRSSBytes {
		s.PeakRSSBytes = r
	}
}

// mergeBatch folds one finished traversal's accounting into the stats.
// Callers serialize access (outer/hybrid modes hold the result mutex).
func (s *RunStats) mergeBatch(st *batchState) {
	for i, d := range st.nodeTimes {
		s.Nodes[i].Time += d
	}
	s.RowsAllocated += st.rowsAllocated
	s.RowsReleased += st.rowsReleased
	s.TablesAllocated += st.tablesAllocated
	s.TablesReleased += st.tablesReleased
	if st.peakBytes > s.PeakTableBytes {
		s.PeakTableBytes = st.peakBytes
	}
	s.sampleRSS()
}

// stopRequested is the iteration/batch-boundary cancellation check: it
// consults the context directly in addition to the watcher flag, because
// the AfterFunc that arms the flag fires on a separate goroutine — on a
// single-CPU runtime a fast run can drain every remaining iteration
// before that goroutine is ever scheduled. Boundaries are coarse enough
// to afford the ctx.Err() mutex; the per-vertex inner loops keep the
// one-atomic-load poll.
func stopRequested(ctx context.Context, stop *atomic.Bool) bool {
	if stop != nil && stop.Load() {
		return true
	}
	return ctx != nil && ctx.Err() != nil
}

// watchContext arms a cancellation flag that DP inner loops can poll
// with a single atomic load (cheap enough to check at every vertex).
// The returned release func detaches the watcher; it must be called to
// avoid leaking the AfterFunc registration.
func watchContext(ctx context.Context) (stop *atomic.Bool, release func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	var b atomic.Bool
	if ctx.Err() != nil {
		// AfterFunc fires asynchronously even for a dead context; set the
		// flag synchronously so not a single iteration starts.
		b.Store(true)
		return &b, func() {}
	}
	cancel := context.AfterFunc(ctx, func() { b.Store(true) })
	return &b, func() { cancel() }
}
