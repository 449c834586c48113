package dp

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comb"
	"repro/internal/part"
	"repro/internal/table"
)

// batchState runs L independent color-coding iterations ("lanes")
// through ONE bottom-up DP traversal: per-vertex colors widen to
// lane-strided vectors, table cells widen to [L]float64 lane blocks
// (table.Multi), and every computeNode pass walks the adjacency and
// enumerates the (Ca, Cp) splits once per batch instead of once per
// iteration. Lane j colors with seed base+j — exactly the seed stream a
// one-lane schedule uses — and counts are integer-valued float64s, so
// per-lane totals are bit-identical at every lane count. A single
// iteration is simply a batch of one lane: fixed and converged runs,
// per-vertex counts, sampling, profiling and the bag DP all run on this
// state.
type batchState struct {
	e     *Engine
	lanes int
	// arena supplies the batch's table slabs and coloring and takes them
	// back on release: the engine arena, or a concurrent slot's own.
	arena *table.Arena
	// colors is the lane-strided coloring: lane j of vertex v is
	// colors[v*lanes+j].
	colors []int8
	tabs   map[*part.Node]*table.Multi
	// leaves holds the implicit lane tables of non-root leaves: their
	// cells derive from the coloring (leafLanes), so nothing is
	// allocated or initialized for them.
	leaves    map[*part.Node]*leafLanes
	remaining map[*part.Node]int
	liveBytes int64
	peakBytes int64
	workers   int
	// lo and hi bound the vertex block the traversal computes rows for:
	// the whole graph, or one rank's owned block in a RankPass.
	lo, hi int32
	// remote, when non-nil, is a rank pass's passive-child read surface:
	// computeNode binds it to the materialized passive child so remote
	// neighbors read the ghost rows the rank received.
	remote *rankTab
	// keep retains every table and the coloring after run (no eager
	// release) for callers that read them — KeepTables sampling and
	// VertexCounts; they hand the state back with release.
	keep bool

	// stop, when non-nil, is the cancellation flag armed by the run's
	// context watcher. DP loops poll it at vertex granularity (one
	// atomic load per vertex pass, negligible next to the pass itself).
	stop *atomic.Bool
	// aborted records that the batch was cut short; its totals are
	// meaningless and its tables have been released.
	aborted bool
	// totals holds the per-lane colorful mapping totals after run.
	totals []float64
	// nodeTimes, when non-nil, accumulates per-node wall time in tree
	// evaluation order (observability; nil skips the clock calls).
	nodeTimes []time.Duration

	rowsAllocated, rowsReleased     int64
	tablesAllocated, tablesReleased int64
}

// scratch is the per-worker lane scratch, pooled on the Engine so it is
// reused across nodes, workers, and traversals. Every row buffer is
// sized to the engine's widest table times its batch width, which
// covers any traversal of at most Engine.batch lanes.
type scratch struct {
	buf      []float64 // output rows, nc*L
	actRow   []float64 // materialized active lane row (hash/succinct fallback)
	pasRow   []float64 // materialized passive lane row (hash/succinct fallback)
	agg      []float64 // aggregated neighbor lane rows, ncP*L
	colorAgg []float64 // per-(color, lane) neighbor sums, k*L
	avB      []float64 // per-lane active root-cell values, L
	// kernel-choice tallies in lane units, flushed on putScratch.
	directN int64
	aggN    int64
}

func (e *Engine) getScratch() *scratch {
	return e.scratchPool.Get().(*scratch)
}

// putScratch returns scratch to the pool, flushing its kernel tallies.
func (e *Engine) putScratch(sc *scratch) {
	if sc.directN != 0 {
		e.kernelDirect.Add(sc.directN)
		sc.directN = 0
	}
	if sc.aggN != 0 {
		e.kernelAggregate.Add(sc.aggN)
		sc.aggN = 0
	}
	e.scratchPool.Put(sc)
}

// newBatchState prepares a batch of lanes colorings: lane j is colored
// by rand.NewSource(baseSeed+j) drawing exactly the per-vertex stream a
// one-lane traversal with that seed would draw. lanes must not exceed
// the engine's batch width (the pooled scratch is sized to it). The
// state draws its slabs from arena and returns them there.
func (e *Engine) newBatchState(arena *table.Arena, baseSeed int64, lanes, workers int) *batchState {
	n := e.g.N()
	st := &batchState{
		e:         e,
		lanes:     lanes,
		arena:     arena,
		colors:    arena.I8(n * lanes),
		tabs:      map[*part.Node]*table.Multi{},
		leaves:    map[*part.Node]*leafLanes{},
		remaining: map[*part.Node]int{},
		workers:   workers,
		hi:        int32(n),
		totals:    make([]float64, lanes),
	}
	for j := 0; j < lanes; j++ {
		rng := rand.New(rand.NewSource(baseSeed + int64(j)))
		if e.ord != nil {
			// Degree-bucketed execution order: draw the stream in
			// ORIGINAL vertex-id order (the exact per-vertex sequence an
			// unreordered run consumes) and scatter through the
			// permutation, so every original vertex keeps its color and
			// the estimate stream stays bit-identical.
			perm := e.ord.Perm
			for v := 0; v < n; v++ {
				st.colors[int(perm[v])*lanes+j] = int8(rng.Intn(e.k))
			}
		} else {
			for v := 0; v < n; v++ {
				st.colors[v*lanes+j] = int8(rng.Intn(e.k))
			}
		}
	}
	if e.tree != nil {
		for _, nd := range e.tree.Nodes {
			st.remaining[nd] = nd.Consumers
		}
	}
	return st
}

func (st *batchState) cancelled() bool {
	return st.stop != nil && st.stop.Load()
}

// run executes the bottom-up DP once for all lanes and fills st.totals
// with the per-lane colorful mapping totals. On cancellation it releases
// everything, marks the state aborted, and returns early — the caller
// must discard the whole batch.
func (st *batchState) run() {
	e := st.e
	if e.bag != nil {
		st.totals[0] = st.runBag()
		return
	}
	for ni, n := range e.tree.Order {
		if !st.step(ni, n) {
			return
		}
	}
	st.tabs[e.tree.Root].Totals(st.totals)
	if !st.keep {
		st.release()
	}
}

// step evaluates node n, at position ni of the tree's evaluation order,
// over the vertex block [lo, hi) and releases the children it consumed.
// On cancellation it aborts the state and reports false.
func (st *batchState) step(ni int, n *part.Node) bool {
	e := st.e
	if st.cancelled() {
		st.abort()
		return false
	}
	var nodeStart time.Time
	if st.nodeTimes != nil {
		nodeStart = time.Now()
	}
	if n.IsLeaf() && n != e.tree.Root {
		// Implicit leaf: cells derive from the coloring via leafLanes —
		// no leaf table to allocate, fill, or stream through the child
		// kernels.
		st.leaves[n] = st.newLeafLanes(n)
		if st.nodeTimes != nil {
			st.nodeTimes[ni] += time.Since(nodeStart)
		}
		return true
	}
	nc := int(comb.Binomial(e.k, n.Size()))
	tab := table.NewMulti(e.cfg.TableKind, e.g.N(), nc, st.lanes, st.arena)
	st.tabs[n] = tab
	if n.IsLeaf() {
		st.initLeaf(n, tab)
	} else {
		st.computeNode(n, tab)
	}
	if st.nodeTimes != nil {
		st.nodeTimes[ni] += time.Since(nodeStart)
	}
	st.tablesAllocated++
	st.rowsAllocated += tab.Rows()
	if st.cancelled() {
		// The pass aborted mid-node; the table is partial garbage.
		st.abort()
		return false
	}
	st.liveBytes += tab.Bytes()
	if st.liveBytes > st.peakBytes {
		st.peakBytes = st.liveBytes
	}
	if !n.IsLeaf() {
		st.releaseChildren(n)
	}
	return true
}

// abort releases every live table after a cancellation and marks the
// batch as discarded.
func (st *batchState) abort() {
	st.aborted = true
	st.release()
}

// release returns every live table and the coloring to the batch's
// arena. leafLanes alias the coloring, so they are dropped with it.
func (st *batchState) release() {
	//lint:maporder ok — release-only loop: the stats it folds are commutative integer sums, and teardown order cannot affect any estimate
	for n, tab := range st.tabs {
		st.rowsReleased += tab.Rows()
		st.tablesReleased++
		tab.Release()
		delete(st.tabs, n)
	}
	st.liveBytes = 0
	st.arena.PutI8(st.colors)
	st.colors = nil
	st.leaves = nil
}

func (st *batchState) releaseChildren(n *part.Node) {
	if st.keep {
		return
	}
	for _, ch := range []*part.Node{n.Active, n.Passive} {
		st.remaining[ch]--
		if st.remaining[ch] == 0 {
			if tab, ok := st.tabs[ch]; ok {
				st.liveBytes -= tab.Bytes()
				st.rowsReleased += tab.Rows()
				st.tablesReleased++
				tab.Release()
				delete(st.tabs, ch)
			} else {
				// Implicit leaf: nothing allocated, nothing to release.
				delete(st.leaves, ch)
			}
		}
	}
}

// initLeaf fills a root leaf's lane table (single-vertex templates, the
// one leaf that materializes): vertex v holds count 1 for the singleton
// color set {color_j(v)} in lane j — but only when v's graph label
// matches the leaf's template label (Algorithm 2, line 4, plus the
// labeled pruning of §V-A; label pruning is lane-independent).
func (st *batchState) initLeaf(n *part.Node, tab *table.Multi) {
	e := st.e
	L := st.lanes
	labeled := e.t.Labeled()
	var want int32
	if labeled {
		want = e.t.Label(n.LeafVertex())
	}
	for v := st.lo; v < st.hi; v++ {
		if labeled && e.g.Label(v) != want {
			continue
		}
		base := int(v) * L
		for j := 0; j < L; j++ {
			// The combinatorial index of the singleton {c} is c itself.
			tab.Set(v, int32(st.colors[base+j]), j, 1)
		}
	}
}

// nodeCtx binds a node's kernel shape to this batch's lane tables
// (materialized Multi for internal children, implicit leafLanes for leaf
// children).
type nodeCtx struct {
	kernelShape
	act, pas laneTab
}

// laneTabFor resolves a node to its lane-table read surface.
func (st *batchState) laneTabFor(n *part.Node) laneTab {
	if tab, ok := st.tabs[n]; ok {
		return tab
	}
	return st.leaves[n]
}

// computeNode fills an internal node's lane table from its children's
// (Algorithm 2, lines 7-15) over the block [lo, hi), sharding vertices
// across workers.
//
// Workers never read the table being written (vertex passes read only
// the children's completed tables), so for layouts that are unsafe for
// concurrent writers (Hash) each worker fills a private staging table
// lock-free and the stagings are merged after the barrier — no global
// store mutex serializing the workers.
func (st *batchState) computeNode(n *part.Node, tab *table.Multi) {
	e := st.e
	ctx := &nodeCtx{
		kernelShape: e.kernelShapeFor(n, tab.NumSets()),
		act:         st.laneTabFor(n.Active),
		pas:         st.laneTabFor(n.Passive),
	}
	if st.remote != nil {
		if own, ok := ctx.pas.(*table.Multi); ok {
			st.remote.own = own
			ctx.pas = st.remote
		}
	}
	lo, hi := st.lo, st.hi

	if st.workers <= 1 {
		sc := e.getScratch()
		for v := lo; v < hi; v++ {
			if st.cancelled() {
				break
			}
			st.vertexPass(ctx, tab, v, sc)
		}
		e.putScratch(sc)
		return
	}

	stage := tab.IsHash()
	var stagings []*table.Multi
	if stage {
		stagings = make([]*table.Multi, st.workers)
	}
	chunk := int32(chunkFor(int(hi-lo), st.workers))
	var next atomic.Int32
	next.Store(lo)
	var wg sync.WaitGroup
	for w := 0; w < st.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			target := tab
			if stage {
				s := table.NewMulti(table.Hash, e.g.N(), ctx.nc, st.lanes, st.arena)
				stagings[w] = s
				target = s
			}
			sc := e.getScratch()
			defer e.putScratch(sc)
			for {
				start := next.Add(chunk) - chunk
				if start >= hi {
					return
				}
				end := min(start+chunk, hi)
				for v := start; v < end; v++ {
					if st.cancelled() {
						return
					}
					st.vertexPass(ctx, target, v, sc)
				}
			}
		}(w)
	}
	wg.Wait()
	if stage {
		for _, s := range stagings {
			if s != nil {
				tab.MergeFrom(s)
				s.Release()
			}
		}
	}
}

// chunkOverride, when positive, pins the work-stealing chunk size — a
// benchmark knob for comparing against the historical constant (512).
// Set it only while no DP pass is running.
var chunkOverride int

// chunkFor sizes the work-stealing chunks of the inner-parallel vertex
// loop. The historical constant 512 under-splits small graphs (a worker
// can end up with one giant chunk while others idle) and over-splits
// huge ones (atomic contention on the shared cursor). Targeting ~8
// chunks per worker balances stealing granularity against cursor
// traffic, with a floor that keeps per-chunk overhead negligible and a
// ceiling that preserves stealing on degree-skewed graphs, where one
// chunk of hubs can cost many times a chunk of leaves.
func chunkFor(nVerts, workers int) int {
	if chunkOverride > 0 {
		return chunkOverride
	}
	const (
		chunksPerWorker = 8
		minChunk        = 64
		maxChunk        = 4096
	)
	c := nVerts / (workers * chunksPerWorker)
	if c < minChunk {
		return minChunk
	}
	if c > maxChunk {
		return maxChunk
	}
	return c
}
