// Package dp implements the color-coding dynamic program at the heart of
// FASCIA (Algorithm 2 of the paper): random graph coloring, a bottom-up
// pass over the template's partition tree that counts colorful rooted
// mappings per (subtemplate, vertex, color set), single-vertex-child
// specializations, labeled-template pruning, two goroutine parallelization
// modes (inner: vertices sharded per pass; outer: concurrent independent
// iterations), peak table-memory tracking, per-vertex rooted counts for
// graphlet-degree analysis, and uniform sampling of colorful embeddings
// (the "enumeration" side of FASCIA).
package dp

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comb"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// Mode selects the parallelization strategy of §III-E.
type Mode int

const (
	// Auto picks Inner for large graphs and Outer for small ones, as the
	// paper recommends; bag engines always take Outer.
	Auto Mode = iota
	// Inner parallelizes the per-vertex loop inside each DP pass.
	Inner
	// Outer runs whole iterations concurrently, each with its own tables.
	Outer
	// Hybrid combines both (the paper's stated future work): several
	// iterations run concurrently, each itself using inner-loop workers.
	// Worker budget is split roughly evenly between the two levels.
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Inner:
		return "inner"
	case Outer:
		return "outer"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// autoInnerThreshold is the vertex count above which Auto chooses Inner:
// below it, per-pass fork/join overhead dominates and running whole
// iterations concurrently wins (the paper's observation on Enron-sized
// graphs versus Portland).
const autoInnerThreshold = 200_000

// Config controls a counting run.
type Config struct {
	// Colors is the number of colors k (>= template size); 0 means
	// exactly the template size, the paper's default.
	Colors int
	// TableKind selects the dynamic-table layout.
	TableKind table.Kind
	// Strategy selects the partitioning heuristic.
	Strategy part.Strategy
	// Share merges isomorphic rooted subtemplates (memory for time).
	Share bool
	// Mode selects the parallelization strategy. Bag-DP engines
	// (non-tree templates, and trees under ForceBagDP) have no inner
	// workers: Auto and Hybrid resolve to Outer for them, and an
	// explicit Inner runs their iterations one at a time.
	Mode Mode
	// Workers bounds the goroutines used; 0 means GOMAXPROCS.
	Workers int
	// Seed makes runs reproducible. Iteration i derives its coloring
	// from Seed+i, so Inner and Outer modes produce identical estimates.
	Seed int64
	// RootVertex, when >= 0, forces the template root vertex; negative
	// lets the partitioning strategy choose (DefaultConfig sets -1; any
	// root yields correct totals, the choice only affects performance
	// and the meaning of per-vertex counts).
	RootVertex int
	// DisableLeafSpecial turns off the single-vertex-child fast paths
	// (ablation switch; results must not change).
	DisableLeafSpecial bool
	// Batch is the number of independent colorings ("lanes") each DP
	// traversal of Run/RunContext carries: every traversal walks the
	// adjacency and split tables once for all of its lanes, with table
	// cells widened to [B]float64 lane blocks. 0 or 1 runs one lane per
	// traversal, and BatchAuto (any negative value) sizes B from the
	// table widths and a per-lane memory budget. Peak table memory grows
	// by B× a single iteration. Estimates are bit-identical at every
	// width: lane j of batch b colors with seed Seed + b·B + j, the same
	// per-iteration seed stream at every B. VertexCounts, RunConverged,
	// ColorfulTotal and KeepTables sampling runs traverse one lane at a
	// time (they need one coloring's tables, or stop per iteration).
	Batch int
	// KeepTables retains all subtemplate tables after a run, enabling
	// embedding sampling at the cost of the memory the eager-release
	// schedule would have saved. It forces Share off.
	KeepTables bool
	// MemBudgetBytes bounds peak table memory: when > 0, table slabs at
	// least spillMinBytes large are drawn from unlinked file-backed
	// mappings the OS can page out under pressure, and the automatic
	// batch sizer caps its lane budget at half the budget, so peak RSS
	// stays bounded independent of graph size. 0 defers to the
	// FASCIA_MEM_BYTES environment variable (unset = unlimited), and < 0
	// disables spilling. Spilling only relocates storage; estimates are
	// bit-identical in every setting.
	MemBudgetBytes int64
	// Reorder controls the degree-bucketed vertex relabeling applied at
	// engine construction: ReorderAuto (default) enables it on large
	// degree-skewed graphs, ReorderOn forces it, ReorderOff disables it.
	// Colorings are drawn in original-id order and scattered through the
	// permutation, so estimates are bit-identical in every setting;
	// KeepTables forces it off (sampling reads tables by graph id).
	Reorder ReorderMode
	// OnIteration, when non-nil, is called after every completed
	// iteration with its seed index, its estimate, and the wall time
	// elapsed since the run started — a progress hook. Under outer and
	// hybrid parallelism calls are serialized but indices may arrive out
	// of order, and a cancelled run may report iterations past the
	// seed-order prefix it keeps; the callback must not block for long
	// (it holds the run's result lock).
	OnIteration func(i int, estimate float64, elapsed time.Duration)
	// ForceBagDP routes tree templates through the tree-decomposition
	// bag DP (the engine non-tree templates always use) instead of the
	// partition-tree DP. It exists to pin the reduction: on a tree
	// template the bag DP's per-iteration estimates must be bit-identical
	// to the partition-tree DP's. Incompatible with KeepTables,
	// RootVertex, and Batch > 1, like any non-tree run.
	ForceBagDP bool
}

// DefaultConfig returns the paper-faithful defaults: k = template size,
// lazy ("improved") tables, one-at-a-time partitioning without sharing,
// automatic parallel mode.
func DefaultConfig() Config {
	return Config{
		TableKind:  table.Lazy,
		Strategy:   part.OneAtATime,
		Share:      false,
		Mode:       Auto,
		RootVertex: -1,
	}
}

// BatchAuto, assigned to Config.Batch, asks the engine to size the lane
// count automatically from the table widths and batchMemBudget.
const BatchAuto = -1

// maxBatch bounds the lane count: beyond this the lane blocks outgrow
// the amortization win and per-batch memory dominates.
const maxBatch = 64

// batchMemBudget is the automatic batch sizer's cap on the estimated
// peak batched table footprint (lanes × per-lane dense-table bytes).
const batchMemBudget = 256 << 20

// Engine runs color-coding iterations for one (graph, template) pair.
type Engine struct {
	g *graph.Graph
	// in, when non-nil, marks a directed engine (NewDirected): g is then
	// the digraph's out-arc CSR and in its in-arc CSR, and each partition
	// node walks the one its cut arc selects (kernelShapeFor).
	in  *graph.Graph
	t   *tmpl.Template
	cfg Config

	k    int // number of colors
	tree *part.Tree
	// bag, when non-nil, is the nice tree decomposition driving the
	// beyond-trees DP; tree is nil in that case, and iterations run
	// through runBag instead of the partition-tree pass.
	bag    *tmpl.Decomposition
	bagOps []bagOp // per-decomposition-node evaluation plan
	prob   float64 // probability a fixed template-size set is colorful
	aut    int64   // |Aut(T)|
	rAut   int64   // automorphisms fixing the partition root
	maxNC  int     // largest NumSets over all nodes
	batch  int     // resolved lane count of Run's traversals

	// ord, when non-nil, is the degree-bucketed vertex relabeling under
	// which e.g was rebuilt; Orig maps engine ids back to the caller's.
	ord *graph.Ordering
	// memBytes is the resolved peak-memory budget (0 = unlimited).
	memBytes int64

	splits  map[[2]int]*comb.SplitTable     // (size, activeSize) -> table
	singles map[int][][]comb.SingletonEntry // size -> per-color entries
	pairs   []int32                         // size-2 pair-set table (pairTable), nil when unused

	// arena recycles table backing slabs and color vectors across
	// iterations and batches (engine-lifetime free lists). It is also
	// the arena of concurrent batch slot 0.
	arena *table.Arena
	// slotArenas[w-1] is the arena of concurrent batch slot w >= 1 (see
	// runBatches), created on first use.
	slotArenas []*table.Arena

	// scratchPool recycles per-worker lane scratch buffers across nodes,
	// workers, and traversals (concurrent traversals share it too).
	scratchPool sync.Pool
	// rngs recycles the *rand.Rand newBatchState colors with: a fresh
	// source costs about 5 KB, and Seed restarts a recycled one on
	// exactly the stream rand.NewSource(seed) yields.
	rngs sync.Pool
	// kernelPasses counts internal-node vertex passes, in lane units,
	// since engine creation (RunStats.KernelAggregate reports a run's
	// share).
	kernelPasses atomic.Int64

	// kept is the finished one-lane state of the last iteration when
	// cfg.KeepTables is set: its tables and coloring outlive the run for
	// SampleEmbeddings.
	kept *batchState
}

// RowWidthError is New's error for a template and color count whose DP
// rows could exceed comb.MaxRowCells cells.
type RowWidthError struct {
	K, Colors int   // template vertices and colors
	Cells     int64 // cells in the widest row
}

func (e *RowWidthError) Error() string {
	return fmt.Sprintf("dp: %d colors for a %d-vertex template allow rows of %d cells, above the %d-cell cap",
		e.Colors, e.K, e.Cells, comb.MaxRowCells)
}

// CheckRowWidth returns a *RowWidthError when colors colors (0 = k) for
// a k-vertex template allow a DP row wider than comb.MaxRowCells cells.
// A partition-tree row over an h-vertex subtemplate holds C(colors, h)
// cells and a bag-DP row at most as many, so the widest is C(colors, h)
// at the h <= k nearest colors/2. It only does arithmetic, so a server
// can refuse a query before admitting it. Color counts outside [k,
// comb.MaxColors] are New's other errors; CheckRowWidth passes them.
func CheckRowWidth(k, colors int) error {
	if colors == 0 {
		colors = k
	}
	if colors < k || colors > comb.MaxColors {
		return nil
	}
	if cells := comb.Binomial(colors, min(k, colors/2)); cells > comb.MaxRowCells {
		return &RowWidthError{K: k, Colors: colors, Cells: cells}
	}
	return nil
}

// TableSizeError is New's error for a template whose combinatorial
// index tables would together exceed comb.MaxIndexBytes: the split and
// singleton tables of a partition tree, or the split, gather and
// scatter tables of a bag-DP decomposition.
type TableSizeError struct {
	K, Colors int   // template vertices and colors
	Bytes     int64 // summed index-table bytes
}

func (e *TableSizeError) Error() string {
	return fmt.Sprintf("dp: %d colors for a %d-vertex template need %d bytes of index tables, above the %d-byte cap",
		e.Colors, e.K, e.Bytes, comb.MaxIndexBytes)
}

// CheckTables returns the typed size error New would return for template
// t at colors colors (0 = t.K()) under strategy, without a graph: a
// *RowWidthError (CheckRowWidth), or a *TableSizeError when the
// template's index tables exceed comb.MaxIndexBytes. For a tree those
// are the split and singleton tables of the unshared, automatically
// rooted partition tree; for any other template, the split, gather and
// scatter tables of the bag DP over its tree decomposition. It builds
// only the tree or the decomposition, so a server can refuse a query
// before admitting it. Color counts outside [t.K(), comb.MaxColors] and
// templates New cannot decompose are New's other errors; CheckTables
// passes them.
func CheckTables(t *tmpl.Template, colors int, strategy part.Strategy) error {
	if err := CheckRowWidth(t.K(), colors); err != nil {
		return err
	}
	k := colors
	if k == 0 {
		k = t.K()
	}
	if k < t.K() || k > comb.MaxColors {
		return nil
	}
	if !t.IsTree() {
		d, err := tmpl.Decompose(t)
		if err != nil {
			return nil // New reports it
		}
		return checkBagBytes(d, t.K(), k)
	}
	tree, err := part.Build(t, strategy, false)
	if err != nil {
		return nil // New reports it
	}
	return checkIndexBytes(tree, k, true)
}

// checkIndexBytes sums the split and singleton tables New builds for
// tree at k colors — one split table per distinct (size, active size),
// one singleton table per distinct size that takes a single-vertex-child
// fast path when leafSpecial is set — and returns a *TableSizeError above
// comb.MaxIndexBytes.
func checkIndexBytes(tree *part.Tree, k int, leafSpecial bool) error {
	seen := map[[2]int]bool{}
	var bytes int64
	for _, n := range tree.Nodes {
		if n.IsLeaf() {
			continue
		}
		h, aN := n.Size(), n.Active.Size()
		if key := [2]int{h, aN}; !seen[key] {
			seen[key] = true
			bytes += comb.SplitTableBytes(k, h, aN)
		}
		// Singleton tables key on h alone; aN = 0 never names a split.
		if key := [2]int{h, 0}; leafSpecial && usesSingles(h, aN) && !seen[key] {
			seen[key] = true
			bytes += comb.SingletonBytes(k, h)
		}
	}
	if bytes > comb.MaxIndexBytes {
		return &TableSizeError{K: tree.Template.K(), Colors: k, Bytes: bytes}
	}
	return nil
}

// usesSingles reports whether a size-h node with an aN-vertex active
// child takes a single-vertex-child fast path, which reads the
// singleton tables of size h.
func usesSingles(h, aN int) bool {
	return h > 2 && (aN == 1 || h-aN == 1)
}

// New validates the configuration and precomputes the partition tree and
// all combinatorial index tables. Oriented templates need a digraph
// (NewDirected).
func New(g *graph.Graph, t *tmpl.Template, cfg Config) (*Engine, error) {
	if t != nil && t.Oriented() {
		return nil, fmt.Errorf("dp: oriented template %s needs a directed graph", t.Name())
	}
	return newEngine(g, nil, t, cfg)
}

// NewDirected is New for an oriented tree template on a digraph, the
// directed variant of color coding the paper notes in §II-C: a partition
// node whose template arc points from its root to its passive child's
// root walks out-arcs, and the others walk in-arcs. Every kernel,
// layout, lane width and parallel mode applies. Share is forced off,
// because the partition tree's subtemplate codes ignore arc directions,
// and so is Reorder, which would have to relabel both CSRs. KeepTables
// and ForceBagDP are refused: embedding sampling and the bag DP walk
// undirected adjacency.
func NewDirected(g *graph.Digraph, t *tmpl.Template, cfg Config) (*Engine, error) {
	if g == nil || t == nil {
		return nil, fmt.Errorf("dp: nil graph or template")
	}
	if !t.Oriented() {
		return nil, fmt.Errorf("dp: template %s has no arc directions; count it on an undirected graph", t.Name())
	}
	if cfg.KeepTables || cfg.ForceBagDP {
		return nil, fmt.Errorf("dp: directed counting supports neither KeepTables nor ForceBagDP")
	}
	cfg.Share = false
	cfg.Reorder = ReorderOff
	return newEngine(g.OutCSR(), g.InCSR(), t, cfg)
}

// newEngine is the body of New and NewDirected: in is nil for an
// undirected engine, and the in-arc CSR of a directed one whose out-arc
// CSR is g.
func newEngine(g, in *graph.Graph, t *tmpl.Template, cfg Config) (*Engine, error) {
	if g == nil || t == nil {
		return nil, fmt.Errorf("dp: nil graph or template")
	}
	k := cfg.Colors
	if k == 0 {
		k = t.K()
	}
	if k < t.K() {
		return nil, fmt.Errorf("dp: %d colors for a %d-vertex template", k, t.K())
	}
	if k > comb.MaxColors {
		return nil, fmt.Errorf("dp: %d colors exceeds supported maximum %d", k, comb.MaxColors)
	}
	if err := CheckRowWidth(t.K(), k); err != nil {
		return nil, err
	}
	if t.Labeled() && g.Labels == nil {
		return nil, fmt.Errorf("dp: labeled template requires a labeled graph")
	}
	if !t.IsTree() || cfg.ForceBagDP {
		return newBagEngine(g, t, cfg, k)
	}
	share := cfg.Share
	if cfg.KeepTables {
		// Sampling reconstructs embeddings from vertex identities, which
		// sharing erases.
		share = false
	}
	tree, err := part.BuildRooted(t, cfg.Strategy, share, cfg.RootVertex)
	if err != nil {
		return nil, err
	}
	if err := checkIndexBytes(tree, k, !cfg.DisableLeafSpecial); err != nil {
		return nil, err
	}
	e := &Engine{
		g: g, in: in, t: t, cfg: cfg, k: k, tree: tree,
		prob:    colorfulProbability(k, t.K()),
		aut:     t.Automorphisms(),
		rAut:    t.RootedAutomorphisms(tree.Root.Root),
		splits:  map[[2]int]*comb.SplitTable{},
		singles: map[int][][]comb.SingletonEntry{},
		arena:   &table.Arena{},
	}
	e.memBytes = resolveMemBytes(cfg.MemBudgetBytes)
	if e.memBytes > 0 {
		// Out-of-core mode: large table slabs move to unlinked
		// file-backed mappings so the resident set can stay within the
		// budget even when the summed table footprint exceeds it.
		e.arena.SetSpill(0)
	}
	if e.shouldReorder() {
		e.ord = graph.DegreeBucketOrdering(g)
		e.g = g.Relabel(e.ord)
	}
	for _, n := range tree.Nodes {
		nc := int(comb.Binomial(k, n.Size()))
		if nc > e.maxNC {
			e.maxNC = nc
		}
		if n.IsLeaf() {
			continue
		}
		h, aN := n.Size(), n.Active.Size()
		key := [2]int{h, aN}
		if _, ok := e.splits[key]; !ok {
			e.splits[key] = comb.NewSplitTable(k, h, aN)
		}
		if !cfg.DisableLeafSpecial && usesSingles(h, aN) {
			if _, ok := e.singles[h]; !ok {
				e.singles[h] = comb.SingletonSplits(k, h)
			}
		}
		if !cfg.DisableLeafSpecial && h == 2 && e.pairs == nil {
			e.pairs = pairTable(k)
		}
	}
	e.batch = e.resolveBatch()
	e.scratchPool.New = func() any {
		w := e.maxNC * e.batch
		return &scratch{
			buf:      make([]float64, w),
			actRow:   make([]float64, w),
			agg:      make([]float64, w),
			colorAgg: make([]float64, e.k*e.batch),
		}
	}
	return e, nil
}

// resolveBatch lowers Config.Batch to a concrete lane count.
func (e *Engine) resolveBatch() int {
	b := e.cfg.Batch
	if e.cfg.KeepTables {
		// Embedding sampling reads one coloring's tables; batching would
		// interleave B colorings in them.
		return 1
	}
	if b < 0 { // BatchAuto
		// Estimated per-lane peak: the two widest concurrently-live
		// tables at a float64 per cell (the hash layout's occupancy
		// cannot be assumed small a priori). Grow B in powers of two
		// while the batched footprint stays under budget; an explicit
		// memory budget halves for the batch sizer so the CSR, scratch,
		// and the second live table fit alongside.
		perLane := int64(e.g.N()) * int64(e.maxNC) * 2 * 8
		if perLane <= 0 {
			return 1
		}
		budget := int64(batchMemBudget)
		if e.memBytes > 0 && e.memBytes/2 < budget {
			budget = e.memBytes / 2
		}
		b = 1
		for b < 16 && int64(2*b)*perLane <= budget {
			b *= 2
		}
		return b
	}
	if b < 1 {
		return 1
	}
	if b > maxBatch {
		return maxBatch
	}
	return b
}

// memEnvVar names the environment variable Config.MemBudgetBytes = 0
// defers to.
const memEnvVar = "FASCIA_MEM_BYTES"

// resolveMemBytes lowers the Config.MemBudgetBytes knob: >0 is an
// explicit budget, <0 disables spilling (resolved 0), and 0 defers to
// the FASCIA_MEM_BYTES environment variable, then unlimited.
func resolveMemBytes(cfg int64) int64 {
	if cfg > 0 {
		return cfg
	}
	if cfg < 0 {
		return 0
	}
	if s := os.Getenv(memEnvVar); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

// Batch returns the resolved lane count — the number of concurrent
// colorings each traversal of Run carries.
func (e *Engine) Batch() int { return e.batch }

// ArenaStats returns cumulative table-slab reuse counters of the
// engine's arenas: free-list hits and fresh allocations.
func (e *Engine) ArenaStats() (hits, misses int64) {
	for _, a := range e.arenas() {
		h, m := a.Stats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// spillStats sums the arenas' live spill-backed slabs and mapped bytes.
func (e *Engine) spillStats() (slabs int, bytes int64) {
	for _, a := range e.arenas() {
		s, b := a.SpillStats()
		slabs, bytes = slabs+s, bytes+b
	}
	return slabs, bytes
}

// arenas returns the engine arena followed by the slot arenas.
func (e *Engine) arenas() []*table.Arena {
	return append([]*table.Arena{e.arena}, e.slotArenas...)
}

// slotArena returns the arena of concurrent batch slot w: the engine
// arena for slot 0, a slot-owned one (spilling like the engine arena)
// otherwise. Bag engines never spill: they leave outgrown slabs to the
// collector, and a spill mapping would outlive its slab. Callers
// serialize it.
func (e *Engine) slotArena(w int) *table.Arena {
	if w == 0 {
		return e.arena
	}
	for len(e.slotArenas) < w {
		a := &table.Arena{}
		if e.memBytes > 0 && e.bag == nil {
			a.SetSpill(0)
		}
		e.slotArenas = append(e.slotArenas, a)
	}
	return e.slotArenas[w-1]
}

// ColorfulProbability returns k!/((k-t)!·k^t): the probability that a
// fixed set of t vertices receives t distinct colors out of k. Exported
// for the distributed runtime, which applies the same estimate scaling.
func ColorfulProbability(k, t int) float64 {
	return colorfulProbability(k, t)
}

// colorfulProbability returns k!/((k-t)!·k^t): the probability that a
// fixed set of t vertices receives t distinct colors out of k.
func colorfulProbability(k, t int) float64 {
	p := 1.0
	for i := 0; i < t; i++ {
		p *= float64(k-i) / float64(k)
	}
	return p
}

// Colors returns the number of colors in use.
func (e *Engine) Colors() int { return e.k }

// Tree exposes the partition tree (for diagnostics and tests).
func (e *Engine) Tree() *part.Tree { return e.tree }

// ColorfulProbability returns the scaling probability used for estimates.
func (e *Engine) ColorfulProbability() float64 { return e.prob }

// Automorphisms returns |Aut(T)| used for estimate scaling.
func (e *Engine) Automorphisms() int64 { return e.aut }

// workers resolves the configured worker count.
func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// mode resolves Auto into a concrete mode following the paper's
// guidance. A bag-DP iteration runs on one worker, so Auto and Hybrid
// resolve to Outer for bag engines, whatever the graph's size.
func (e *Engine) mode() Mode {
	m := e.cfg.Mode
	if e.bag != nil && (m == Auto || m == Hybrid) {
		return Outer
	}
	if m != Auto {
		return m
	}
	if e.g.N() >= autoInnerThreshold {
		return Inner
	}
	return Outer
}

// IterationsFor returns the worst-case iteration count that guarantees a
// relative error of eps with confidence 1-2·delta for a k-vertex template
// (Algorithm 1, line 2): ceil(e^k · ln(1/delta) / eps²). As the paper
// shows, far fewer iterations suffice in practice.
func IterationsFor(eps, delta float64, k int) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	n := math.Exp(float64(k)) * math.Log(1/delta) / (eps * eps)
	if n < 1 {
		return 1
	}
	if n > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Ceil(n))
}
