package fascia

import (
	"fmt"
	"time"

	"repro/internal/dp"
	"repro/internal/part"
	"repro/internal/table"
)

// TableLayout selects the dynamic-table storage layout (§III-C).
type TableLayout int

const (
	// TableLazy is the paper's improved layout: per-vertex rows allocated
	// on demand. The default.
	TableLazy TableLayout = iota
	// TableNaive preallocates all rows (the paper's baseline).
	TableNaive
	// TableHash stores only nonzero cells in a hash table keyed by
	// vid·Nc + colorIndex (best for high-selectivity templates).
	TableHash
	// TableSuccinct stores compressed rows (zero-run skipping plus varint
	// packing of integer counts, with a lossless raw-IEEE fallback), the
	// Motivo-style layout for memory-bound graphs. Estimates are
	// bit-identical to the other layouts.
	TableSuccinct
)

func (l TableLayout) String() string {
	switch l {
	case TableLazy:
		return "lazy"
	case TableNaive:
		return "naive"
	case TableHash:
		return "hash"
	case TableSuccinct:
		return "succinct"
	default:
		return fmt.Sprintf("TableLayout(%d)", int(l))
	}
}

func (l TableLayout) kind() (table.Kind, error) {
	switch l {
	case TableLazy:
		return table.Lazy, nil
	case TableNaive:
		return table.Naive, nil
	case TableHash:
		return table.Hash, nil
	case TableSuccinct:
		return table.Succinct, nil
	default:
		return 0, fmt.Errorf("fascia: unknown table layout %d", int(l))
	}
}

// PartitionStrategy selects the template partitioning heuristic (§III-D).
type PartitionStrategy int

const (
	// PartitionOneAtATime peels single vertices whenever possible (the
	// paper's preferred strategy). The default.
	PartitionOneAtATime PartitionStrategy = iota
	// PartitionBalanced cuts subtemplates as evenly as possible.
	PartitionBalanced
)

func (s PartitionStrategy) String() string {
	switch s {
	case PartitionOneAtATime:
		return "one-at-a-time"
	case PartitionBalanced:
		return "balanced"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

func (s PartitionStrategy) strategy() (part.Strategy, error) {
	switch s {
	case PartitionOneAtATime:
		return part.OneAtATime, nil
	case PartitionBalanced:
		return part.Balanced, nil
	default:
		return 0, fmt.Errorf("fascia: unknown partition strategy %d", int(s))
	}
}

// KernelChoice selects the internal-node DP combination kernel. The
// direct kernel re-runs the (Ca, Cp) split contraction for every
// neighbor; the aggregated kernel first sums neighbor passive rows into a
// dense scratch buffer (an SpMM-style neighbor aggregation) and contracts
// once per vertex, which wins on high-degree vertices. Results are
// identical in every mode; only speed differs.
type KernelChoice int

const (
	// KernelAuto picks direct or aggregated per vertex with a
	// degree/width cost model. The default.
	KernelAuto KernelChoice = iota
	// KernelDirect always contracts per neighbor.
	KernelDirect
	// KernelAggregate always aggregates neighbor rows first.
	KernelAggregate
)

func (c KernelChoice) String() string {
	switch c {
	case KernelAuto:
		return "auto"
	case KernelDirect:
		return "direct"
	case KernelAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("KernelChoice(%d)", int(c))
	}
}

func (c KernelChoice) kernel() (dp.KernelMode, error) {
	switch c {
	case KernelAuto:
		return dp.KernelAuto, nil
	case KernelDirect:
		return dp.KernelDirect, nil
	case KernelAggregate:
		return dp.KernelAggregate, nil
	default:
		return 0, fmt.Errorf("fascia: unknown kernel choice %d", int(c))
	}
}

// ParallelMode selects between the paper's two multithreading schemes
// (§III-E).
type ParallelMode int

const (
	// ParallelAuto picks inner-loop parallelism for large graphs and
	// outer-loop for small ones. The default.
	ParallelAuto ParallelMode = iota
	// ParallelInner shards the per-vertex loop of each DP pass.
	ParallelInner
	// ParallelOuter runs whole iterations concurrently.
	ParallelOuter
	// ParallelHybrid nests inner-loop workers inside concurrent
	// iterations (the paper's stated future work, implemented here).
	ParallelHybrid
)

func (m ParallelMode) String() string {
	switch m {
	case ParallelAuto:
		return "auto"
	case ParallelInner:
		return "inner"
	case ParallelOuter:
		return "outer"
	case ParallelHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("ParallelMode(%d)", int(m))
	}
}

func (m ParallelMode) mode() (dp.Mode, error) {
	switch m {
	case ParallelAuto:
		return dp.Auto, nil
	case ParallelInner:
		return dp.Inner, nil
	case ParallelOuter:
		return dp.Outer, nil
	case ParallelHybrid:
		return dp.Hybrid, nil
	default:
		return 0, fmt.Errorf("fascia: unknown parallel mode %d", int(m))
	}
}

// Options configures a counting run. The zero value is usable and equals
// DefaultOptions() except for RootVertex, which DefaultOptions sets to -1
// (automatic); prefer DefaultOptions().With... chains.
type Options struct {
	// Iterations is the number of color-coding iterations (Algorithm 1).
	// When 0, the count is derived from Epsilon/Delta if set, else 1.
	Iterations int
	// Epsilon and Delta request the theoretical iteration count
	// guaranteeing relative error Epsilon with confidence 1-2·Delta.
	// Only consulted when Iterations == 0.
	Epsilon, Delta float64
	// Colors is the number of colors (0 = template size, the default).
	Colors int
	// Threads bounds worker goroutines (0 = GOMAXPROCS).
	Threads int
	// Parallel selects the multithreading scheme.
	Parallel ParallelMode
	// Table selects the dynamic-table layout.
	Table TableLayout
	// Partition selects the template partitioning heuristic.
	Partition PartitionStrategy
	// ShareSubtemplates merges isomorphic rooted subtemplates, trading
	// time for memory (§III-C/D).
	ShareSubtemplates bool
	// Seed makes runs reproducible; iteration i colors with Seed+i.
	Seed int64
	// RootVertex (>= 0) forces the template root; negative = automatic.
	// The root determines which orbit per-vertex counts measure.
	RootVertex int
	// DisableLeafSpecial turns off the single-vertex-child fast paths
	// (for ablations; results are unchanged).
	DisableLeafSpecial bool
	// Kernel selects the internal-node DP kernel (auto, direct, or
	// aggregate); see KernelChoice. Results are unchanged, only speed.
	Kernel KernelChoice
	// KeepTables retains the final iteration's tables for
	// SampleEmbeddings.
	KeepTables bool
	// Batch is the number of independent colorings ("lanes") each DP
	// traversal of a fixed-count run carries, amortizing the graph walk
	// and split enumeration across lanes. 0 or 1 runs one lane per
	// traversal; BatchAuto picks a width from the table widths and a
	// memory budget. Results are bit-identical at every width (lane
	// seeds match iteration seeds); only speed and peak memory (×B per
	// concurrent traversal) change. Adaptive runs, per-vertex counts and
	// embedding sampling always traverse one lane at a time.
	Batch int
	// MemBudgetBytes bounds the engine's peak table memory: large table
	// slabs spill to unlinked file-backed mappings the OS can page out,
	// and the automatic batch sizer caps its lane budget, so peak RSS
	// stays bounded independent of graph size. 0 consults the
	// FASCIA_MEM_BYTES environment variable (unset = unlimited); negative
	// disables spilling. Execution-only: estimates are bit-identical at
	// any setting.
	MemBudgetBytes int64
	// Adaptive, when positive, replaces the fixed Iterations schedule
	// with a variance-targeted stopping rule: iterations run (in seed
	// order, so the estimate stream is a prefix of a fixed run's) until
	// the relative standard error of the running mean drops below
	// Adaptive. Iterations then acts as the iteration cap (0 = 1e6).
	Adaptive float64
	// Timeout, when positive, bounds every run of an Engine built from
	// these options (each Run/Count call gets a fresh timeout). On expiry
	// the run returns its partial result alongside the context error,
	// exactly as caller-driven cancellation does.
	Timeout time.Duration
	// OnIteration, when non-nil, is invoked after each completed
	// iteration with the iteration's index, its individual estimate, and
	// the elapsed wall time since the run started. Calls are serialized,
	// but under outer/hybrid parallelism iterations complete out of
	// order, so i is not monotone. The hook runs on the engine's
	// goroutines: keep it fast.
	OnIteration func(i int, estimate float64, elapsed time.Duration)
}

// DefaultOptions returns the paper-faithful defaults.
func DefaultOptions() Options {
	return Options{RootVertex: -1}
}

// WithIterations returns a copy of o running exactly n iterations.
func (o Options) WithIterations(n int) Options {
	o.Iterations = n
	return o
}

// WithAccuracy returns a copy of o deriving the iteration count from the
// (eps, delta) guarantee. Beware: the theoretical bound is enormous for
// large templates; the paper's experiments show a handful of iterations
// suffice in practice.
func (o Options) WithAccuracy(eps, delta float64) Options {
	o.Iterations = 0
	o.Epsilon, o.Delta = eps, delta
	return o
}

// WithSeed returns a copy of o with the given random seed.
func (o Options) WithSeed(seed int64) Options {
	o.Seed = seed
	return o
}

// WithThreads returns a copy of o bounded to n worker goroutines.
func (o Options) WithThreads(n int) Options {
	o.Threads = n
	return o
}

// WithTable returns a copy of o using the given table layout.
func (o Options) WithTable(l TableLayout) Options {
	o.Table = l
	return o
}

// WithPartition returns a copy of o using the given partition strategy.
func (o Options) WithPartition(s PartitionStrategy) Options {
	o.Partition = s
	return o
}

// WithParallel returns a copy of o using the given parallel mode.
func (o Options) WithParallel(m ParallelMode) Options {
	o.Parallel = m
	return o
}

// WithKernel returns a copy of o using the given DP kernel choice.
func (o Options) WithKernel(c KernelChoice) Options {
	o.Kernel = c
	return o
}

// BatchAuto asks the engine to choose the iteration-batch width from
// the table widths and a memory budget (see Options.Batch).
const BatchAuto = dp.BatchAuto

// WithBatch returns a copy of o using the given iteration-batch width
// (BatchAuto to let the engine choose).
func (o Options) WithBatch(b int) Options {
	o.Batch = b
	return o
}

// WithMemBudgetBytes returns a copy of o with the given peak-memory
// budget (see Options.MemBudgetBytes).
func (o Options) WithMemBudgetBytes(b int64) Options {
	o.MemBudgetBytes = b
	return o
}

// WithAdaptive returns a copy of o running iterations adaptively until
// the relative standard error drops below relStdErr (see
// Options.Adaptive).
func (o Options) WithAdaptive(relStdErr float64) Options {
	o.Adaptive = relStdErr
	return o
}

// WithTimeout returns a copy of o bounding every run to d.
func (o Options) WithTimeout(d time.Duration) Options {
	o.Timeout = d
	return o
}

// WithOnIteration returns a copy of o calling fn after each completed
// iteration; see Options.OnIteration for the calling convention.
func (o Options) WithOnIteration(fn func(i int, estimate float64, elapsed time.Duration)) Options {
	o.OnIteration = fn
	return o
}

// Fingerprint returns a stable, human-readable key for the
// result-relevant options: two Options with equal fingerprints produce
// bit-identical per-iteration estimates for equal (graph, template,
// seed) inputs, so the fingerprint is safe to use as a result-cache key
// component (fasciad's seed-keyed cache keys on it).
//
// Only knobs that can change the floating-point estimate stream
// participate: Colors (changes the colorful probability and the
// coloring stream), Partition and ShareSubtemplates (change the
// partition tree and hence summation order), RootVertex (changes the
// DP root), and Adaptive (changes how many estimates the stream holds,
// so a cached adaptive entry records the iterations actually run
// rather than masquerading as a fixed-length stream). Execution knobs
// that are property-tested bit-identical — Table, Kernel, Batch,
// Parallel, Threads, DisableLeafSpecial, MemBudgetBytes —
// and lifecycle knobs (Iterations, Seed, Timeout, KeepTables,
// OnIteration, Epsilon/Delta) are deliberately excluded so they do not
// fragment a cache. The leading version tag must be bumped if estimate
// semantics ever change.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("v1|c=%d|part=%s|share=%t|root=%d|adapt=%g",
		o.Colors, o.Partition, o.ShareSubtemplates, o.RootVertex, o.Adaptive)
}

// Every Options field must be classified into exactly one of the three
// lists below. The fasciavet fingerprintcover analyzer cross-checks the
// lists against the struct and the Fingerprint body at lint time, and
// TestFingerprintCoversAllOptions re-checks them at test time (and
// proves each result-relevant field actually perturbs the fingerprint),
// so an Options field can never be added without deciding — explicitly
// — whether it fragments fasciad's result cache.
var (
	// fingerprintResultFields can change the floating-point estimate
	// stream and therefore participate in Fingerprint().
	fingerprintResultFields = []string{
		"Colors", "Partition", "ShareSubtemplates", "RootVertex", "Adaptive",
	}
	// fingerprintExecutionOnly are knobs proven bit-identical across all
	// settings by the kernel-equivalence and oracle-differential property
	// tests; excluding them keeps equivalent queries on one cache entry.
	fingerprintExecutionOnly = []string{
		"Table", "Kernel", "Batch", "Parallel", "Threads", "DisableLeafSpecial", "MemBudgetBytes",
	}
	// fingerprintLifecycle shape how many iterations run, which seed
	// starts the stream, or what happens around the run — the cache keys
	// seed and iteration count separately, so they stay out of the
	// fingerprint.
	fingerprintLifecycle = []string{
		"Iterations", "Epsilon", "Delta", "Seed", "Timeout", "KeepTables", "OnIteration",
	}
)

// iterations resolves the iteration count.
func (o Options) iterations(templateK int) int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	if o.Epsilon > 0 && o.Delta > 0 {
		return dp.IterationsFor(o.Epsilon, o.Delta, templateK)
	}
	return 1
}

// config lowers Options to the internal engine configuration.
func (o Options) config() (dp.Config, error) {
	kind, err := o.Table.kind()
	if err != nil {
		return dp.Config{}, err
	}
	strat, err := o.Partition.strategy()
	if err != nil {
		return dp.Config{}, err
	}
	mode, err := o.Parallel.mode()
	if err != nil {
		return dp.Config{}, err
	}
	kern, err := o.Kernel.kernel()
	if err != nil {
		return dp.Config{}, err
	}
	root := o.RootVertex
	if root < 0 {
		root = -1
	}
	return dp.Config{
		Colors:             o.Colors,
		TableKind:          kind,
		Strategy:           strat,
		Share:              o.ShareSubtemplates,
		Mode:               mode,
		Workers:            o.Threads,
		Seed:               o.Seed,
		RootVertex:         root,
		DisableLeafSpecial: o.DisableLeafSpecial,
		Kernel:             kern,
		KeepTables:         o.KeepTables,
		Batch:              o.Batch,
		MemBudgetBytes:     o.MemBudgetBytes,
		OnIteration:        o.OnIteration,
	}, nil
}

// IterationsFor returns the theoretical iteration count for an (eps,
// delta) guarantee on k-vertex templates: ceil(e^k·ln(1/delta)/eps²).
func IterationsFor(eps, delta float64, k int) int {
	return dp.IterationsFor(eps, delta, k)
}
