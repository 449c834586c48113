package fascia

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/tmpl"
)

// Graph is an undirected graph in CSR form with optional vertex labels.
// It is an alias of the internal graph type, so all its methods (N, M,
// Adj, Degree, Label, ComputeStats, ...) are available to callers.
type Graph = graph.Graph

// Template is an undirected connected template with optional vertex
// labels. Tree templates run the paper's partition-tree DP; non-tree
// templates (treewidth <= 2, plus K4) run the tree-decomposition bag DP.
type Template = tmpl.Template

// Embedding is one occurrence of a template: Mapping[i] is the graph
// vertex that template vertex i maps to.
type Embedding = dp.Embedding

// RunStats is the per-run observability snapshot: per-subtemplate-node
// wall times, per-iteration timings, kernel passes, and table row
// traffic. See the dp package for field documentation.
type RunStats = dp.RunStats

// NodeStat is one partition-tree node's accumulated compute time within
// a RunStats snapshot.
type NodeStat = dp.NodeStat

// Result reports a counting run.
type Result struct {
	// Count is the estimated number of non-induced occurrences.
	Count float64
	// PerIteration holds each iteration's individual estimate. For a
	// cancelled run it holds the longest seed-order prefix of completed
	// iterations, in every parallel mode, so a partial stream is always
	// a prefix of the full one.
	PerIteration []float64
	// StdErr is the standard error of the mean across iterations.
	StdErr float64
	// PeakTableBytes is the peak dynamic-table footprint of any single
	// iteration (the quantity of Figures 6 and 7).
	PeakTableBytes int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Iterations is the number of iterations executed.
	Iterations int
	// Parallel is the resolved parallelization mode.
	Parallel ParallelMode
	// Stats is the run's observability snapshot (node times, iteration
	// times, kernel passes, row traffic).
	Stats RunStats
}

func fromDP(res dp.Result) Result {
	out := Result{
		Count:          res.Estimate,
		PerIteration:   res.PerIteration,
		StdErr:         res.StdErr,
		PeakTableBytes: res.PeakTableBytes,
		Elapsed:        res.Elapsed,
		Iterations:     len(res.PerIteration),
		Stats:          res.Stats,
	}
	// The resolved mode is reported even for zero-iteration (cancelled
	// or empty) runs, and an unknown internal mode is surfaced verbatim
	// rather than silently collapsing to the ParallelAuto zero value.
	switch res.ModeUsed {
	case dp.Auto:
		out.Parallel = ParallelAuto
	case dp.Inner:
		out.Parallel = ParallelInner
	case dp.Outer:
		out.Parallel = ParallelOuter
	case dp.Hybrid:
		out.Parallel = ParallelHybrid
	default:
		out.Parallel = ParallelMode(res.ModeUsed)
	}
	return out
}

// Engine is a reusable counter for one (graph, template) pair: the
// partition tree and combinatorial index tables are built once and reused
// across runs.
type Engine struct {
	inner *dp.Engine
	// timeout, when positive, bounds every run (Options.Timeout).
	timeout time.Duration
}

// NewEngine builds an engine for counting occurrences of t in g.
func NewEngine(g *Graph, t *Template, opt Options) (*Engine, error) {
	cfg, err := opt.config()
	if err != nil {
		return nil, err
	}
	e, err := dp.New(g, t, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: e, timeout: opt.Timeout}, nil
}

// runCtx applies the engine's Options.Timeout on top of ctx.
func (e *Engine) runCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.timeout > 0 {
		return context.WithTimeout(ctx, e.timeout)
	}
	return ctx, func() {}
}

// Run executes n color-coding iterations and returns the averaged
// estimate. It honors Options.Timeout; use RunContext for caller-driven
// cancellation.
func (e *Engine) Run(n int) (Result, error) {
	return e.RunContext(context.Background(), n)
}

// RunContext is Run with cooperative cancellation: ctx is polled at
// iteration boundaries and at vertex granularity inside every DP pass,
// so all parallel modes abort promptly. On cancellation (or
// Options.Timeout expiry) it returns the partial result — the mean over
// completed iterations, with Result.Stats.Cancelled set — alongside the
// context's error.
func (e *Engine) RunContext(ctx context.Context, n int) (Result, error) {
	ctx, cancel := e.runCtx(ctx)
	defer cancel()
	res, err := e.inner.RunContext(ctx, n)
	if err != nil {
		return fromDP(res), err
	}
	return fromDP(res), nil
}

// VertexCounts estimates each vertex's graphlet degree for the template's
// root orbit (see Options.RootVertex), averaged over n iterations.
func (e *Engine) VertexCounts(n int) ([]float64, error) {
	return e.VertexCountsContext(context.Background(), n)
}

// VertexCountsContext is VertexCounts with cooperative cancellation; on
// cancellation it returns partial estimates rescaled to the completed
// iterations alongside the context's error.
func (e *Engine) VertexCountsContext(ctx context.Context, n int) ([]float64, error) {
	ctx, cancel := e.runCtx(ctx)
	defer cancel()
	return e.inner.VertexCountsContext(ctx, n)
}

// SampleEmbeddings draws count colorful embeddings from the engine's last
// run; the engine must have been created with Options.KeepTables.
func (e *Engine) SampleEmbeddings(rng *rand.Rand, count int) ([]Embedding, error) {
	return e.inner.SampleEmbeddings(rng, count)
}

// VerifyEmbedding checks that an embedding is a genuine occurrence.
func (e *Engine) VerifyEmbedding(emb Embedding) error {
	return e.inner.VerifyEmbedding(emb)
}

// Count estimates the number of non-induced occurrences of the tree
// template t in g, running opt.Iterations color-coding iterations (or the
// count derived from opt.Epsilon/Delta).
func Count(g *Graph, t *Template, opt Options) (Result, error) {
	return CountContext(context.Background(), g, t, opt)
}

// adaptiveMaxIters caps an Options.Adaptive run when the caller set no
// explicit Iterations ceiling.
const adaptiveMaxIters = 1_000_000

// CountContext is Count with cooperative cancellation (and
// Options.Timeout): cancelling ctx aborts the run within milliseconds of
// DP work and returns the partial estimate alongside the context error.
// With Options.Adaptive set, the fixed iteration count is replaced by
// variance-targeted stopping: iterations run (same seed schedule, so
// the result is a prefix of the fixed run's) until the relative
// standard error drops below Adaptive, Options.Iterations > 1 capping
// the run (otherwise a 1M-iteration safety cap applies).
func CountContext(ctx context.Context, g *Graph, t *Template, opt Options) (Result, error) {
	e, err := NewEngine(g, t, opt)
	if err != nil {
		return Result{}, err
	}
	return e.count(ctx, t.K(), opt)
}

// count runs opt's schedule on e for a k-vertex template: adaptive when
// opt.Adaptive is set, otherwise opt's fixed iteration count.
func (e *Engine) count(ctx context.Context, k int, opt Options) (Result, error) {
	if opt.Adaptive > 0 {
		maxIters := opt.Iterations
		if maxIters < 2 {
			maxIters = adaptiveMaxIters
		}
		return e.RunConvergedContext(ctx, opt.Adaptive, 2, maxIters)
	}
	return e.RunContext(ctx, opt.iterations(k))
}

// CountLabeled is Count for labeled graphs and templates; it exists for
// discoverability and validates that both sides carry labels (Count also
// handles labeled inputs).
func CountLabeled(g *Graph, t *Template, opt Options) (Result, error) {
	if !t.Labeled() {
		return Result{}, fmt.Errorf("fascia: CountLabeled requires a labeled template")
	}
	if g.Labels == nil {
		return Result{}, fmt.Errorf("fascia: CountLabeled requires a labeled graph")
	}
	return Count(g, t, opt)
}

// VertexCounts estimates per-vertex graphlet degrees for the orbit of the
// template vertex selected by opt.RootVertex, averaged over
// opt.Iterations iterations.
func VertexCounts(g *Graph, t *Template, opt Options) ([]float64, error) {
	e, err := NewEngine(g, t, opt)
	if err != nil {
		return nil, err
	}
	return e.VertexCounts(opt.iterations(t.K()))
}

// MergeIterations prepends previously computed per-iteration estimates
// to a fresh run's result and recomputes the aggregate statistics, as if
// a single run had produced all of them. It is the merge step of
// seed-keyed result caching: when estimates for seeds
// [Seed, Seed+len(prior)) are already known, a residual run with
// Options.Seed = Seed+len(prior) produces exactly the remaining
// estimates (iteration i always colors with Seed+i), and merging yields
// a result bit-identical to running the full range from scratch.
//
// Count, StdErr, Iterations, and PerIteration are recomputed over the
// concatenation; Stats.CachedIterations records len(prior); Elapsed,
// PeakTableBytes, and the remaining Stats fields describe only the
// fresh run. prior is copied, never aliased.
func MergeIterations(prior []float64, res Result) Result {
	if len(prior) == 0 {
		return res
	}
	merged := make([]float64, 0, len(prior)+len(res.PerIteration))
	merged = append(merged, prior...)
	merged = append(merged, res.PerIteration...)
	res.PerIteration = merged
	res.Iterations = len(merged)
	res.Stats.Iterations = len(merged)
	res.Stats.CachedIterations = len(prior)
	var sum float64
	for _, x := range merged {
		sum += x
	}
	res.Count = sum / float64(len(merged))
	res.StdErr = 0
	if n := len(merged); n > 1 {
		var ss float64
		for _, x := range merged {
			d := x - res.Count
			ss += d * d
		}
		res.StdErr = math.Sqrt(ss / float64(n-1) / float64(n))
	}
	return res
}

// mixSeed decorrelates retry seeds: a splitmix64-style avalanche of
// (base, i) so that retry i's coloring shares nothing with the colorings
// of an independent run seeded base+i (a plain base+i retry schedule
// collides with the caller's own Seed+1, Seed+2, ... runs).
func mixSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SampleEmbeddings runs one counting iteration with retained tables and
// draws count colorful embeddings from it — FASCIA's enumeration mode.
// Each returned embedding is a verified non-induced occurrence of t.
// Colorful embeddings can be absent under an unlucky coloring, so up to
// opt.iterations colorings are attempted; the engine (partition tree,
// split tables) is built once and reseeded per retry with a mixed seed
// that cannot collide with independent runs at Seed+1, Seed+2, ...
func SampleEmbeddings(g *Graph, t *Template, opt Options, count int) ([]Embedding, error) {
	return SampleEmbeddingsContext(context.Background(), g, t, opt, count)
}

// SampleEmbeddingsContext is SampleEmbeddings with cooperative
// cancellation of the underlying counting runs.
func SampleEmbeddingsContext(ctx context.Context, g *Graph, t *Template, opt Options, count int) ([]Embedding, error) {
	opt.KeepTables = true
	iters := opt.iterations(t.K())
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eed))
	base := opt.Seed
	e, err := NewEngine(g, t, opt)
	if err != nil {
		return nil, err
	}
	// Retry with fresh colorings like repeated Algorithm 1 rounds,
	// reusing the one engine; only the coloring seed changes per retry.
	var lastErr error
	for i := 0; i < iters; i++ {
		e.inner.Reseed(mixSeed(base, i))
		e.inner.ReleaseKept()
		if _, err := e.inner.RunContext(ctx, 1); err != nil {
			return nil, err
		}
		embs, err := e.SampleEmbeddings(rng, count)
		if err == nil {
			return embs, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// RunConverged runs iterations adaptively until the relative standard
// error of the estimate drops below relStdErr (bounded by minIters and
// maxIters) — automated "enough iterations" in place of the conservative
// theoretical bound.
func (e *Engine) RunConverged(relStdErr float64, minIters, maxIters int) (Result, error) {
	return e.RunConvergedContext(context.Background(), relStdErr, minIters, maxIters)
}

// RunConvergedContext is RunConverged with cooperative cancellation; on
// cancellation it returns the partial result alongside the context's
// error.
func (e *Engine) RunConvergedContext(ctx context.Context, relStdErr float64, minIters, maxIters int) (Result, error) {
	ctx, cancel := e.runCtx(ctx)
	defer cancel()
	res, err := e.inner.RunConvergedContext(ctx, relStdErr, minIters, maxIters)
	if err != nil {
		return fromDP(res), err
	}
	return fromDP(res), nil
}

// RunConvergedResidualContext is RunConvergedContext seeded with prior
// per-iteration estimates already known from elsewhere (a seed-keyed
// cache, an earlier shard wave): the convergence accumulator starts
// from prior, the iteration bounds count prior toward the totals, and
// only the residual iterations the target still needs are computed.
// The engine must have been built with Options.Seed offset by
// len(prior) so the fresh iterations continue the global seed schedule
// (iteration i always colors with Seed+i). The returned result is the
// MergeIterations of prior and the fresh run — PerIteration spans both,
// Stats.CachedIterations records len(prior) — so a converged residual
// run is bit-identical to the prefix of a fixed run over the full
// schedule.
func (e *Engine) RunConvergedResidualContext(ctx context.Context, relStdErr float64, minIters, maxIters int, prior []float64) (Result, error) {
	ctx, cancel := e.runCtx(ctx)
	defer cancel()
	res, err := e.inner.RunConvergedPriorContext(ctx, relStdErr, minIters, maxIters, prior)
	return MergeIterations(prior, fromDP(res)), err
}

// CountConvergedResidualContext builds an engine at opt and runs
// RunConvergedResidualContext — the one-shot entry point serving
// layers use to top up cached estimates to a variance target.
func CountConvergedResidualContext(ctx context.Context, g *Graph, t *Template, relStdErr float64, maxIters int, opt Options, prior []float64) (Result, error) {
	e, err := NewEngine(g, t, opt)
	if err != nil {
		return Result{}, err
	}
	return e.RunConvergedResidualContext(ctx, relStdErr, 2, maxIters, prior)
}

// CountConverged estimates the count, running iterations until the
// relative standard error falls below relStdErr (at most maxIters). The
// minimum iteration count is max(2, opt.Iterations): at least two
// iterations are always run (a standard error needs them), and a caller
// who sets opt.Iterations asks for at least that many before convergence
// may stop the run. opt.Iterations must not exceed maxIters.
func CountConverged(g *Graph, t *Template, relStdErr float64, maxIters int, opt Options) (Result, error) {
	return CountConvergedContext(context.Background(), g, t, relStdErr, maxIters, opt)
}

// CountConvergedContext is CountConverged with cooperative cancellation
// (and Options.Timeout).
func CountConvergedContext(ctx context.Context, g *Graph, t *Template, relStdErr float64, maxIters int, opt Options) (Result, error) {
	e, err := NewEngine(g, t, opt)
	if err != nil {
		return Result{}, err
	}
	minIters := 2
	if opt.Iterations > minIters {
		minIters = opt.Iterations
	}
	return e.RunConvergedContext(ctx, relStdErr, minIters, maxIters)
}
