package dp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Result summarizes a counting run.
type Result struct {
	// Estimate is the mean over iterations of the scaled colorful count:
	// the approximate number of non-induced occurrences of the template.
	Estimate float64
	// PerIteration holds each iteration's individual estimate. For a
	// cancelled run it holds the longest seed-order prefix of completed
	// iterations (every parallel mode stops at the first iteration that
	// did not finish), so a partial stream is always a prefix of the
	// full one.
	PerIteration []float64
	// StdErr is the standard error of the mean across iterations (0 for
	// a single iteration).
	StdErr float64
	// PeakTableBytes is the maximum summed table footprint observed in
	// any single iteration.
	PeakTableBytes int64
	// Elapsed is the wall-clock time of the whole run.
	Elapsed time.Duration
	// ModeUsed records the resolved parallelization mode.
	ModeUsed Mode
	// Stats is the observability snapshot of the run (per-node times,
	// kernel passes, table row traffic, per-iteration timings).
	Stats RunStats
}

// Run executes iters color-coding iterations (Algorithm 1) and averages
// their estimates. Estimates are independent of the parallel mode: the
// i-th iteration always colors with seed Seed+i.
func (e *Engine) Run(iters int) (Result, error) {
	return e.RunContext(context.Background(), iters)
}

// RunContext is Run with cooperative cancellation: the context is polled
// at batch boundaries and inside every DP pass at vertex granularity,
// so all three parallel modes abort promptly (typically well under a
// millisecond of DP work after cancellation). On cancellation it returns
// the partial result — the mean over the completed seed-order prefix,
// with Stats.Cancelled set — alongside ctx.Err().
func (e *Engine) RunContext(ctx context.Context, iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("dp: iterations must be >= 1, got %d", iters)
	}
	m := e.startMeter()
	stop, release := WatchContext(ctx)
	defer release()
	res := Result{ModeUsed: e.mode()}
	stats := e.newRunStats()
	stats.BatchSize = e.batch
	res.PerIteration, stats.IterTimes = e.runBatches(ctx, res.ModeUsed, iters, stop, m.start, &stats)
	return res, e.finish(ctx, m, &res, stats, nil)
}

// runMeter snapshots the engine's cumulative counters when a run
// starts, so finish can report the run's own deltas.
type runMeter struct {
	start      time.Time
	kp, ah, am int64
}

func (e *Engine) startMeter() runMeter {
	m := runMeter{start: time.Now(), kp: e.kernelPasses.Load()}
	m.ah, m.am = e.ArenaStats()
	return m
}

// finish completes a run whose fresh estimates follow prior in the seed
// stream: Estimate and StdErr cover prior and fresh together, and Stats
// reports the run's counter deltas. It returns ctx.Err(), marking the
// stats cancelled when set.
func (e *Engine) finish(ctx context.Context, m runMeter, res *Result, stats RunStats, prior []float64) error {
	res.Estimate, res.StdErr = summarize(prior, res.PerIteration)
	stats.Iterations = len(res.PerIteration)
	stats.KernelAggregate = e.kernelPasses.Load() - m.kp
	ah, am := e.ArenaStats()
	stats.ArenaHits, stats.ArenaMisses = ah-m.ah, am-m.am
	res.PeakTableBytes = stats.PeakTableBytes
	spillSlabs, spillBytes := e.spillStats()
	stats.SpillSlabs, stats.SpillMappedBytes = int64(spillSlabs), spillBytes
	stats.sampleRSS()
	res.Elapsed = time.Since(m.start)
	err := ctx.Err()
	stats.Cancelled = err != nil
	res.Stats = stats
	return err
}

// summarize returns the mean and the standard error of the mean of
// prior followed by fresh, with the two-pass formula every run shares:
// an adaptive run's Estimate/StdErr must be bit-identical to a fixed
// run of the same length (the cache serves them interchangeably).
func summarize(prior, fresh []float64) (mean, stdErr float64) {
	n := len(prior) + len(fresh)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, xs := range [2][]float64{prior, fresh} {
		for _, x := range xs {
			sum += x
		}
	}
	mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, xs := range [2][]float64{prior, fresh} {
			for _, x := range xs {
				d := x - mean
				ss += d * d
			}
		}
		stdErr = math.Sqrt(ss / float64(n-1) / float64(n))
	}
	return mean, stdErr
}

// hybridSplit divides a worker budget between concurrent iterations
// (outer level) and per-traversal DP workers (inner level), aiming for
// the balanced ~sqrt split of Hybrid mode without stranding budget. The
// old floor-division split under-subscribed every non-square budget
// (7 workers -> 3 outer x 2 inner = 6 used); here the remainder workers
// go one each to the first outer slots (7 -> [3 2 2]), so the inner
// widths always sum to min(total, ...) exactly. outerW never exceeds
// slots — the number of schedulable units (iterations or batches) — so
// short runs widen inner parallelism instead of idling outer slots.
func hybridSplit(total, slots int) (outerW int, innerW []int) {
	if total < 1 {
		total = 1
	}
	if slots < 1 {
		slots = 1
	}
	outerW = 1
	for outerW*outerW < total { // ceil(sqrt(total))
		outerW++
	}
	if outerW > slots {
		outerW = slots
	}
	innerW = make([]int, outerW)
	base, rem := total/outerW, total%outerW
	for w := range innerW {
		innerW[w] = base
		if w < rem {
			innerW[w]++
		}
	}
	return outerW, innerW
}

// scale converts a colorful mapping total into an occurrence estimate
// (Algorithm 2, lines 20-23): divide by the colorful probability and the
// automorphism count of the template.
func (e *Engine) scale(total float64) float64 {
	return total / (e.prob * float64(e.aut))
}

// ColorfulTotal runs a single DP pass with the given coloring seed and
// returns the raw colorful mapping total (no scaling). It is the hook the
// correctness tests use to compare against brute-force colorful
// enumeration under a deterministic coloring.
func (e *Engine) ColorfulTotal(seed int64) float64 {
	st := e.newBatchState(e.arena, seed, 1, e.workers())
	st.run()
	return st.totals[0]
}

// ColoringFor reproduces the vertex coloring used by iteration seed, for
// tests and external verification. Colors are indexed by the caller's
// original vertex ids: the rng stream is always drawn in original-id
// order, and a degree-bucketed execution reordering only scatters the
// same per-vertex colors into the relabeled id space.
func (e *Engine) ColoringFor(seed int64) []int8 {
	rng := rand.New(rand.NewSource(seed))
	colors := make([]int8, e.g.N())
	for i := range colors {
		colors[i] = int8(rng.Intn(e.k))
	}
	return colors
}

// Reseed changes the engine's base coloring seed for subsequent runs.
// All precomputed structures (partition tree, split tables) are
// seed-independent, so reseeding a built engine is free — the retry loop
// of embedding sampling uses it instead of rebuilding the engine.
func (e *Engine) Reseed(seed int64) { e.cfg.Seed = seed }

// ReleaseKept drops tables retained by a KeepTables run, returning their
// storage (and the kept color vector) to the arena they came from before
// a re-run replaces them.
func (e *Engine) ReleaseKept() {
	if e.kept != nil {
		e.kept.release()
		e.kept = nil
	}
}

// VertexCounts estimates, for every graph vertex v, the number of
// template embeddings in which v plays the role of the template root
// (set Config.RootVertex to pick the role — e.g. the center of U5-2 for
// the paper's graphlet-degree experiments). Estimates are averaged over
// iters iterations and scaled by the colorful probability and the number
// of automorphisms fixing the root.
func (e *Engine) VertexCounts(iters int) ([]float64, error) {
	return e.VertexCountsContext(context.Background(), iters)
}

// VertexCountsContext is VertexCounts with cooperative cancellation. On
// cancellation it returns the partial per-vertex estimates rescaled to
// the iterations that completed (nil when none did) alongside ctx.Err().
func (e *Engine) VertexCountsContext(ctx context.Context, iters int) ([]float64, error) {
	if iters < 1 {
		return nil, fmt.Errorf("dp: iterations must be >= 1, got %d", iters)
	}
	if e.bag != nil {
		return nil, fmt.Errorf("dp: per-vertex rooted counts require a tree template; %s runs the bag DP", e.t.Name())
	}
	if e.cfg.Share {
		return nil, fmt.Errorf("dp: per-vertex counts require Share=false (shared nodes lose root identity)")
	}
	stop, release := WatchContext(ctx)
	defer release()
	n := e.g.N()
	acc := make([]float64, n)
	scale := 1 / (e.prob * float64(e.rAut) * float64(iters))
	done := 0
	for i := 0; i < iters; i++ {
		if stopRequested(ctx, stop) {
			break
		}
		st := e.newBatchState(e.arena, e.cfg.Seed+int64(i), 1, e.workers())
		st.stop = stop
		st.keep = true // retain the root table for reading
		st.run()
		if st.aborted {
			break
		}
		root := st.tabs[e.tree.Root]
		// Aborting inside this fold would leave acc holding a partial
		// iteration that the done-count rescale below cannot see, so the
		// read-only O(n) walk runs to completion; cancellation is polled
		// at the iteration boundary above and per vertex inside st.run().
		//lint:ctxpoll ok — read-only fold of a completed iteration; breaking mid-fold would corrupt the partial mean
		for v := int32(0); v < int32(n); v++ {
			if root.Has(v) {
				// Emit through the inverse permutation so callers see
				// counts indexed by their own vertex ids even when the
				// engine runs on a degree-bucketed relabeling.
				acc[e.origID(v)] += root.SumRow(v) * scale
			}
		}
		st.release()
		done++
	}
	if err := ctx.Err(); err != nil {
		if done == 0 {
			return nil, err
		}
		// Rescale the partial sum from 1/iters to 1/done.
		f := float64(iters) / float64(done)
		for v := range acc {
			acc[v] *= f
		}
		return acc, err
	}
	return acc, nil
}

// RunConverged runs iterations adaptively until the relative standard
// error of the mean estimate falls below relStdErr, bounded by minIters
// and maxIters — a practical alternative to the enormously conservative
// theoretical bound of IterationsFor (the paper's Figures 10-12 show a
// few iterations usually suffice; this automates "enough"). Iterations
// use the same seeds as Run, so a converged run is a prefix of a fixed
// run. Inner-loop parallelism applies within each iteration.
func (e *Engine) RunConverged(relStdErr float64, minIters, maxIters int) (Result, error) {
	return e.RunConvergedContext(context.Background(), relStdErr, minIters, maxIters)
}

// RunConvergedContext is RunConverged with cooperative cancellation,
// polled at iteration boundaries and at vertex granularity inside each
// DP pass. On cancellation it returns the partial result alongside
// ctx.Err().
func (e *Engine) RunConvergedContext(ctx context.Context, relStdErr float64, minIters, maxIters int) (Result, error) {
	return e.RunConvergedPriorContext(ctx, relStdErr, minIters, maxIters, nil)
}

// RunConvergedPriorContext is RunConvergedContext seeded with prior
// per-iteration estimates computed elsewhere (a result cache, an
// earlier shard wave): StopIndex's rule scans prior followed by the
// fresh estimates, and the min/max iteration bounds count prior toward
// the totals, so the run only spends the residual iterations the target
// still needs (none when a prefix of prior already meets it). Fresh
// iterations color with this engine's Seed+i from i = 0 — callers
// offset Config.Seed by len(prior) to keep the global seed schedule
// contiguous. PerIteration holds only the fresh estimates; Estimate and
// StdErr cover prior and fresh together.
func (e *Engine) RunConvergedPriorContext(ctx context.Context, relStdErr float64, minIters, maxIters int, prior []float64) (Result, error) {
	if relStdErr <= 0 {
		return Result{}, fmt.Errorf("dp: relStdErr must be positive, got %v", relStdErr)
	}
	if minIters < 2 {
		minIters = 2
	}
	if maxIters < minIters {
		return Result{}, fmt.Errorf("dp: maxIters %d < minIters %d", maxIters, minIters)
	}
	m := e.startMeter()
	stop, release := WatchContext(ctx)
	defer release()
	workers := 1
	if e.mode() == Inner {
		workers = e.workers()
	}
	res := Result{ModeUsed: e.mode()}
	stats := e.newRunStats()
	// The stop rule is checked after every iteration, so adaptive runs
	// traverse one lane at a time regardless of Config.Batch.
	stats.BatchSize = 1
	// StopIndex's rule, fed incrementally: prior first, then one fresh
	// estimate per iteration.
	rule := newStopRule(relStdErr, minIters)
	converged := false
	for _, est := range prior {
		converged = rule.add(est) || converged
	}
	for i := 0; !converged && len(prior)+i < maxIters; i++ {
		if stopRequested(ctx, stop) {
			break
		}
		st, d := e.runLanes(e.arena, e.cfg.Seed+int64(i), 1, workers, stop)
		stats.mergeBatch(st)
		if st.aborted {
			break
		}
		e.retain(st)
		est := e.scale(st.totals[0])
		res.PerIteration = append(res.PerIteration, est)
		stats.IterTimes = append(stats.IterTimes, d)
		converged = rule.add(est)
		if e.cfg.OnIteration != nil {
			e.cfg.OnIteration(i, est, time.Since(m.start))
		}
	}
	return res, e.finish(ctx, m, &res, stats, prior)
}

// StopIndex returns the length of the shortest prefix of ests at which
// an adaptive run targeting relStdErr stops — the first
// n >= max(minIters, 2) whose relative standard error of the mean
// (Welford's online mean and variance) is at or below the target — or
// -1 if no prefix converges. It is the one stop rule of every tier: the
// engine's converged runs (which feed the same stopRule one estimate at
// a time), the serve cache and the shard pool, so each can truncate an
// over-complete estimate stream to the bit-identical adaptive prefix.
func StopIndex(ests []float64, relStdErr float64, minIters int) int {
	if relStdErr <= 0 {
		return -1
	}
	r := newStopRule(relStdErr, minIters)
	for i, est := range ests {
		if r.add(est) {
			return i + 1
		}
	}
	return -1
}

// stopRule is StopIndex's scan state over the stream seen so far.
type stopRule struct {
	relStdErr float64
	minIters  int
	n         int
	mean, m2  float64
}

func newStopRule(relStdErr float64, minIters int) stopRule {
	return stopRule{relStdErr: relStdErr, minIters: max(minIters, 2)}
}

// add folds the next estimate into the running mean and variance and
// reports whether the stream so far meets the target.
func (r *stopRule) add(est float64) bool {
	r.n++
	n := float64(r.n)
	delta := est - r.mean
	r.mean += delta / n
	r.m2 += delta * (est - r.mean)
	return r.n >= r.minIters && r.mean != 0 &&
		math.Sqrt(r.m2/(n-1)/n)/math.Abs(r.mean) <= r.relStdErr
}
