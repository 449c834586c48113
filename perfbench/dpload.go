package main

import (
	"context"
	"fmt"
	"math"

	fascia "repro"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/tmpl"
)

// dpLoad is a library workload: one dp engine built on the loaded graph
// counts one template, every stream running the same seeded miss (a
// count from nothing) and the same seeded partial (the next iterations,
// merged onto the miss's with fascia.MergeIterations).
type dpLoad struct {
	network string
	tmpl    *tmpl.Template
	iters   int
	batch   int
	// motif, when set, names the zoo motif whose exact count the run's
	// mean is checked against; validate is the number of extra distinct
	// iterations pooled into that check.
	motif    string
	validate int

	eng *dp.Engine

	miss, fresh []float64    // reference streams: the first set-up's warm-up and the first partial
	missStats   *dp.RunStats // the first timed miss's counters
	nodes       []opNodes    // traced ops' node times
}

// opNodes is one traced op's partition-tree node time, per iteration.
type opNodes struct{ leaf, internal float64 }

// newTree is U7-1 on the enron stand-in, batch auto (8 lanes on this
// graph), Inner mode at one worker.
func newTree() *dpLoad {
	return &dpLoad{network: "enron", tmpl: mustNamed("U7-1"), iters: 8, batch: dp.BatchAuto}
}

// newNontree is the tailed triangle (paw) through the bag DP on the
// scerevisiae PPI stand-in, at one worker.
func newNontree() *dpLoad {
	t, err := tmpl.Zoo("tailed-triangle")
	if err != nil {
		panic(err)
	}
	return &dpLoad{network: "scerevisiae", tmpl: t, iters: 4, motif: "tailed-triangle", validate: 32}
}

func mustNamed(name string) *tmpl.Template {
	t, err := tmpl.Named(name)
	if err != nil {
		panic(err)
	}
	return t
}

func (w *dpLoad) preset() string { return w.network }

func (w *dpLoad) close() { w.eng = nil }

func (w *dpLoad) config(seed int64) dp.Config {
	cfg := dp.DefaultConfig()
	cfg.Mode = dp.Inner
	cfg.Workers = 1
	cfg.Seed = seed
	cfg.Batch = w.batch
	return cfg
}

func (w *dpLoad) setup(ctx context.Context, b *bench) error {
	var err error
	b.span("graph.load", func() { b.loaded, err = fascia.LoadGraph(b.graphPath) })
	if err != nil {
		return fmt.Errorf("load graph: %w", err)
	}
	b.span("dp.build", func() { w.eng, err = dp.New(b.loaded, w.tmpl, w.config(b.querySeed(0))) })
	if err != nil {
		return fmt.Errorf("build engine: %w", err)
	}
	var res dp.Result
	b.span("dp.warmup", func() { res, err = w.run(ctx, b, b.querySeed(0)) })
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if w.miss == nil {
		w.miss = res.PerIteration
	} else if !sameStream(res.PerIteration, w.miss) {
		b.failRun("warm-up stream differs from the first set-up's")
	}
	return nil
}

// run counts w.iters iterations from seed on the engine.
func (w *dpLoad) run(ctx context.Context, b *bench, seed int64) (dp.Result, error) {
	w.eng.Reseed(seed)
	var res dp.Result
	var err error
	b.span("dp.run", func() { res, err = w.eng.RunContext(ctx, w.iters) })
	if err == nil && len(res.PerIteration) != w.iters {
		err = fmt.Errorf("%d of %d iterations", len(res.PerIteration), w.iters)
	}
	return res, err
}

func (w *dpLoad) stream(ctx context.Context, b *bench, traced bool) {
	q := b.querySeed(0)
	var res dp.Result
	rec, err := b.op(classMiss, traced, func() (int, error) {
		var err error
		res, err = w.run(ctx, b, q)
		return w.iters, err
	})
	if err == nil {
		w.observe(rec, res)
		if !sameStream(res.PerIteration, w.miss) {
			b.failOp("miss stream differs from the first op's")
		}
		if w.missStats == nil {
			st := res.Stats
			w.missStats = &st
		}
	}

	var merged fascia.Result
	rec, err = b.op(classPartial, traced, func() (int, error) {
		var err error
		res, err = w.run(ctx, b, q+int64(w.iters))
		if err == nil {
			b.span("fascia.merge", func() {
				merged = fascia.MergeIterations(w.miss, fascia.Result{PerIteration: res.PerIteration})
			})
		}
		return w.iters, err
	})
	if err != nil {
		return
	}
	w.observe(rec, res)
	if w.fresh == nil {
		w.fresh = res.PerIteration
	}
	switch {
	case !sameStream(res.PerIteration, w.fresh):
		b.failOp("partial stream differs from the first partial's")
	case merged.Iterations != 2*w.iters || !sameStream(merged.PerIteration[:w.iters], w.miss) ||
		!sameStream(merged.PerIteration[w.iters:], w.fresh):
		b.failOp("merged partial is not the miss followed by the fresh iterations")
	}
}

// observe keeps a traced op's partition-tree node times.
func (w *dpLoad) observe(rec *opRecord, res dp.Result) {
	if rec.traced {
		w.nodes = append(w.nodes, nodeTimes(res.Stats, w.iters))
	}
}

// nodeTimes splits a run's partition-tree node time into leaf and
// internal nodes, per iteration.
func nodeTimes(st dp.RunStats, iters int) opNodes {
	var n opNodes
	for _, s := range st.Nodes {
		if s.Leaf {
			n.leaf += ms(s.Time)
		} else {
			n.internal += ms(s.Time)
		}
	}
	n.leaf /= float64(iters)
	n.internal /= float64(iters)
	return n
}

func (w *dpLoad) finish(ctx context.Context, b *bench) error {
	if w.motif != "" {
		if err := w.checkMean(ctx, b); err != nil {
			return err
		}
	}
	if !b.cfg.trace {
		return nil
	}
	if w.batch != 0 {
		// The batched stream must match the scalar kernels' at B=1.
		var res dp.Result
		var err error
		b.span("replay.b1", func() {
			cfg := w.config(b.querySeed(0))
			cfg.Batch = 1
			var eng *dp.Engine
			b.span("dp.build", func() { eng, err = dp.New(b.loaded, w.tmpl, cfg) })
			if err == nil {
				b.span("dp.run", func() { res, err = eng.RunContext(ctx, w.iters) })
			}
		})
		if err != nil {
			return fmt.Errorf("B=1 replay: %w", err)
		}
		if !sameStream(res.PerIteration, w.miss) {
			b.failRun("batched stream differs from the B=1 stream")
		}
	}
	if w.missStats != nil {
		dpCounters(b, w.missStats, w.iters)
	}
	var leaf, internal []float64
	for _, n := range w.nodes {
		leaf = append(leaf, n.leaf)
		internal = append(internal, n.internal)
	}
	b.layer["dp.leaf_ms_per_iter"] = median(leaf)
	b.layer["dp.node_ms_per_iter"] = median(internal)
	return nil
}

// dpCounters records the exact counters of one DP run of iters
// iterations.
func dpCounters(b *bench, st *dp.RunStats, iters int) {
	n := float64(iters)
	b.layer["dp.kernel_direct_per_iter"] = float64(st.KernelDirect) / n
	b.layer["dp.kernel_aggregate_per_iter"] = float64(st.KernelAggregate) / n
	b.layer["dp.batch_lanes"] = float64(st.BatchSize)
	b.layer["dp.tiled_passes"] = float64(st.TiledPasses)
	b.layer["dp.tile_sweeps"] = float64(st.TileSweeps)
	b.layer["dp.peak_table_mb"] = float64(st.PeakTableBytes) / 1e6
	b.layer["table.rows_per_iter"] = float64(st.RowsAllocated) / n
	b.layer["table.arena_hits"] = float64(st.ArenaHits)
	b.layer["table.arena_misses"] = float64(st.ArenaMisses)
	if total := st.ArenaHits + st.ArenaMisses; total > 0 {
		b.layer["table.arena_hit_ratio"] = float64(st.ArenaHits) / float64(total)
	}
}

// checkMean checks the mean of the run's distinct iterations against
// the motif's exact count. A few iterations understate their own
// spread, so the miss's and the partial's iterations are pooled with
// w.validate more, computed after the timed phase from the next seeds.
func (w *dpLoad) checkMean(ctx context.Context, b *bench) error {
	want, err := exact.CountMotif(b.loaded, w.motif)
	if err != nil {
		return err
	}
	cfg := w.config(b.querySeed(0) + int64(2*w.iters))
	cfg.Mode = dp.Outer
	cfg.Workers = 0 // every CPU: this run is outside the clock
	eng, err := dp.New(b.loaded, w.tmpl, cfg)
	if err != nil {
		return err
	}
	res, err := eng.RunContext(ctx, w.validate)
	if err != nil {
		return fmt.Errorf("validation run: %w", err)
	}
	pool := append(append(append([]float64(nil), w.miss...), w.fresh...), res.PerIteration...)
	var mean, ss float64
	for _, x := range pool {
		mean += x
	}
	mean /= float64(len(pool))
	for _, x := range pool {
		ss += (x - mean) * (x - mean)
	}
	se := math.Sqrt(ss / float64(len(pool)-1) / float64(len(pool)))
	z := math.Abs(mean-float64(want)) / se
	b.info["mean_check_z"] = z
	if !(z <= 6) {
		b.failRun("mean %.1f of %d iterations is %.2f standard errors from the exact %s count %d",
			mean, len(pool), z, w.motif, want)
	}
	return nil
}
