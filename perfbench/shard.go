package main

import (
	"context"
	"fmt"
	"net"
	"time"

	fascia "repro"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/shard"
	"repro/internal/tmpl"
)

// shardLoad is two shard.Workers on loopback listeners, each holding the
// graph, registered in a shard.Pool. Every stream runs the same seeded
// Pool.Count of U7-1 (the miss) and the same seeded top-up (the partial).
type shardLoad struct {
	tmpl  *tmpl.Template
	iters int
	ranks int
	// replays is how many local-engine replays a traced run makes.
	replays int

	workers []*shard.Worker
	served  []chan struct{} // closed when each worker's Serve returns
	pool    *shard.Pool
	hash    uint64
	stats0  shard.PoolStats

	miss, fresh    []float64 // reference streams
	missOut        *shard.Outcome
	groups, frames []float64 // per op: timing-dependent send grouping
}

func newShard() *shardLoad {
	return &shardLoad{tmpl: mustNamed("U7-1"), iters: 8, ranks: 2, replays: 3}
}

func (w *shardLoad) preset() string { return "scerevisiae" }

func (w *shardLoad) setup(ctx context.Context, b *bench) error {
	var err error
	b.span("graph.load", func() { b.loaded, err = fascia.LoadGraph(b.graphPath) })
	if err != nil {
		return fmt.Errorf("load graph: %w", err)
	}
	b.span("shard.start", func() { err = w.start(b.loaded) })
	if err != nil {
		return err
	}
	var out shard.Outcome
	b.span("dp.warmup", func() { out, err = w.count(ctx, b, b.querySeed(0)) })
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if w.miss == nil {
		w.miss = out.PerIteration
	} else if !sameStream(out.PerIteration, w.miss) {
		b.failRun("warm-up stream differs from the first set-up's")
	}
	w.stats0 = w.pool.Stats()
	return nil
}

// start boots the ranks' workers and registers them in a new pool.
func (w *shardLoad) start(g *graph.Graph) error {
	w.pool = shard.NewPool(shard.PoolOptions{})
	for r := 0; r < w.ranks; r++ {
		wk := shard.NewWorker(shard.WorkerOptions{})
		w.hash = wk.AddGraph(g)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			wk.Close()
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			wk.Serve(ln) // returns once close calls wk.Close
		}()
		w.workers = append(w.workers, wk)
		w.served = append(w.served, done)
		w.pool.Register(ln.Addr().String(), []uint64{w.hash})
	}
	return nil
}

func (w *shardLoad) close() {
	for i, wk := range w.workers {
		wk.Close()
		<-w.served[i]
	}
	w.workers, w.served, w.pool = nil, nil, nil
}

// count dispatches iterations [seed, seed+iters) to the pool.
func (w *shardLoad) count(ctx context.Context, b *bench, seed int64) (shard.Outcome, error) {
	var out shard.Outcome
	var err error
	b.span("shard.count", func() {
		out, err = w.pool.Count(ctx, shard.Query{
			GraphHash: w.hash, GraphN: b.loaded.N(), Template: w.tmpl,
			Strategy: part.OneAtATime, Seed: seed, Iterations: w.iters,
		})
	})
	if err == nil && len(out.PerIteration) != w.iters {
		err = fmt.Errorf("%d of %d iterations", len(out.PerIteration), w.iters)
	}
	return out, err
}

func (w *shardLoad) stream(ctx context.Context, b *bench, traced bool) {
	q := b.querySeed(0)
	var out shard.Outcome
	_, err := b.op(classMiss, traced, func() (int, error) {
		var err error
		out, err = w.count(ctx, b, q)
		return w.iters, err
	})
	if err == nil {
		w.observe(out)
		if !sameStream(out.PerIteration, w.miss) {
			b.failOp("miss stream differs from the first op's")
		}
		if w.missOut == nil {
			o := out
			w.missOut = &o
		}
	}

	var merged fascia.Result
	_, err = b.op(classPartial, traced, func() (int, error) {
		var err error
		out, err = w.count(ctx, b, q+int64(w.iters))
		if err == nil {
			b.span("fascia.merge", func() {
				merged = fascia.MergeIterations(w.miss, fascia.Result{PerIteration: out.PerIteration})
			})
		}
		return w.iters, err
	})
	if err != nil {
		return
	}
	w.observe(out)
	if w.fresh == nil {
		w.fresh = out.PerIteration
	}
	switch {
	case !sameStream(out.PerIteration, w.fresh):
		b.failOp("partial stream differs from the first partial's")
	case merged.Iterations != 2*w.iters || !sameStream(merged.PerIteration[w.iters:], w.fresh):
		b.failOp("merged partial is not the miss followed by the fresh iterations")
	}
}

func (w *shardLoad) observe(out shard.Outcome) {
	w.groups = append(w.groups, float64(out.Groups))
	w.frames = append(w.frames, float64(out.GroupedFrames))
}

func (w *shardLoad) finish(ctx context.Context, b *bench) error {
	if !b.cfg.trace {
		return nil
	}
	if o := w.missOut; o != nil {
		b.layer["shard.messages_per_op"] = float64(o.Messages)
		b.layer["shard.comm_mb_per_op"] = float64(o.CommBytes) / 1e6
		b.layer["shard.max_rank_rows"] = float64(o.MaxRankRows)
	}
	b.layer["shard.groups_per_op"] = median(w.groups)
	b.layer["shard.grouped_frames_per_op"] = median(w.frames)
	st := w.pool.Stats()
	b.layer["shard.redispatches"] = float64(st.Redispatches - w.stats0.Redispatches)
	b.layer["shard.failures"] = float64(st.Failures - w.stats0.Failures)

	// The same query on the local engine at one worker: the compute
	// floor under the wire, and a check that the ranks' stream is the
	// local engine's.
	var iterMS, leaf, internal []float64
	for i := 0; i < w.replays; i++ {
		opt := fascia.DefaultOptions().WithSeed(b.querySeed(0)).WithThreads(1)
		var res fascia.Result
		var err error
		b.span("replay.local", func() {
			var e *fascia.Engine
			b.span("dp.build", func() { e, err = fascia.NewEngine(b.loaded, w.tmpl, opt) })
			if err == nil {
				b.span("dp.run", func() {
					t0 := time.Now()
					res, err = e.RunContext(ctx, w.iters)
					iterMS = append(iterMS, ms(time.Since(t0))/float64(w.iters))
				})
			}
		})
		if err != nil {
			return fmt.Errorf("local replay: %w", err)
		}
		if !sameStream(res.PerIteration, w.miss) {
			b.failRun("shard stream differs from the local engine's")
		}
		n := nodeTimes(res.Stats, w.iters)
		leaf, internal = append(leaf, n.leaf), append(internal, n.internal)
		if i == 0 {
			dpCounters(b, &res.Stats, w.iters)
		}
	}
	b.layer["shard.local_iter_ms"] = median(iterMS)
	b.layer["dp.leaf_ms_per_iter"] = median(leaf)
	b.layer["dp.node_ms_per_iter"] = median(internal)
	return nil
}
