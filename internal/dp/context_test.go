package dp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/tmpl"
)

// cancelWorkload builds a (graph, template, iters) workload that takes at
// least about a second to run uncancelled on one core, so a mid-run
// cancellation has something to interrupt.
func cancelWorkload(t *testing.T) (cfg Config, iters int, build func(Config) *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 2000, 20000)
	tr := tmpl.Path(10)
	cfg = DefaultConfig()
	cfg.Seed = 5
	build = func(c Config) *Engine {
		e, err := New(g, tr, c)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Calibrate the iteration count so the full run takes >= ~1s.
	e := build(cfg)
	start := time.Now()
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	per := time.Since(start)
	iters = int(time.Second/per) + 2
	return cfg, iters, build
}

// TestRunContextCancelPrompt is the acceptance test for the cancellation
// latency criterion: in every parallel mode, cancelling a >= 1s workload
// returns within 100ms, with err = context.Canceled, a partial
// PerIteration, and no leaked goroutines.
func TestRunContextCancelPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a ~1s workload")
	}
	cfg, iters, build := cancelWorkload(t)
	for _, mode := range []Mode{Inner, Outer, Hybrid} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := cfg
			c.Mode = mode
			e := build(c)
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelTime time.Time
			timer := time.AfterFunc(50*time.Millisecond, func() {
				cancelTime = time.Now()
				cancel()
			})
			defer timer.Stop()

			res, err := e.RunContext(ctx, iters)
			returned := time.Now()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if cancelTime.IsZero() {
				t.Fatal("run finished before the cancel fired; workload too small")
			}
			if lat := returned.Sub(cancelTime); lat > 100*time.Millisecond {
				t.Errorf("returned %v after cancellation, want <= 100ms", lat)
			}
			if len(res.PerIteration) >= iters {
				t.Errorf("all %d iterations completed despite cancellation", iters)
			}
			if !res.Stats.Cancelled {
				t.Error("Stats.Cancelled not set")
			}
			if res.Stats.Iterations != len(res.PerIteration) {
				t.Errorf("Stats.Iterations = %d, PerIteration has %d", res.Stats.Iterations, len(res.PerIteration))
			}
			// No goroutine leak: worker pools must drain and exit.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines leaked: %d before, %d after", before, after)
			}
		})
	}
}

// TestRunContextAlreadyCancelled checks that a pre-cancelled context
// yields zero completed iterations and the context error immediately.
func TestRunContextAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 60, 200)
	e, err := New(g, tmpl.Path(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunContext(ctx, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.PerIteration) != 0 {
		t.Fatalf("pre-cancelled run completed %d iterations", len(res.PerIteration))
	}
	if !res.Stats.Cancelled {
		t.Error("Stats.Cancelled not set")
	}
}

// TestRunContextMatchesRun checks bit-identical estimates between the
// context and plain entry points (the cancellation plumbing must not
// perturb seeds or summation order).
func TestRunContextMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 150, 700)
	tr := tmpl.MustNamed("U5-2")
	for _, mode := range []Mode{Inner, Outer, Hybrid} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Seed = 11
		e1, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := e1.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.RunContext(context.Background(), 6)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Estimate != r2.Estimate {
			t.Fatalf("mode %v: Run=%v RunContext=%v", mode, r1.Estimate, r2.Estimate)
		}
		for i := range r1.PerIteration {
			if r1.PerIteration[i] != r2.PerIteration[i] {
				t.Fatalf("mode %v: iteration %d differs", mode, i)
			}
		}
	}
}

// TestVertexCountsContextCancel checks cancellation and partial rescaling
// of the per-vertex counting path.
func TestVertexCountsContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 100, 400)
	cfg := DefaultConfig()
	cfg.RootVertex = 0
	e, err := New(g, tmpl.Path(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if counts, err := e.VertexCountsContext(ctx, 4); !errors.Is(err, context.Canceled) || counts != nil {
		t.Fatalf("pre-cancelled VertexCounts: counts=%v err=%v", counts != nil, err)
	}
}

// TestRunConvergedContextCancel checks the adaptive runner honors a
// pre-cancelled context.
func TestRunConvergedContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randomGraph(rng, 100, 400)
	e, err := New(g, tmpl.Path(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunConvergedContext(ctx, 0.01, 2, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.PerIteration) != 0 || !res.Stats.Cancelled {
		t.Fatalf("pre-cancelled converged run: %d iterations, cancelled=%v", len(res.PerIteration), res.Stats.Cancelled)
	}
}

// TestOnIterationHook checks the progress hook fires once per completed
// iteration with increasing elapsed times, in every mode.
func TestOnIterationHook(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 100, 400)
	for _, mode := range []Mode{Inner, Outer, Hybrid} {
		var calls int
		var lastElapsed time.Duration
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.OnIteration = func(i int, est float64, elapsed time.Duration) {
			calls++
			if est <= 0 {
				t.Errorf("mode %v: iteration %d estimate %v", mode, i, est)
			}
			if elapsed < 0 {
				t.Errorf("mode %v: negative elapsed", mode)
			}
			lastElapsed = elapsed
		}
		e, err := New(g, tmpl.Path(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(5); err != nil {
			t.Fatal(err)
		}
		if calls != 5 {
			t.Fatalf("mode %v: OnIteration fired %d times, want 5", mode, calls)
		}
		if lastElapsed == 0 {
			t.Errorf("mode %v: elapsed never set", mode)
		}
	}
}

// TestRunStatsInvariants checks the observability snapshot's internal
// consistency: node times account for most of the elapsed wall time in a
// sequential run, the kernel pass counter is in lane units (the same at
// B = 1 and B = 4 here) and the deprecated direct counter stays 0, row
// traffic balances, and iteration timings are complete.
func TestRunStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 1200, 12000)
	tr := tmpl.MustNamed("U7-1")
	iters := 4

	var passes int64
	for _, batch := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Mode = Inner
		cfg.Workers = 1
		cfg.Batch = batch
		e, err := New(g, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats

		if s.Iterations != iters || len(s.IterTimes) != iters {
			t.Fatalf("B=%d: Iterations=%d IterTimes=%d, want %d", batch, s.Iterations, len(s.IterTimes), iters)
		}
		if s.Layout != "lazy" {
			t.Errorf("B=%d: Layout = %q", batch, s.Layout)
		}
		if len(s.Nodes) == 0 {
			t.Fatalf("B=%d: no node stats", batch)
		}
		// Node times must account for the bulk of the run: within 20% of
		// elapsed (the acceptance criterion; coloring and scan overhead
		// make up the rest).
		total := s.NodeTimeTotal()
		if total > res.Elapsed {
			t.Errorf("B=%d: node time %v exceeds elapsed %v in a sequential run", batch, total, res.Elapsed)
		}
		if float64(total) < 0.8*float64(res.Elapsed) {
			t.Errorf("B=%d: node time %v below 80%% of elapsed %v", batch, total, res.Elapsed)
		}
		// Every internal-node pass lands on the aggregate counter, in
		// lane units. On this dense graph every vertex holds counts in
		// every lane, so the figure reads the same at B = 1 and B = 4.
		if s.KernelDirect != 0 || s.KernelAggregate == 0 {
			t.Errorf("B=%d: direct=%d aggregate=%d", batch, s.KernelDirect, s.KernelAggregate)
		}
		if passes == 0 {
			passes = s.KernelAggregate
		} else if s.KernelAggregate != passes {
			t.Errorf("B=%d: %d kernel passes, %d at B=1", batch, s.KernelAggregate, passes)
		}
		// Without KeepTables every allocated row and table is released.
		if s.RowsAllocated != s.RowsReleased {
			t.Errorf("B=%d: rows allocated %d != released %d", batch, s.RowsAllocated, s.RowsReleased)
		}
		if s.TablesAllocated != s.TablesReleased {
			t.Errorf("B=%d: tables allocated %d != released %d", batch, s.TablesAllocated, s.TablesReleased)
		}
		if s.RowsAllocated == 0 {
			t.Errorf("B=%d: no row traffic recorded", batch)
		}
		if s.PeakTableBytes != res.PeakTableBytes {
			t.Errorf("B=%d: stats peak %d != result peak %d", batch, s.PeakTableBytes, res.PeakTableBytes)
		}
		if s.Cancelled {
			t.Errorf("B=%d: uncancelled run marked cancelled", batch)
		}
	}
}
