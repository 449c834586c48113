package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Op classes. Every workload runs streams of ops on one query: a miss
// computes the query's answer from nothing, hits (serve only) read the
// cached answer back, and a partial tops the answer up to twice its
// iterations, computing only the second half.
const (
	classMiss    = "miss"
	classHit     = "hit"
	classPartial = "partial"
)

// opRecord is one timed op as its caller saw it.
type opRecord struct {
	class   string
	ms      float64 // wall time of the call
	fresh   int     // DP iterations the op computed (0 for hits)
	handler float64 // serve: the server-reported elapsed_ms
	traced  bool
	allocMB float64 // traced ops: heap allocated during the call
	gcs     float64 // traced ops: GC cycles completed during the call
	failed  bool
}

// workload is one of the benchmark's systems under test. setup runs
// once per set-up (the runner times it and closes all but the last);
// stream runs one stream of timed ops; finish runs the run-level checks
// and, in trace mode, the replays behind the per-layer metrics.
type workload interface {
	preset() string
	setup(ctx context.Context, b *bench) error
	stream(ctx context.Context, b *bench, traced bool)
	finish(ctx context.Context, b *bench) error
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tree":
		return newTree(), nil
	case "nontree":
		return newNontree(), nil
	case "serve":
		return newServe(), nil
	case "shard":
		return newShard(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tree, nontree, serve or shard)", name)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	dir      string // generated graph file and trace output
}

// bench is the state one run shares with its workload.
type bench struct {
	cfg       config
	tr        *tracer
	stderr    io.Writer
	graphPath string
	graphHash uint64
	loaded    *graph.Graph // the graph the latest set-up loaded
	ops       []opRecord
	streams   int
	runFailed int                // failed run-level checks
	layer     map[string]float64 // per-layer metrics the workload measured
	info      map[string]any     // check details for the context line
	logged    int
}

// networkSeed generates every workload's stand-in network. The graph is
// the same in every run, as a paper's dataset is: on the scerevisiae
// stand-in the bag DP's work moves by ±13% from one generator seed to
// the next, which would swamp the run-to-run spread. The workload seed
// chooses the queries instead.
const networkSeed = 1

// querySeed returns the first coloring seed of query i of the run.
// Queries are 64 seeds apart, so no two share an iteration.
func (b *bench) querySeed(i int) int64 { return b.cfg.seed<<20 + int64(i)*64 }

// logf reports a failure on standard error, at most 20 times a run.
func (b *bench) logf(format string, args ...any) {
	if b.logged++; b.logged <= 20 {
		fmt.Fprintf(b.stderr, "perfbench: "+format+"\n", args...)
	}
}

// failOp marks the latest op failed.
func (b *bench) failOp(format string, args ...any) {
	b.ops[len(b.ops)-1].failed = true
	b.logf(format, args...)
}

// failRun records a failed run-level check.
func (b *bench) failRun(format string, args ...any) {
	b.runFailed++
	b.logf(format, args...)
}

// op times call as one op of the given class and records it; call
// reports how many iterations it computed. A heap collection runs first,
// outside the clock, so every computing op starts from the same heap.
func (b *bench) op(class string, traced bool, call func() (fresh int, err error)) (*opRecord, error) {
	if class != classHit {
		runtime.GC()
	}
	b.tr.on = traced
	b.tr.setOp(len(b.ops) + 1)
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	sp := b.tr.begin("op." + class)
	t0 := time.Now()
	fresh, err := call()
	d := time.Since(t0)
	b.tr.end(sp)
	rec := opRecord{class: class, ms: ms(d), fresh: fresh, traced: traced}
	if traced {
		runtime.ReadMemStats(&m1)
		rec.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		rec.gcs = float64(m1.NumGC - m0.NumGC)
	}
	b.ops = append(b.ops, rec)
	if err != nil {
		b.failOp("%s op %d: %v", class, len(b.ops), err)
	}
	return &b.ops[len(b.ops)-1], err
}

// traced runs fn with spans on, as the untimed parts of a trace-mode run
// (set-ups, replays) are.
func (b *bench) traced(fn func()) {
	on := b.tr.on
	b.tr.on = b.cfg.trace
	b.tr.setOp(0)
	fn()
	b.tr.on = on
}

// span times fn as a span of the given name.
func (b *bench) span(name string, fn func()) {
	sp := b.tr.begin(name)
	fn()
	b.tr.end(sp)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// outcome is what one run measured.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	setups    []float64
	host      hostContext
	graph     graphInfo
	classes   map[string]int
	info      map[string]any
	traceFile string      // trace mode: where the spans were written
	layers    []layerTime // trace mode: time and self time per span name
}

type graphInfo struct {
	Preset string `json:"preset"`
	N      int    `json:"n"`
	M      int64  `json:"m"`
	Hash   string `json:"hash"`
}

// runBench generates the input, sets the workload up cfg.setups times,
// runs streams for cfg.seconds and computes the run's metrics.
func runBench(ctx context.Context, cfg config, stderr io.Writer) (*outcome, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	ticks0 := readCPUTicks()
	b := &bench{cfg: cfg, tr: newTracer(cfg.trace), stderr: stderr,
		layer: map[string]float64{}, info: map[string]any{}}

	// The input is generated and written before any clock starts; every
	// set-up loads it through the program's own loader.
	p, err := gen.ByName(w.preset())
	if err != nil {
		return nil, err
	}
	g := p.Build(1.0, networkSeed)
	b.graphHash = graph.Hash(g)
	b.graphPath, err = writeGraph(cfg.dir, cfg.workload, cfg.seed, g)
	if err != nil {
		return nil, err
	}
	defer os.Remove(b.graphPath)
	info := graphInfo{Preset: p.Name, N: g.N(), M: g.M(), Hash: fmt.Sprintf("%016x", b.graphHash)}
	g = nil

	out := &outcome{graph: info, classes: map[string]int{}}
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.close()
			debug.FreeOSMemory()
		}
		var serr error
		t0 := time.Now()
		b.traced(func() { b.span("setup", func() { serr = w.setup(ctx, b) }) })
		d := time.Since(t0)
		if serr != nil {
			w.close()
			return nil, fmt.Errorf("set-up %d: %w", i+1, serr)
		}
		out.setups = append(out.setups, d.Seconds())
		if h := graph.Hash(b.loaded); h != b.graphHash {
			w.close()
			return nil, fmt.Errorf("loaded graph hash %016x differs from the generated %016x", h, b.graphHash)
		}
	}
	defer w.close()

	rss := startRSS(20 * time.Millisecond)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for b.streams == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		// Trace mode alternates traced and untraced streams, so the
		// overhead of recording spans is measured within the run.
		w.stream(ctx, b, cfg.trace && b.streams%2 == 0)
		b.streams++
	}
	rssMB := rss.finish()
	b.tr.on = false
	var ferr error
	b.traced(func() { ferr = w.finish(ctx, b) })
	if ferr != nil {
		return nil, ferr
	}
	out.host = newHostContext(ticks0, readCPUTicks())
	out.info = b.info

	out.attempted = len(b.ops)
	out.failed = b.runFailed
	var perIter, traced, untraced []float64
	byClass := map[string][]float64{}
	for _, o := range b.ops {
		out.classes[o.class]++
		if o.failed {
			out.failed++
		}
		byClass[o.class] = append(byClass[o.class], o.ms)
		if o.fresh > 0 {
			perIter = append(perIter, o.ms/float64(o.fresh))
			if o.traced {
				traced = append(traced, o.ms/float64(o.fresh))
			} else {
				untraced = append(untraced, o.ms/float64(o.fresh))
			}
		}
	}
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":        median(out.setups),
			"rss_mb_p90":     quantile(rssMB, 0.9),
			"iter_ms":        median(perIter),
			"miss_ms_p50":    median(byClass[classMiss]),
			"partial_ms_p50": median(byClass[classPartial]),
		}
		return out, nil
	}
	b.layer["graph.load_ms"] = median(b.tr.durations("graph.load"))
	b.layer["dp.build_ms"] = median(b.tr.durations("dp.build"))
	b.layer["dp.warmup_ms"] = median(b.tr.durations("dp.warmup"))
	b.layer["dp.alloc_mb_per_iter"] = b.perIterMedian(func(o opRecord) float64 { return o.allocMB })
	b.layer["dp.gc_per_iter"] = b.perIterMedian(func(o opRecord) float64 { return o.gcs })
	if len(traced) > 0 && len(untraced) > 0 {
		b.layer["trace.overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	}
	out.metrics = map[string]float64{}
	for _, m := range perLayer {
		out.metrics[m.name] = b.layer[m.name] // 0 where the layer is off the workload's path
	}
	out.layers = b.tr.layerTimes()
	out.traceFile = filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := writeTrace(out.traceFile, cfg, out, b.tr.spans); err != nil {
		return nil, err
	}
	return out, nil
}

// writeTrace writes a traced run's spans, kept in memory until now.
func writeTrace(path string, cfg config, out *outcome, spans []span) error {
	data, err := json.Marshal(map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"graph":    out.graph,
		"host":     out.host,
		"layers":   out.layers,
		"spans":    spans,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// classTimes returns the wall times of a class's successful ops.
func (b *bench) classTimes(class string) []float64 {
	var xs []float64
	for _, o := range b.ops {
		if o.class == class && !o.failed {
			xs = append(xs, o.ms)
		}
	}
	return xs
}

// perIterMedian returns the median over traced computing ops of f(op)
// divided by the op's fresh iterations.
func (b *bench) perIterMedian(f func(o opRecord) float64) float64 {
	var xs []float64
	for _, o := range b.ops {
		if o.traced && o.fresh > 0 {
			xs = append(xs, f(o)/float64(o.fresh))
		}
	}
	return median(xs)
}

// sameStream reports whether two estimate streams are bit-identical.
func sameStream(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
