// Command fascia counts approximate non-induced occurrences of a tree
// template in a graph using the color-coding technique.
//
// Usage:
//
//	fascia -graph g.txt -template U7-1 [-iterations 100] [flags]
//	fascia -network enron -scale 0.1 -template "0-1 1-2 1-3" -iterations 50
//
// The graph comes either from a file (-graph, text edge list or .bin CSR)
// or from a named synthetic preset (-network, see -list-networks). The
// template is a paper name (U3-1 ... U12-2), a path size (path:K), a star
// (star:K), or an explicit edge list ("0-1 1-2 ...").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	fascia "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fascia:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fascia", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "graph file (text edge list, or .bin CSR)")
		network    = fs.String("network", "", "generate a named synthetic network instead of loading a file")
		scale      = fs.Float64("scale", 1.0, "scale factor for -network (1.0 = paper-sized)")
		templSpec  = fs.String("template", "U5-1", "template: paper name, path:K, star:K, or edge list like \"0-1 1-2\"")
		iterations = fs.Int("iterations", 1, "number of color-coding iterations")
		epsilon    = fs.Float64("epsilon", 0, "error bound (with -delta, overrides -iterations)")
		delta      = fs.Float64("delta", 0, "confidence parameter (with -epsilon)")
		colors     = fs.Int("colors", 0, "number of colors (0 = template size)")
		threads    = fs.Int("threads", 0, "worker goroutines (0 = GOMAXPROCS)")
		mode       = fs.String("parallel", "auto", "parallelization: auto, inner, outer, hybrid")
		layout     = fs.String("table", "lazy", "table layout: lazy, naive, hash, succinct")
		kernel     = fs.String("kernel", "auto", "DP combination kernel: auto, direct, aggregate")
		batch      = fs.String("batch", "1", "iteration batch width: lanes per DP traversal (an integer, or \"auto\")")
		mem        = fs.Int64("mem", 0, "peak table-memory budget in bytes: large slabs spill to file-backed mappings (0 = FASCIA_MEM_BYTES env or unlimited, negative = never spill)")
		adaptive   = fs.Float64("adaptive", 0, "variance-targeted stopping: run until the relative stderr drops below this, -iterations capping the run (0 = fixed iterations)")
		partition  = fs.String("partition", "one", "partitioning: one (one-at-a-time), balanced")
		share      = fs.Bool("share", false, "share isomorphic subtemplates (memory for time)")
		seed       = fs.Int64("seed", 0, "random seed")
		labels     = fs.Int("labels", 0, "assign this many random vertex labels to the graph")
		sample     = fs.Int("sample", 0, "also sample this many embeddings (enumeration mode)")
		exact      = fs.Bool("exact", false, "also compute the exact count by exhaustive search (slow)")
		induced    = fs.Bool("induced", false, "with -exact, also report the exact induced count")
		converge   = fs.Float64("converge", 0, "run until the relative stderr drops below this (overrides -iterations)")
		motifs     = fs.Int("motifs", 0, "instead of one template, profile all trees of this size (3-12)")
		list       = fs.Bool("list-networks", false, "list network presets and exit")
		metricsA   = fs.String("metrics-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address")
		timeout    = fs.Duration("timeout", 0, "bound the counting run; on expiry the partial estimate is reported")
		progress   = fs.Bool("progress", false, "print each iteration's estimate as it completes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, p := range fascia.Networks() {
			fmt.Printf("%-12s %-55s paper: n=%d m=%d\n", p.Name, p.Model, p.Paper.N, p.Paper.M)
		}
		return nil
	}

	// Ctrl-C (or -timeout) aborts the run promptly and reports the
	// partial estimate over completed iterations.
	ctx, cancelCtx := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelCtx()

	if *metricsA != "" {
		addr, shutdown, err := startMetrics(*metricsA)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/debug/vars (pprof at /debug/pprof/)\n", addr)
	}

	g, err := loadGraph(*graphPath, *network, *scale, *seed, *mem)
	if err != nil {
		return err
	}
	if *labels > 0 {
		fascia.AssignRandomLabels(g, *labels, *seed+1)
	}
	t, err := parseTemplate(*templSpec)
	if err != nil {
		return err
	}

	opt := fascia.DefaultOptions().WithSeed(*seed).WithThreads(*threads)
	opt.Colors = *colors
	opt.ShareSubtemplates = *share
	if *timeout > 0 {
		opt = opt.WithTimeout(*timeout)
	}
	if *metricsA != "" || *progress {
		verbose := *progress
		opt = opt.WithOnIteration(func(i int, est float64, elapsed time.Duration) {
			onIteration(i, est, elapsed)
			if verbose {
				fmt.Fprintf(os.Stderr, "iteration %d: estimate %.6g (%v elapsed)\n", i+1, est, elapsed.Round(time.Millisecond))
			}
		})
	}
	if *epsilon > 0 && *delta > 0 {
		opt = opt.WithAccuracy(*epsilon, *delta)
		fmt.Printf("iterations from (eps=%g, delta=%g): %d\n", *epsilon, *delta, fascia.IterationsFor(*epsilon, *delta, t.K()))
	} else {
		opt = opt.WithIterations(*iterations)
	}
	switch *mode {
	case "auto":
		opt = opt.WithParallel(fascia.ParallelAuto)
	case "inner":
		opt = opt.WithParallel(fascia.ParallelInner)
	case "outer":
		opt = opt.WithParallel(fascia.ParallelOuter)
	case "hybrid":
		opt = opt.WithParallel(fascia.ParallelHybrid)
	default:
		return fmt.Errorf("unknown -parallel %q", *mode)
	}
	switch *layout {
	case "lazy":
		opt = opt.WithTable(fascia.TableLazy)
	case "naive":
		opt = opt.WithTable(fascia.TableNaive)
	case "hash":
		opt = opt.WithTable(fascia.TableHash)
	case "succinct":
		opt = opt.WithTable(fascia.TableSuccinct)
	default:
		return fmt.Errorf("unknown -table %q", *layout)
	}
	switch *kernel {
	case "auto":
		opt = opt.WithKernel(fascia.KernelAuto)
	case "direct":
		opt = opt.WithKernel(fascia.KernelDirect)
	case "aggregate":
		opt = opt.WithKernel(fascia.KernelAggregate)
	default:
		return fmt.Errorf("unknown -kernel %q", *kernel)
	}
	switch *partition {
	case "one":
		opt = opt.WithPartition(fascia.PartitionOneAtATime)
	case "balanced":
		opt = opt.WithPartition(fascia.PartitionBalanced)
	default:
		return fmt.Errorf("unknown -partition %q", *partition)
	}
	if *batch == "auto" {
		opt = opt.WithBatch(fascia.BatchAuto)
	} else if b, err := strconv.Atoi(*batch); err == nil && b >= 1 {
		opt = opt.WithBatch(b)
	} else {
		return fmt.Errorf("bad -batch %q (want a positive integer or \"auto\")", *batch)
	}
	opt = opt.WithMemBudgetBytes(*mem)
	if *adaptive > 0 {
		opt = opt.WithAdaptive(*adaptive)
	}

	s := g.ComputeStats()
	if *motifs > 0 {
		prof, err := fascia.FindMotifsContext(ctx, "cli", g, *motifs, max(*iterations, 1), opt)
		if err != nil {
			return err
		}
		rel := prof.RelativeFrequencies()
		fmt.Printf("graph: %s\nmotif profile, all %d trees of size %d, %d iterations:\n",
			s, len(prof.Trees), *motifs, prof.Iterations)
		for i, tr := range prof.Trees {
			fmt.Printf("  %2d %-30s count %.6g  rel %.4f\n", i+1, tr.String(), prof.Counts[i], rel[i])
		}
		return nil
	}
	fmt.Printf("graph: %s\ntemplate: %s (k=%d, aut=%d)\n", s, t.Name(), t.K(), t.Automorphisms())
	var res fascia.Result
	if *converge > 0 {
		res, err = fascia.CountConvergedContext(ctx, g, t, *converge, 1_000_000, opt)
	} else {
		res, err = fascia.CountContext(ctx, g, t, opt)
	}
	publishStats(res)
	if err != nil {
		if res.Iterations == 0 {
			return err
		}
		// Cancelled or timed out mid-run: report the partial estimate.
		fmt.Fprintf(os.Stderr, "run interrupted (%v); reporting partial result over %d iterations\n", err, res.Iterations)
	}
	fmt.Printf("estimate: %.6g occurrences (±%.3g stderr, %d iterations, %v, %s mode, peak tables %.2f MB)\n",
		res.Count, res.StdErr, res.Iterations, res.Elapsed.Round(0), res.Parallel, float64(res.PeakTableBytes)/(1<<20))
	if res.Stats.MemBudgetBytes > 0 {
		fmt.Printf("memory: budget %.0f MB, spilled %.2f MB in %d slabs, peak RSS %.1f MB\n",
			float64(res.Stats.MemBudgetBytes)/(1<<20), float64(res.Stats.SpillMappedBytes)/(1<<20),
			res.Stats.SpillSlabs, float64(res.Stats.PeakRSSBytes)/(1<<20))
	}
	if err != nil {
		return nil // partial result already reported; exit cleanly
	}

	if *exact {
		ex := fascia.ExactCount(g, t)
		rel := 0.0
		if ex > 0 {
			rel = (res.Count - float64(ex)) / float64(ex)
		}
		fmt.Printf("exact: %d occurrences (relative error %+.4f)\n", ex, rel)
		if *induced {
			fmt.Printf("exact induced: %d occurrences\n", fascia.ExactCountInduced(g, t))
		}
	}
	if *sample > 0 {
		embs, err := fascia.SampleEmbeddingsContext(ctx, g, t, opt, *sample)
		if err != nil {
			return err
		}
		for i, emb := range embs {
			fmt.Printf("embedding %d: %v\n", i+1, emb.Mapping)
		}
	}
	return nil
}

func loadGraph(path, network string, scale float64, seed int64, mem int64) (*fascia.Graph, error) {
	switch {
	case path != "" && network != "":
		return nil, fmt.Errorf("use either -graph or -network, not both")
	case path != "":
		// Under a memory budget (explicit -mem or the env knob), map
		// binary CSRs in place instead of reading them onto the heap.
		if strings.HasSuffix(path, ".bin") && (mem > 0 || (mem == 0 && os.Getenv("FASCIA_MEM_BYTES") != "")) {
			return fascia.MapGraph(path)
		}
		return fascia.LoadGraph(path)
	case network != "":
		p, err := fascia.Network(network)
		if err != nil {
			return nil, err
		}
		return p.Build(scale, seed), nil
	default:
		return nil, fmt.Errorf("one of -graph or -network is required")
	}
}

func parseTemplate(spec string) (*fascia.Template, error) {
	// Zoo motif names first ("triangle", "c4", "paw", ...) — before the
	// edge-list case, which would otherwise swallow "tailed-triangle".
	if t, err := fascia.MotifZooTemplate(strings.ToLower(spec)); err == nil {
		return t, nil
	}
	switch {
	case strings.HasPrefix(spec, "path:"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "path:"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad path template %q", spec)
		}
		return fascia.PathTemplate(k), nil
	case strings.HasPrefix(spec, "star:"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "star:"))
		if err != nil || k < 2 {
			return nil, fmt.Errorf("bad star template %q", spec)
		}
		return fascia.StarTemplate(k), nil
	case strings.HasPrefix(spec, "cycle:"), strings.HasPrefix(spec, "clique:"), isCompactGraphSpec(spec):
		// "cycle:6", "clique:4", "c5", "k4" — keep the built-in names.
		return fascia.ParseGraphTemplate("", spec)
	case strings.Contains(spec, "-") && !strings.HasPrefix(spec, "U"):
		// General edge lists — cyclic specs like "0-1 1-2 2-0" route to
		// the tree-decomposition engine; tree specs stay tree templates.
		return fascia.ParseGraphTemplate("custom", spec)
	default:
		return fascia.TemplateByName(spec)
	}
}

// isCompactGraphSpec reports whether spec is bare cycle/clique notation:
// "c" or "k" followed by digits only.
func isCompactGraphSpec(spec string) bool {
	if len(spec) < 2 || (spec[0] != 'c' && spec[0] != 'k') {
		return false
	}
	_, err := strconv.Atoi(spec[1:])
	return err == nil
}
