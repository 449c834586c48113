// Command perfbench is the repository's benchmark: four seeded workloads
// (tree, nontree, serve, shard) driven from one process. A timed run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// records a span around every call the benchmark makes into a layer and
// reports the per-layer metrics. The last line of standard output is
// the result as one JSON object; the line before it records the input's
// graph hash and the host context. See README.md.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload nontree --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
)

// setups is how many times a run sets its workload up; setup_s is the
// median of their times.
const setups = 5

// slack bounds what a run may spend beyond its timed phase: set-ups,
// the checks and the replays.
const slack = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "tree, nontree, serve or shard")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every query's coloring seeds derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for the generated graph and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.setups = setups
	if cfg.seconds <= 0 || cfg.seed < 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -seed non-negative")
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	limit := time.Duration(cfg.seconds*float64(time.Second)) + slack
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	// A hung layer must not hold the run past its limit: cancellation
	// reaches every DP loop and request, and the timer ends the process
	// if something ignores it.
	stop := time.AfterFunc(limit+5*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	defer stop.Stop()

	out, err := runBench(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(stdout, cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints the context line and then the result line.
func report(stdout io.Writer, cfg config, out *outcome) error {
	ctxLine := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"graph":    out.graph,
		"host":     out.host,
		"ops":      out.classes,
		"setups_s": out.setups,
		"checks":   out.info,
	}
	if out.traceFile != "" {
		ctxLine["trace_file"] = out.traceFile
		ctxLine["layers"] = out.layers
	}
	metrics := map[string]any{}
	for name, v := range out.metrics {
		metrics[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	result := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(ctxLine); err != nil {
		return err
	}
	return enc.Encode(result)
}

// writeGraph saves g as a text edge list, the format fasciad -graph
// preloads, and returns its path.
func writeGraph(dir, workload string, seed int64, g *graph.Graph) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.txt", workload, seed))
	if err := graph.SaveFile(path, g); err != nil {
		return "", fmt.Errorf("write graph: %w", err)
	}
	return path, nil
}
