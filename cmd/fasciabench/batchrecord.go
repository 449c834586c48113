// bench-batch-record: the recorded acceptance benchmark behind
// BENCH_batch.json, run as a subcommand so the noise methodology is
// code, not shell history. It sweeps the lane width on the 100k-vertex
// acceptance graphs, takes N >= 5 timed samples per configuration after
// a discarded warmup, drops outliers by median-absolute-deviation, and
// APPENDS the result to the JSON trajectory — earlier entries are
// preserved so the file records the optimization history rather than
// only its latest point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tmpl"
)

// sampleStats is one configuration's measurement: all raw samples (ms
// per iteration), the subset that survived outlier dropping, and the
// median of the survivors.
type sampleStats struct {
	Samples  []float64 `json:"samples_ms_per_iter"`
	Kept     []float64 `json:"kept_ms_per_iter"`
	MedianMS float64   `json:"median_ms_per_iter"`
	PeakMB   float64   `json:"peak_mb"`
}

// trajectoryEntry is one recorded point of the batched-DP optimization
// trajectory.
type trajectoryEntry struct {
	Date    string                             `json:"date"`
	Label   string                             `json:"label"`
	Command string                             `json:"command"`
	Host    map[string]string                  `json:"host"`
	Setup   map[string]any                     `json:"setup"`
	Results map[string]map[string]*sampleStats `json:"results"`
	Speedup map[string]map[string]float64      `json:"speedup_vs_B1"`
	// Acceptance evaluates the recorded criteria (>= 1.5x at B=8, peak
	// table bytes <= B x unbatched) against this entry's own medians, so
	// the file can never claim a target its numbers don't show.
	Acceptance map[string]any `json:"acceptance,omitempty"`
	Notes      string         `json:"notes,omitempty"`
}

func runBatchRecord(args []string) error {
	fs := flag.NewFlagSet("bench-batch-record", flag.ContinueOnError)
	var (
		samples = fs.Int("samples", 5, "timed samples per configuration (min 5; one extra warmup sample is run and discarded)")
		iters   = fs.Int("iterations", 8, "color-coding iterations per sample")
		batches = fs.String("batches", "1,8", "comma-separated lane widths to sweep")
		graphsF = fs.String("graphs", "er100k,ba100k", "comma-separated acceptance graphs (er100k, ba100k)")
		templ   = fs.String("template", "U7-1", "template name")
		label   = fs.String("label", "", "trajectory label (default: lane kernels @ <date>)")
		out     = fs.String("out", "BENCH_batch.json", "trajectory file to append to")
		notes   = fs.String("notes", "", "free-form analysis recorded with the entry")
		dryRun  = fs.Bool("n", false, "print the entry instead of writing the file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samples < 5 {
		return fmt.Errorf("bench-batch-record: -samples %d below the noise-methodology floor of 5", *samples)
	}
	widths, err := parseWidths(*batches)
	if err != nil {
		return err
	}
	tpl, err := tmpl.Named(*templ)
	if err != nil {
		return err
	}

	entry := &trajectoryEntry{
		Date:    time.Now().Format("2006-01-02"),
		Label:   *label,
		Command: fmt.Sprintf("fasciabench bench-batch-record -samples %d -iterations %d -batches %s -graphs %s -template %s", *samples, *iters, *batches, *graphsF, *templ),
		Host: map[string]string{
			"go":   runtime.Version(),
			"note": fmt.Sprintf("%d CPU(s); samples interleaved round-robin across configurations so host-throughput drift hits every lane width equally, one warmup round discarded, outliers beyond 3x the median absolute deviation dropped, medians of the survivors reported", runtime.NumCPU()),
		},
		Setup: map[string]any{
			"template":           *templ,
			"iterations_per_run": *iters,
			"mode":               "Inner",
			"workers":            1,
			"samples":            *samples,
		},
		Results: map[string]map[string]*sampleStats{},
		Speedup: map[string]map[string]float64{},
	}
	if entry.Label == "" {
		entry.Label = "lane kernels @ " + entry.Date
	}

	// Build every (graph, width) engine up front so the timed rounds can
	// interleave: one sample of each configuration per round, rather than
	// all samples of one configuration in a block. Sequential blocks let
	// slow host drift masquerade as a between-width difference; paired
	// rounds cancel it in the B1 ratios.
	type recConfig struct {
		gname string
		b     int
		eng   *dp.Engine
		st    *sampleStats
	}
	var cfgs []*recConfig
	for _, gname := range strings.Split(*graphsF, ",") {
		gname = strings.TrimSpace(gname)
		g, err := acceptanceGraph(gname)
		if err != nil {
			return err
		}
		entry.Results[gname] = map[string]*sampleStats{}
		for _, B := range widths {
			cfg := dp.DefaultConfig()
			cfg.Batch = B
			cfg.Mode = dp.Inner
			cfg.Workers = 1
			e, err := dp.New(g, tpl, cfg)
			if err != nil {
				return err
			}
			rc := &recConfig{gname: gname, b: B, eng: e, st: &sampleStats{}}
			cfgs = append(cfgs, rc)
			entry.Results[gname][fmt.Sprintf("B%d", B)] = rc.st
		}
	}

	// Round 0 is an untimed warmup of every configuration, charging the
	// arena and page-fault costs before anything is recorded.
	for s := 0; s <= *samples; s++ {
		for _, rc := range cfgs {
			t0 := time.Now()
			res, err := rc.eng.Run(*iters)
			if err != nil {
				return err
			}
			ms := time.Since(t0).Seconds() * 1000 / float64(*iters)
			if s == 0 {
				continue
			}
			rc.st.Samples = append(rc.st.Samples, math.Round(ms*10)/10)
			rc.st.PeakMB = math.Round(float64(res.PeakTableBytes)/(1<<20)*100) / 100
		}
	}

	for _, rc := range cfgs {
		rc.st.Kept, rc.st.MedianMS = dropOutliers(rc.st.Samples)
		fmt.Printf("%s/B%d: median %.1f ms/iter (kept %d/%d samples, peak %.2f MB)\n",
			rc.gname, rc.b, rc.st.MedianMS, len(rc.st.Kept), len(rc.st.Samples), rc.st.PeakMB)
	}
	for gname, res := range entry.Results {
		b1 := res["B1"]
		if b1 == nil || b1.MedianMS <= 0 {
			continue
		}
		sp := map[string]float64{}
		for key, st := range res {
			if key != "B1" && st.MedianMS > 0 {
				sp[key] = math.Round(b1.MedianMS/st.MedianMS*100) / 100
			}
		}
		entry.Speedup[gname] = sp
	}

	entry.Notes = *notes
	entry.Acceptance = evaluateAcceptance(entry)

	if *dryRun {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(entry)
	}
	return appendTrajectory(*out, entry,
		"optimization trajectory of the batched DP acceptance benchmark; entries are appended by `make bench-batch-record`, never overwritten")
}

// evaluateAcceptance derives the acceptance verdict from the entry's own
// medians: the best B8-vs-B1 speedup across graphs against the 1.5x
// target, and whether every B>1 peak stayed within B x the unbatched
// peak of the same graph.
func evaluateAcceptance(entry *trajectoryEntry) map[string]any {
	best := 0.0
	bestGraph := ""
	for gname, sp := range entry.Speedup {
		if s, ok := sp["B8"]; ok && s > best {
			best, bestGraph = s, gname
		}
	}
	peakOK := true
	for _, res := range entry.Results {
		b1 := res["B1"]
		if b1 == nil || b1.PeakMB <= 0 {
			continue
		}
		for key, st := range res {
			var b int
			if _, err := fmt.Sscanf(key, "B%d", &b); err != nil || b <= 1 {
				continue
			}
			if st.PeakMB > float64(b)*b1.PeakMB {
				peakOK = false
			}
		}
	}
	acc := map[string]any{
		"target_speedup_b8":       1.5,
		"best_speedup_b8":         best,
		"throughput_met":          best >= 1.5,
		"peak_within_b_x_unbatch": peakOK,
	}
	if bestGraph != "" {
		acc["best_speedup_graph"] = bestGraph
	}
	return acc
}

func parseWidths(s string) ([]int, error) {
	var widths []int
	for _, f := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bad -batches %q (want comma-separated positive integers)", s)
		}
		widths = append(widths, b)
	}
	return widths, nil
}

// acceptanceGraph builds the fixed-seed graphs named by the acceptance
// criterion (>= 100k vertices, matching BenchmarkBatchedDP).
func acceptanceGraph(name string) (*graph.Graph, error) {
	switch name {
	case "er100k":
		return gen.ErdosRenyiM(100_000, 400_000, 1), nil
	case "ba100k":
		return gen.BarabasiAlbert(100_000, 4, 1), nil
	default:
		return nil, fmt.Errorf("unknown acceptance graph %q (want er100k or ba100k)", name)
	}
}

// dropOutliers removes samples farther than 3x the median absolute
// deviation from the sample median (a robust sigma-clip; with MAD == 0
// every sample is kept) and returns the survivors with their median. At
// least three samples always survive: if clipping would go below that,
// the three closest to the median are kept instead.
func dropOutliers(samples []float64) (kept []float64, median float64) {
	if len(samples) == 0 {
		return nil, 0
	}
	m := medianOf(samples)
	dev := make([]float64, len(samples))
	for i, s := range samples {
		dev[i] = math.Abs(s - m)
	}
	mad := medianOf(dev)
	for i, s := range samples {
		if mad == 0 || dev[i] <= 3*mad {
			kept = append(kept, s)
		}
	}
	if len(kept) < 3 {
		idx := make([]int, len(samples))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return dev[idx[a]] < dev[idx[b]] })
		kept = kept[:0]
		for _, i := range idx[:min(3, len(samples))] {
			kept = append(kept, samples[i])
		}
	}
	return kept, medianOf(kept)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// appendTrajectory rewrites the trajectory file with the new entry
// appended. A legacy single-object file (the PR 3 recording) is wrapped
// as the trajectory's first entry, preserved verbatim. note is written
// only when the file does not already carry one.
func appendTrajectory(path string, entry any, note string) error {
	var doc struct {
		Note       string            `json:"note"`
		Trajectory []json.RawMessage `json:"trajectory"`
	}
	if raw, err := os.ReadFile(path); err == nil {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(raw, &probe); err != nil {
			return fmt.Errorf("trajectory: %s exists but is not JSON: %w", path, err)
		}
		if tr, ok := probe["trajectory"]; ok {
			if err := json.Unmarshal(tr, &doc.Trajectory); err != nil {
				return fmt.Errorf("trajectory: bad trajectory in %s: %w", path, err)
			}
			if n, ok := probe["note"]; ok {
				_ = json.Unmarshal(n, &doc.Note)
			}
		} else {
			// Legacy single-entry file: keep it byte-for-byte as entry 0.
			doc.Trajectory = append(doc.Trajectory, json.RawMessage(raw))
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if doc.Note == "" {
		doc.Note = note
	}
	rawEntry, err := json.MarshalIndent(entry, "    ", "  ")
	if err != nil {
		return err
	}
	doc.Trajectory = append(doc.Trajectory, rawEntry)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
