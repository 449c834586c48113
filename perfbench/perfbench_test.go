package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		name string
		json []entry
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.name, i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestTracedCountsRepeat runs every workload's traced mode twice at one
// seed: both runs must pass every check and report identical exact
// counts. Timings and the counts marked approximate may differ.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range []string{"tree", "nontree", "serve", "shard"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]*outcome
			for i := range runs {
				cfg := config{workload: name, seed: 3, seconds: 0.2, trace: true, setups: 1, dir: t.TempDir()}
				out, err := runBench(context.Background(), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("run %d: %d of %d ops failed", i+1, out.failed, out.attempted)
				}
				runs[i] = out
			}
			if runs[0].graph.Hash != runs[1].graph.Hash {
				t.Errorf("graph hash %s then %s", runs[0].graph.Hash, runs[1].graph.Hash)
			}
			for _, m := range perLayer {
				if m.timing || m.approximate {
					continue
				}
				if a, b := runs[0].metrics[m.name], runs[1].metrics[m.name]; a != b {
					t.Errorf("%s: %v then %v", m.name, a, b)
				}
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "dp.run", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "dp.run", Start: 5, End: 9},
	}
	got := tr.layerTimes()
	want := []layerTime{{"dp.run", 2, 7, 7}, {"op", 1, 10, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got[i], want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile is not 0")
	}
}

// TestBadArgumentsPrintNoResult checks a failing invocation exits
// non-zero without a result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--dir", t.TempDir()},
		{"--workload", "tree", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v printed a result: %s", args, stdout.String())
		}
	}
}
