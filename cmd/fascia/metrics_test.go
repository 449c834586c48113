package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// TestMetricsSmoke starts the metrics endpoint on an ephemeral port, runs
// a counting workload through the CLI entry point, and asserts that
// /debug/vars serves the fascia.* gauges and /debug/pprof/ responds —
// the `make metrics-smoke` CI check.
func TestMetricsSmoke(t *testing.T) {
	addr, shutdown, err := startMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Drive the gauges the way a run does.
	onIteration(0, 42.0, 5*time.Millisecond)
	if err := run([]string{"-network", "circuit", "-scale", "0.5", "-template", "U5-1", "-iterations", "2", "-seed", "7", "-progress"}); err != nil {
		t.Fatalf("counting run: %v", err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{
		"fascia.runs", "fascia.iterations", "fascia.last_estimate",
		"fascia.kernel_aggregate",
		"fascia.peak_table_bytes", "fascia.rows_allocated",
		"fascia.rows_released", "fascia.cancelled_runs",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	var runs int64
	if err := json.Unmarshal(vars["fascia.runs"], &runs); err != nil || runs < 1 {
		t.Errorf("fascia.runs = %s, want >= 1", vars["fascia.runs"])
	}
	var iters int64
	if err := json.Unmarshal(vars["fascia.iterations"], &iters); err != nil || iters < 2 {
		t.Errorf("fascia.iterations = %s, want >= 2", vars["fascia.iterations"])
	}

	presp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", presp.StatusCode)
	}
}
