// Metrics endpoint for cmd/fascia: -metrics-addr starts a private HTTP
// mux exposing expvar counters under /debug/vars and the standard pprof
// profiles under /debug/pprof/, so long counting runs can be observed
// (estimate so far, iterations done, kernel passes, table footprint)
// and profiled without instrumenting the library.
package main

import (
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	fascia "repro"
)

// Counting-run gauges, published under the fascia.* expvar namespace.
// They are package-level so both the OnIteration hook and the final
// result publisher update the same variables.
var (
	mRuns            = expvar.NewInt("fascia.runs")
	mIterations      = expvar.NewInt("fascia.iterations")
	mLastEstimate    = expvar.NewFloat("fascia.last_estimate")
	mLastIterMillis  = expvar.NewFloat("fascia.last_iteration_elapsed_ms")
	mKernelAggregate = expvar.NewInt("fascia.kernel_aggregate")
	mPeakTableBytes  = expvar.NewInt("fascia.peak_table_bytes")
	mRowsAllocated   = expvar.NewInt("fascia.rows_allocated")
	mRowsReleased    = expvar.NewInt("fascia.rows_released")
	mCancelled       = expvar.NewInt("fascia.cancelled_runs")
	mBatchSize       = expvar.NewInt("fascia.batch_size")
	mBatchesRun      = expvar.NewInt("fascia.batches_run")
	mArenaHits       = expvar.NewInt("fascia.arena_hits")
	mArenaMisses     = expvar.NewInt("fascia.arena_misses")
	mReorderApplied  = expvar.NewInt("fascia.reorder_applied")
)

// onIteration is the Options.OnIteration hook: it streams per-iteration
// progress into the expvar gauges while a run is in flight.
func onIteration(i int, estimate float64, elapsed time.Duration) {
	mIterations.Add(1)
	mLastEstimate.Set(estimate)
	mLastIterMillis.Set(float64(elapsed.Microseconds()) / 1000)
}

// publishStats folds a finished run's RunStats into the gauges.
func publishStats(res fascia.Result) {
	mRuns.Add(1)
	mLastEstimate.Set(res.Count)
	mKernelAggregate.Add(res.Stats.KernelAggregate)
	if res.PeakTableBytes > mPeakTableBytes.Value() {
		mPeakTableBytes.Set(res.PeakTableBytes)
	}
	mRowsAllocated.Add(res.Stats.RowsAllocated)
	mRowsReleased.Add(res.Stats.RowsReleased)
	mBatchSize.Set(int64(res.Stats.BatchSize))
	mBatchesRun.Add(res.Stats.BatchesRun)
	mArenaHits.Add(res.Stats.ArenaHits)
	mArenaMisses.Add(res.Stats.ArenaMisses)
	if res.Stats.ReorderApplied {
		mReorderApplied.Add(1)
	}
	if res.Stats.Cancelled {
		mCancelled.Add(1)
	}
}

// startMetrics serves /debug/vars and /debug/pprof/ on addr using a
// private mux (the default mux would leak handlers into library users).
// It returns the bound address — addr may use port 0 for an ephemeral
// port, which the smoke test relies on — and a shutdown func.
func startMetrics(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		// Serve always returns on shutdown; only unexpected errors (a
		// dying listener, not the Close we trigger ourselves) are worth
		// reporting.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "fascia: metrics server: %v\n", err)
		}
	}()
	return ln.Addr().String(), func() { srv.Close() }, nil
}
