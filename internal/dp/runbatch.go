package dp

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/table"
)

// runBatches is the one scheduler of fixed-count runs: the iteration
// range [0, iters) is cut into ceil(iters/B) batches of up to
// B = Engine.Batch() lanes, and each batch runs ONE bottom-up DP
// traversal for all of its lanes (the last batch may be ragged; B = 1 is
// one lane per traversal). Lane j of batch b colors with seed
// Seed + b·B + j, so every iteration's estimate is bit-identical at
// every B.
//
// Mode mapping:
//
//	Inner:  batches run sequentially, all workers shard vertices inside
//	        each traversal (peak memory ≈ B× one iteration).
//	Outer:  batches run concurrently with one worker each (memory grows
//	        with concurrent batches × lanes).
//	Hybrid: concurrent batches each get a hybridSplit share of the
//	        inner-loop budget.
//
// In the concurrent modes slot w of W runs batches w, w+W, w+2W, … in
// order on its own arena (slotArena). A slot's slab demand then does
// not depend on how the slots' batches overlap in time, so a warm
// repeat of a run is served entirely from recycled slabs — with one
// shared arena it missed whenever the repeat overlapped its batches
// more than the warm-up had.
//
// It returns the estimates and per-iteration times of the longest
// seed-order prefix of completed batches: a cancelled run keeps exactly
// the iterations before the first one that did not finish, in every
// mode, so a partial result is always a prefix of the full stream.
// Per-lane iteration times are the batch wall time divided by its lane
// count — the traversal is shared, so lanes have no individual timings.
func (e *Engine) runBatches(ctx context.Context, mode Mode, iters int, stop *atomic.Bool, start time.Time, stats *RunStats) ([]float64, []time.Duration) {
	B := e.batch
	numBatches := (iters + B - 1) / B
	estimates := make([]float64, iters)
	iterTimes := make([]time.Duration, iters)
	done := make([]bool, numBatches)

	runBatch := func(b, innerW int, arena *table.Arena) (*batchState, time.Duration) {
		base := b * B
		return e.runLanes(arena, e.cfg.Seed+int64(base), min(B, iters-base), innerW, stop)
	}

	// fold merges one finished batch; callers serialize (the concurrent
	// modes hold mu).
	fold := func(b int, st *batchState, d time.Duration) {
		stats.mergeBatch(st)
		if st.aborted {
			return
		}
		if B > 1 {
			stats.BatchesRun++
		}
		e.retain(st)
		done[b] = true
		perLane := d / time.Duration(st.lanes)
		base := b * B
		//lint:ctxpoll ok — ≤B-element fold of a completed batch; breaking mid-fold would drop lanes that already ran
		for j := 0; j < st.lanes; j++ {
			i := base + j
			estimates[i] = e.scale(st.totals[j])
			iterTimes[i] = perLane
			if e.cfg.OnIteration != nil {
				e.cfg.OnIteration(i, estimates[i], time.Since(start))
			}
		}
	}

	if mode == Inner {
		for b := 0; b < numBatches; b++ {
			if stopRequested(ctx, stop) {
				break
			}
			st, d := runBatch(b, e.workers(), e.arena)
			fold(b, st, d)
			if st.aborted {
				break
			}
		}
	} else {
		workers := min(e.workers(), numBatches)
		innerWs := make([]int, workers)
		for w := range innerWs {
			innerWs[w] = 1
		}
		if mode == Hybrid {
			workers, innerWs = hybridSplit(e.workers(), numBatches)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, arena *table.Arena) {
				defer wg.Done()
				for b := w; b < numBatches; b += workers {
					if stopRequested(ctx, stop) {
						return
					}
					st, d := runBatch(b, innerWs[w], arena)
					mu.Lock()
					fold(b, st, d)
					mu.Unlock()
					if st.aborted {
						return
					}
				}
			}(w, e.slotArena(w))
		}
		wg.Wait()
	}

	n := 0
	for n < numBatches && done[n] {
		n++
	}
	end := min(n*B, iters)
	return estimates[:end], iterTimes[:end]
}

// runLanes runs one traversal of lanes colorings, seeded seed, seed+1,
// …, on workers inner workers with slabs from arena, and returns the
// finished (or aborted) state with its wall time. Under KeepTables the
// state keeps its tables for retain.
func (e *Engine) runLanes(arena *table.Arena, seed int64, lanes, workers int, stop *atomic.Bool) (*batchState, time.Duration) {
	st := e.newBatchState(arena, seed, lanes, workers)
	st.stop = stop
	st.keep = e.cfg.KeepTables
	if e.tree != nil {
		st.nodeTimes = make([]time.Duration, len(e.tree.Order))
	}
	t0 := time.Now()
	st.run()
	return st, time.Since(t0)
}

// retain makes a finished KeepTables state the engine's kept state,
// releasing the one it replaces; other states are left alone. Callers
// serialize it like mergeBatch.
func (e *Engine) retain(st *batchState) {
	if !st.keep {
		return
	}
	e.ReleaseKept()
	e.kept = st
}
