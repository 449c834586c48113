package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/comb"
	"repro/internal/dp"
)

// RankResult reports one rank's share of one iteration.
type RankResult struct {
	// Total is the rank's sum over its owned root-table rows. The
	// iteration estimate is the rank totals summed in rank order divided
	// by Engine.Scale().
	Total float64
	// MaxNodeRows is the largest row count the rank held for any single
	// subtemplate table.
	MaxNodeRows int
}

// Run executes iters distributed color-coding iterations and averages the
// estimates. Iteration i colors with Seed+i using the same generator as
// the shared-memory engine, so estimates are directly comparable (and,
// per iteration, bit-identical).
func (e *Engine) Run(iters int) (Result, error) {
	return e.RunContext(context.Background(), iters)
}

// RunContext is Run with cooperative cancellation. The context is polled
// at iteration boundaries and inside each rank's local DP sweeps; on
// cancellation every rank still completes the current iteration's
// message-passing protocol (skipping the compute work, so the fast-
// forward is cheap and deadlock-free), the partial iteration is
// discarded, and the mean over completed iterations is returned
// alongside ctx.Err().
func (e *Engine) RunContext(ctx context.Context, iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("dist: iterations must be >= 1, got %d", iters)
	}
	stop, release := dp.WatchContext(ctx)
	defer release()
	res := Result{PerIteration: make([]float64, 0, iters)}
	var comm CommStats
	var maxRows atomic.Int64

	p := e.cfg.Ranks
	for iter := 0; iter < iters; iter++ {
		if stop != nil && stop.Load() {
			break
		}
		mail := e.newMailbox()
		totals := make([]float64, p)
		var wg sync.WaitGroup
		//lint:ctxpoll ok — rank-spawn loop only (p goroutine launches); each rank polls the armed stop flag inside RunRank
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// The in-process transport cannot fail and carries rows
				// of the right width, so RunRank's error is structurally
				// nil here.
				rr, _ := e.RunRank(r, iter, &chanExchange{rank: r, mail: mail, comm: &comm}, stop)
				totals[r] = rr.Total
				for {
					old := maxRows.Load()
					if int64(rr.MaxNodeRows) <= old || maxRows.CompareAndSwap(old, int64(rr.MaxNodeRows)) {
						break
					}
				}
			}(r)
		}
		wg.Wait()
		if stop != nil && stop.Load() {
			// The iteration's compute was cut short; its totals are
			// partial garbage — discard the iteration.
			break
		}
		var sum float64
		for _, t := range totals {
			sum += t
		}
		res.PerIteration = append(res.PerIteration, sum/e.Scale())
	}

	if n := len(res.PerIteration); n > 0 {
		var sum float64
		for _, x := range res.PerIteration {
			sum += x
		}
		res.Estimate = sum / float64(n)
	}
	res.CommBytes = comm.Bytes.Load()
	res.Messages = comm.Messages.Load()
	res.MaxRankRows = int(maxRows.Load())
	return res, ctx.Err()
}

// RunRank executes rank r's share of iteration iter (coloring seed
// Seed+iter), exchanging boundary rows through ex. This is the code a
// shard worker process runs against a wire transport; the in-process
// simulation runs it against buffered channels. The protocol per
// evaluation-order position is:
//
//  1. exchanging step (an internal node whose passive child is
//     internal): receive the ghost packets this step needs, one per peer
//     with a non-empty needs list toward r; then compute owned rows on
//     dp's lane kernels, reading the ghost rows in place;
//  2. any internal node some parent consumes as its passive child: the
//     moment its rows exist, eagerly send them toward that parent's
//     step — the pipelined overlap of Chen et al.: packets for later
//     steps travel while earlier steps are still computing.
//
// Pairs whose needs list is empty never exchange, and neither do steps
// whose passive child is a leaf: every rank derives leaf cells from the
// coloring itself. Both sides consult the same lists and schedule, so
// the skips cannot deadlock. On cancellation the protocol still runs to
// completion with nil rows, so no healthy peer is ever stranded
// waiting; the iteration's result is garbage and must be discarded by
// the caller.
func (e *Engine) RunRank(r, iter int, ex Exchange, stop *atomic.Bool) (RankResult, error) {
	p := e.cfg.Ranks
	pl := e.plan(r)
	pass := e.dp.NewRankPass(e.cfg.Seed+int64(iter), e.bounds[r], e.bounds[r+1], pl.slot, stop)
	ghosts := make([][]float64, pl.n)
	// One row-header slice serves every packet this iteration sends:
	// each transport serializes or copies the rows before Send returns.
	var out [][]float64
	for i, node := range e.tree.Order {
		if e.exchanges[i] {
			for src := 0; src < p; src++ {
				want := e.needs[src][r]
				if src == r || len(want) == 0 {
					continue
				}
				pk, err := ex.Recv(src, i)
				if err != nil {
					pass.Finish()
					return RankResult{}, err
				}
				if err := e.checkPacket(pk, r, i, src); err != nil {
					pass.Finish()
					return RankResult{}, err
				}
				copy(ghosts[pl.off[src]:], pk.Rows)
			}
		}
		pass.ComputeStep(i, ghosts)
		// Pipelined eager send: this node's rows are final now; if a
		// future step consumes them as the passive child, ship them
		// immediately so the transfer overlaps the compute in between.
		step, ok := e.passiveStep[node]
		if !ok {
			continue
		}
		for dst := 0; dst < p; dst++ {
			want := e.needs[r][dst]
			if dst == r || len(want) == 0 {
				continue // empty packet: a real MPI run would not ship it
			}
			if cap(out) < len(want) {
				out = make([][]float64, len(want))
			}
			pk := Packet{Rows: out[:len(want)]}
			pass.Rows(node, want, pk.Rows)
			if err := ex.Send(dst, step, pk); err != nil {
				pass.Finish()
				return RankResult{}, err
			}
		}
	}
	var rr RankResult
	rr.Total, rr.MaxNodeRows = pass.Finish()
	return rr, nil
}

// checkPacket validates a received packet against the needs list and the
// step's passive-row width before the kernels read it: a packet from
// another process is untrusted.
func (e *Engine) checkPacket(pk Packet, r, step, src int) error {
	if want := len(e.needs[src][r]); len(pk.Rows) != want {
		return fmt.Errorf("dist: rank %d step %d: packet from %d carries %d rows, need %d",
			r, step, src, len(pk.Rows), want)
	}
	w := int(comb.Binomial(e.dp.Colors(), e.tree.Order[step].Passive.Size()))
	for _, row := range pk.Rows {
		if row != nil && len(row) != w {
			return fmt.Errorf("dist: rank %d step %d: packet from %d carries a row of width %d, want %d",
				r, step, src, len(row), w)
		}
	}
	return nil
}
