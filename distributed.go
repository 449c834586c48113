package fascia

import (
	"context"

	"repro/internal/dist"
	"repro/internal/part"
)

// DistributedResult reports a simulated distributed-memory counting run:
// the estimate plus the communication and per-rank memory costs a real
// MPI deployment would incur.
type DistributedResult struct {
	// Count is the estimated number of non-induced occurrences.
	Count float64
	// PerIteration holds each iteration's estimate: bit-identical to the
	// shared-memory engine under the same seed while every count the DP
	// sums stays below 2^53, where float64 addition is exact in any
	// order.
	PerIteration []float64
	// CommBytes is the total inter-rank payload (ghost rows + ids).
	CommBytes int64
	// Messages is the number of point-to-point messages.
	Messages int64
	// MaxRankRows is the largest per-subtemplate row count held by any
	// rank — the per-node memory bound the partitioning buys.
	MaxRankRows int
}

// CountDistributed estimates the template count using the simulated
// distributed-memory runtime (the paper's stated future work): the
// dynamic-programming table is block-partitioned across ranks, which
// exchange boundary rows by message passing before every DP step whose
// passive child is an internal node. Each rank runs the shared-memory
// engine's kernels over its own vertex block. Labeled templates are
// supported (labels prune leaf cells on every rank). Iterations, seed,
// colors and partitioning come from opt; table layout and
// parallel-mode options do not apply (each rank is one sequential pass
// over lazy tables).
func CountDistributed(g *Graph, t *Template, ranks int, opt Options) (DistributedResult, error) {
	return CountDistributedContext(context.Background(), g, t, ranks, opt)
}

// CountDistributedContext is CountDistributed with cooperative
// cancellation: each rank completes the current iteration's
// message-passing protocol (skipping the compute, so no rank deadlocks),
// the partial iteration is discarded, and the mean over completed
// iterations is returned alongside the context's error.
func CountDistributedContext(ctx context.Context, g *Graph, t *Template, ranks int, opt Options) (DistributedResult, error) {
	strat := part.OneAtATime
	if opt.Partition == PartitionBalanced {
		strat = part.Balanced
	}
	e, err := dist.New(g, t, dist.Config{
		Ranks:    ranks,
		Colors:   opt.Colors,
		Strategy: strat,
		Seed:     opt.Seed,
	})
	if err != nil {
		return DistributedResult{}, err
	}
	res, err := e.RunContext(ctx, opt.iterations(t.K()))
	if err != nil {
		return DistributedResult{}, err
	}
	return DistributedResult{
		Count:        res.Estimate,
		PerIteration: res.PerIteration,
		CommBytes:    res.CommBytes,
		Messages:     res.Messages,
		MaxRankRows:  res.MaxRankRows,
	}, nil
}
