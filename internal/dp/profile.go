package dp

import "time"

// IterProfile breaks one iteration's wall time into phases, reproducing
// the paper's observation (§V-A) that the dominant cost is the inner
// table-combination step of Algorithm 2 rather than coloring or leaf
// initialization.
type IterProfile struct {
	Coloring time.Duration
	LeafInit time.Duration
	Compute  time.Duration // internal-node DP passes (the paper's "step 12")
	Finalize time.Duration
	// PerNode holds the compute time of each internal node in
	// evaluation order.
	PerNode []time.Duration
}

// Total returns the summed phase time.
func (p IterProfile) Total() time.Duration {
	return p.Coloring + p.LeafInit + p.Compute + p.Finalize
}

// ComputeShare returns the fraction of time spent in internal-node DP
// computation.
func (p IterProfile) ComputeShare() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.Compute) / float64(t)
}

// ProfileIteration runs one sequential one-lane iteration under the
// given seed and returns its phase breakdown. Non-root leaves derive
// their cells from the coloring (leafLanes) and build no table, so
// LeafInit reads about zero; Finalize covers the traversal's bookkeeping
// outside the node passes (totals and table release).
func (e *Engine) ProfileIteration(seed int64) (IterProfile, float64) {
	var prof IterProfile
	start := time.Now()
	st := e.newBatchState(e.arena, seed, 1, 1)
	prof.Coloring = time.Since(start)
	if e.tree != nil {
		st.nodeTimes = make([]time.Duration, len(e.tree.Order))
	}
	t0 := time.Now()
	st.run()
	elapsed := time.Since(t0)
	if e.bag != nil {
		// The bag DP has no leaf/internal split; its whole pass is the
		// combination step.
		prof.Compute = elapsed
		return prof, e.scale(st.totals[0])
	}
	for i, n := range e.tree.Order {
		d := st.nodeTimes[i]
		if n.IsLeaf() {
			prof.LeafInit += d
		} else {
			prof.Compute += d
			prof.PerNode = append(prof.PerNode, d)
		}
	}
	prof.Finalize = elapsed - prof.LeafInit - prof.Compute
	return prof, e.scale(st.totals[0])
}
