package dp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/tmpl"
)

// TestComputeShareEdgeCases pins the IterProfile arithmetic: an empty
// profile has share 0 (no division by zero), and a populated one reports
// Compute/Total exactly.
func TestComputeShareEdgeCases(t *testing.T) {
	var zero IterProfile
	if got := zero.ComputeShare(); got != 0 {
		t.Fatalf("zero profile ComputeShare = %v, want 0", got)
	}
	p := IterProfile{
		Coloring: 1 * time.Millisecond,
		LeafInit: 2 * time.Millisecond,
		Compute:  6 * time.Millisecond,
		Finalize: 1 * time.Millisecond,
	}
	if got := p.Total(); got != 10*time.Millisecond {
		t.Fatalf("Total = %v, want 10ms", got)
	}
	if got := p.ComputeShare(); got != 0.6 {
		t.Fatalf("ComputeShare = %v, want 0.6", got)
	}
}

// TestProfileMatchesBatchedRun checks that ProfileIteration's estimate —
// computed on one lane — equals the corresponding lane of a batched run,
// tying the profiling hook into the bit-identity contract.
func TestProfileMatchesBatchedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 300, 1200)
	cfg := DefaultConfig()
	cfg.Seed = 100
	cfg.Batch = 4
	e, err := New(g, tmpl.Path(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, est := e.ProfileIteration(cfg.Seed + int64(i))
		if est != res.PerIteration[i] {
			t.Fatalf("profiled estimate for seed %d = %v, batched lane got %v",
				cfg.Seed+int64(i), est, res.PerIteration[i])
		}
	}
}
