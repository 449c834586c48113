package dp

import (
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// TestKernelModeEquivalence is the kernel property test: under a fixed
// coloring, ColorfulTotal must be bit-identical across all three table
// layouts × leaf specializations on/off, with inner parallelism enabled,
// over randomized graphs and templates k=3..8, and equal to brute force
// where enumeration is affordable. Counts are integer-valued, so every
// summation order is exact and equality is exact, not approximate.
func TestKernelModeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 3; trial++ {
		// Mix degree regimes: trial 0 is sparse, later trials dense.
		n := 20 + rng.Intn(25)
		m := n * (2 + trial*8 + rng.Intn(4))
		g := randomGraph(rng, n, m)
		for k := 3; k <= 8; k++ {
			tr := randomTree(rng, k)
			seed := rng.Int63()
			want := 0.0
			haveWant := false
			for _, kind := range table.Kinds {
				for _, noSpecial := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.TableKind = kind
					cfg.DisableLeafSpecial = noSpecial
					cfg.Mode = Inner
					cfg.Workers = 4
					e, err := New(g, tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := e.ColorfulTotal(seed)
					if !haveWant {
						want, haveWant = got, true
						// Pin the whole family to brute-force truth on
						// instances where enumeration is affordable.
						if k <= 4 {
							ex := exact.CountColorfulMappings(g, tr, e.ColoringFor(seed))
							if got != float64(ex) {
								t.Fatalf("trial %d k=%d: DP %v, exact %d", trial, k, got, ex)
							}
						}
						continue
					}
					if got != want {
						t.Fatalf("trial %d k=%d %v/nospecial=%v: total %v, want %v\ntemplate %v",
							trial, k, kind, noSpecial, got, want, tr)
					}
				}
			}
		}
	}
}

// TestHashInnerParallelStaging pins the lock-free staging path: Hash
// tables filled by many inner workers (per-worker staging + merge) must
// match the sequential result exactly. Run under -race in `make ci`.
func TestHashInnerParallelStaging(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 400, 4000)
	for _, k := range []int{4, 7} {
		tr := randomTree(rng, k)
		var want float64
		for i, workers := range []int{1, 8} {
			cfg := DefaultConfig()
			cfg.TableKind = table.Hash
			cfg.Mode = Inner
			cfg.Workers = workers
			e, err := New(g, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := e.ColorfulTotal(5)
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("k=%d workers=%d: total %v, sequential %v", k, workers, got, want)
			}
		}
	}
}

// TestScratchPoolReuse asserts the per-worker scratch is pooled rather
// than reallocated per internal node: a warmed engine's iteration must
// stay under an allocation budget that per-node scratch churn (3 slices ×
// 9 internal nodes for a k=10 path) would blow through.
func TestScratchPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 100, 400)
	cfg := DefaultConfig()
	cfg.TableKind = table.Naive
	cfg.Workers = 1
	cfg.Mode = Inner
	e, err := New(g, tmpl.Path(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.ColorfulTotal(0) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		e.ColorfulTotal(1)
	})
	// Budget: 9 internal-node lane tables, 10 implicit leaves, the batch
	// state, its maps, totals and rng ≈ 51. The seed's per-node scratch
	// added 27 more slice allocations (and per-worker copies under
	// parallelism); fail well below that. Race instrumentation adds a
	// few allocations of its own.
	budget := 70.0
	if raceEnabled {
		budget = 90.0
	}
	if allocs > budget {
		t.Fatalf("iteration allocated %v objects; scratch pooling regressed", allocs)
	}
}
