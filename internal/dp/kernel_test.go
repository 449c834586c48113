package dp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// TestKernelModeEquivalence is the kernel property test: under a fixed
// coloring, ColorfulTotal must be bit-identical across KernelMode
// direct/aggregate/auto × all three table layouts × leaf specializations
// on/off, with inner parallelism enabled, over randomized graphs and
// templates k=3..8. Counts are integer-valued, so every summation order
// is exact and equality is exact, not approximate.
func TestKernelModeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	modes := []KernelMode{KernelDirect, KernelAggregate, KernelAuto}
	for trial := 0; trial < 3; trial++ {
		// Mix degree regimes so KernelAuto exercises both kernels: trial 0
		// is sparse (direct-leaning), later trials are denser than the
		// aggregation thresholds (~k..2k for the pN==1 path).
		n := 20 + rng.Intn(25)
		m := n * (2 + trial*8 + rng.Intn(4))
		g := randomGraph(rng, n, m)
		for k := 3; k <= 8; k++ {
			tr := randomTree(rng, k)
			seed := rng.Int63()
			want := 0.0
			haveWant := false
			for _, kind := range table.Kinds {
				for _, mode := range modes {
					for _, noSpecial := range []bool{false, true} {
						cfg := DefaultConfig()
						cfg.TableKind = kind
						cfg.Kernel = mode
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
							t.Fatalf("trial %d k=%d %v/kernel=%v/nospecial=%v: total %v, want %v\ntemplate %v",
								trial, k, kind, mode, noSpecial, got, want, tr)
						}
					}
				}
			}
		}
	}
}

// TestKernelStatsAndCostModel checks that forced modes run only their
// kernel and that the auto cost model aggregates on a high-degree graph.
func TestKernelStatsAndCostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dense := randomGraph(rng, 300, 300*20) // avg deg ~40
	// One-at-a-time partitioning of a star peels leaves, so the internal
	// nodes have a single-vertex passive child — the branch whose
	// aggregated (colorAgg) kernel the cost model picks at high degree.
	tr := tmpl.Star(6)
	run := func(mode KernelMode) (direct, agg int64) {
		cfg := DefaultConfig()
		cfg.Kernel = mode
		cfg.Workers = 1
		e, err := New(dense, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.ColorfulTotal(1)
		return e.KernelStats()
	}
	if d, a := run(KernelDirect); a != 0 || d == 0 {
		t.Fatalf("KernelDirect ran %d direct / %d aggregated passes", d, a)
	}
	if d, a := run(KernelAggregate); d != 0 || a == 0 {
		t.Fatalf("KernelAggregate ran %d direct / %d aggregated passes", d, a)
	}
	// Auto on a high-degree graph must choose aggregation for most
	// passes of the pN==1 nodes (threshold k·E/(α·E-1) ≈ 4..7 << 40).
	if _, a := run(KernelAuto); a == 0 {
		t.Fatal("KernelAuto never aggregated on an avg-degree-40 graph")
	}
	// Auto on a near-empty graph must run (almost) all passes direct:
	// thresholds bottom out around 4, so only the rare degree-4+ vertex
	// of the avg-degree-1 graph may aggregate.
	sparse := randomGraph(rng, 200, 100)
	cfg := DefaultConfig()
	e, err := New(sparse, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.ColorfulTotal(1)
	if d, a := e.KernelStats(); a > d/10 {
		t.Fatalf("KernelAuto aggregated %d of %d passes on an avg-degree-1 graph", a, a+d)
	}
}

func TestKernelModeString(t *testing.T) {
	if KernelAuto.String() != "auto" || KernelDirect.String() != "direct" ||
		KernelAggregate.String() != "aggregate" || KernelMode(9).String() == "" {
		t.Fatal("kernel mode strings broken")
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

// TestKernelConfigPlumbing ensures the benchmark helper modes resolve.
func TestKernelConfigPlumbing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 30, 90)
	for _, mode := range []KernelMode{KernelAuto, KernelDirect, KernelAggregate} {
		cfg := DefaultConfig()
		cfg.Kernel = mode
		e, err := New(g, tmpl.Path(5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(2); err != nil {
			t.Fatal(err)
		}
	}
	// String round-trip sanity for diagnostics output.
	if s := fmt.Sprint(KernelAggregate); s != "aggregate" {
		t.Fatalf("fmt.Sprint(KernelAggregate) = %q", s)
	}
}
