package dp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/part"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// BenchmarkIterationByK measures one DP iteration per template size on a
// fixed random graph — the 2^k cost growth of the paper's Figure 3 at the
// engine level.
func BenchmarkIterationByK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 5000, 25000)
	for _, k := range []int{3, 5, 7, 10} {
		tr := tmpl.Path(k)
		cfg := DefaultConfig()
		e, err := New(g, tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.ColorfulTotal(int64(i))
			}
		})
	}
}

// BenchmarkLeafSpecialization isolates the single-vertex-child fast path
// cost difference.
func BenchmarkLeafSpecialization(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 3000, 15000)
	tr := tmpl.Path(7)
	for _, disable := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisableLeafSpecial = disable
		e, err := New(g, tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("special=%v", !disable), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.ColorfulTotal(int64(i))
			}
		})
	}
}

// BenchmarkKernel times one iteration of the combination kernels on a
// high-degree graph (n=20k, avg deg 40), one case per kernel branch.
// Stars under the default one-at-a-time partitioning yield
// passive-single nodes (per-color neighbor counts); balanced paths yield
// general two-sided nodes (SpMM-style row aggregation); path-7 under
// one-at-a-time is active-single everywhere; and the size-2 node sits at
// the bottom of every tree. The naive variants isolate kernel arithmetic
// from sparse-layout probe costs.
func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 20000, 400000) // avg deg 40
	cases := []struct {
		name  string
		tr    *tmpl.Template
		strat part.Strategy
		kind  table.Kind
	}{
		{"star7/one", tmpl.Star(7), part.OneAtATime, table.Lazy},
		{"star8/one", tmpl.Star(8), part.OneAtATime, table.Lazy},
		{"star8/one/naive", tmpl.Star(8), part.OneAtATime, table.Naive},
		{"path7/balanced", tmpl.Path(7), part.Balanced, table.Lazy},
		{"path8/balanced/naive", tmpl.Path(8), part.Balanced, table.Naive},
		{"path7/one", tmpl.Path(7), part.OneAtATime, table.Lazy},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Strategy = tc.strat
		cfg.TableKind = tc.kind
		cfg.Workers = 1
		e, err := New(g, tc.tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.ColorfulTotal(int64(i))
			}
		})
	}
}

// BenchmarkScratchAllocs reports steady-state allocations per iteration;
// the scratch pool should keep this flat in the number of internal nodes
// (table allocations dominate, per-node scratch must not).
func BenchmarkScratchAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 2000, 10000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	e, err := New(g, tmpl.Path(10), cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.ColorfulTotal(0) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ColorfulTotal(int64(i))
	}
}
