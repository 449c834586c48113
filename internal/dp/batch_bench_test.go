package dp

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tmpl"
)

// BenchmarkBatchedDP is the acceptance benchmark of the iteration-batched
// execution mode: 8 iterations of a k=7 path template on 100k-vertex
// Erdős–Rényi and Barabási–Albert graphs, sweeping the lane width B with
// inner parallelism pinned to one worker so the comparison isolates the
// traversal amortization (B=1 is the classic schedule). The recorded
// numbers live in BENCH_batch.json; the target is >= 1.5x at B=8 with
// peak table bytes <= B x the unbatched peak.
//
// Run with:
//
//	go test -run='^$' -bench=BenchmarkBatchedDP/ -benchtime=1x -count=3 ./internal/dp
func BenchmarkBatchedDP(b *testing.B) {
	const iters = 8
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er100k", gen.ErdosRenyiM(100_000, 400_000, 1)},
		{"ba100k", gen.BarabasiAlbert(100_000, 4, 1)},
	}
	tpl := tmpl.MustNamed("U7-1")
	for _, gr := range graphs {
		for _, B := range []int{1, 2, 4, 8, 16} {
			cfg := DefaultConfig()
			cfg.Batch = B
			cfg.Mode = Inner
			cfg.Workers = 1
			e, err := New(gr.g, tpl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/B%d", gr.name, B), func(b *testing.B) {
				var peak int64
				for i := 0; i < b.N; i++ {
					res, err := e.Run(iters)
					if err != nil {
						b.Fatal(err)
					}
					peak = res.PeakTableBytes
				}
				b.ReportMetric(float64(peak)/(1<<20), "peakMB")
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*iters)*1000, "ms/iter")
			})
		}
	}
}

// BenchmarkBatchedDPSmall is the CI smoke version (make bench-batch): a
// small graph, B=1 vs B=4, with an equivalence assertion so the smoke
// run doubles as an end-to-end batched-vs-unbatched check.
func BenchmarkBatchedDPSmall(b *testing.B) {
	g := gen.ErdosRenyiM(5_000, 20_000, 1)
	tpl := tmpl.MustNamed("U7-1")
	const iters = 4
	var ref []float64
	for _, B := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Batch = B
		cfg.Mode = Inner
		cfg.Workers = 1
		e, err := New(g, tpl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("B%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(iters)
				if err != nil {
					b.Fatal(err)
				}
				if B == 1 {
					ref = res.PerIteration
				} else if ref != nil {
					for j := range res.PerIteration {
						if res.PerIteration[j] != ref[j] {
							b.Fatalf("B=%d iteration %d: %v != unbatched %v",
								B, j, res.PerIteration[j], ref[j])
						}
					}
				}
			}
		})
	}
}

// BenchmarkChunkSkew compares the historical fixed work-stealing chunk
// (512 vertices) against the adaptive chunkFor policy on a degree-skewed
// Barabási–Albert graph, where a fixed chunk of hub vertices can cost
// many times a chunk of leaves and strand workers at the tail of a pass.
func BenchmarkChunkSkew(b *testing.B) {
	g := gen.BarabasiAlbert(50_000, 8, 1)
	tpl := tmpl.MustNamed("U5-1")
	for _, fixed := range []int{512, 0} {
		cfg := DefaultConfig()
		cfg.Mode = Inner
		cfg.Workers = 4
		e, err := New(g, tpl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		name := "adaptive"
		if fixed > 0 {
			name = fmt.Sprintf("fixed%d", fixed)
		}
		b.Run(name, func(b *testing.B) {
			chunkOverride = fixed
			defer func() { chunkOverride = 0 }()
			for i := 0; i < b.N; i++ {
				e.ColorfulTotal(int64(i))
			}
		})
	}
}
