package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// AblationPartition measures the §III-D trade-off: one-at-a-time versus
// balanced partitioning, with and without isomorphic-subtemplate sharing,
// on the U12-2 (or largest enabled) template.
func (p Params) AblationPartition(ctx context.Context) (Table, error) {
	g := p.network("enron")
	name := fmt.Sprintf("U%d-2", p.MaxK)
	tpl := tmpl.MustNamed(name)
	t := Table{
		Title:   fmt.Sprintf("Ablation: partitioning strategy and sharing, %s, enron-like", name),
		Columns: []string{"strategy", "share", "time_ms", "peak_mb", "estimate"},
	}
	for _, strat := range []part.Strategy{part.OneAtATime, part.Balanced} {
		for _, share := range []bool{false, true} {
			cfg := p.baseConfig()
			cfg.Strategy = strat
			cfg.Share = share
			d, res, err := singleIterationTime(ctx, g, tpl, cfg)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				strat.String(), fmt.Sprint(share), ms(d), mb(res.PeakTableBytes), sci(res.Estimate),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: one-at-a-time is faster despite symmetry savings; sharing trades time for memory")
	return t, nil
}

// AblationTable measures the three table layouts' time/memory trade-off
// on a path template over the road-like network.
func (p Params) AblationTable(ctx context.Context) (Table, error) {
	g := p.network("paroad")
	tpl := tmpl.MustNamed(fmt.Sprintf("U%d-1", p.MaxK))
	t := Table{
		Title:   fmt.Sprintf("Ablation: table layout, %s, paroad-like", tpl.Name()),
		Columns: []string{"layout", "time_ms", "peak_mb"},
	}
	for _, kind := range []table.Kind{table.Naive, table.Lazy, table.Hash} {
		cfg := p.baseConfig()
		cfg.TableKind = kind
		d, res, err := singleIterationTime(ctx, g, tpl, cfg)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{kind.String(), ms(d), mb(res.PeakTableBytes)})
	}
	t.Notes = append(t.Notes, "hash trades lookup time for footprint on high-selectivity workloads")
	return t, nil
}

// AblationBatch sweeps the iteration-batch width B on an Erdős–Rényi and
// a Barabási–Albert graph: B colorings ("lanes") share one DP traversal
// per batch, so per-iteration time should fall with B until lane-widened
// rows outgrow cache, while peak table bytes grow ~B× one iteration.
// Lane seeds equal iteration seeds, so estimates must be bit-identical
// across every width — the sweep enforces that.
func (p Params) AblationBatch(ctx context.Context) (Table, error) {
	if len(p.Batches) == 0 {
		p.Batches = []int{1, 2, 4}
	}
	k := min(p.MaxK, 7)
	tpl := tmpl.MustNamed(fmt.Sprintf("U%d-1", k))
	n := max(int(60_000*p.Scale), 2_000)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyiM(n, int64(4*n), p.Seed)},
		{"ba", gen.BarabasiAlbert(n, 4, p.Seed)},
	}
	const iters = 8
	t := Table{
		Title:   fmt.Sprintf("Ablation: iteration batch width, %s, ER/BA n=%d, %d iterations", tpl.Name(), n, iters),
		Columns: []string{"graph", "batch", "time_ms", "iter_ms", "peak_mb", "estimate"},
	}
	for _, gr := range graphs {
		var baseline float64
		for bi, b := range p.Batches {
			cfg := p.baseConfig()
			cfg.Batch = b
			e, err := dp.New(gr.g, tpl, cfg)
			if err != nil {
				return t, err
			}
			start := time.Now()
			res, err := e.RunContext(ctx, iters)
			if err != nil {
				return t, err
			}
			d := time.Since(start)
			if bi == 0 {
				baseline = res.Estimate
			} else if res.Estimate != baseline {
				return t, fmt.Errorf("ablation-batch: estimate drifted at B=%d on %s: got %v, want %v",
					b, gr.name, res.Estimate, baseline)
			}
			t.Rows = append(t.Rows, []string{
				gr.name, fmt.Sprint(e.Batch()), ms(d), ms(d / iters), mb(res.PeakTableBytes), sci(res.Estimate),
			})
		}
	}
	t.Notes = append(t.Notes,
		"estimates are bit-identical across widths (lane seeds equal iteration seeds)",
		"peak tables grow ~Bx one iteration; speedup saturates when lane rows exceed cache")
	return t, nil
}

// AblationLeafSpecial measures the single-vertex-child specializations'
// effect (the (k-1)/k inner-loop reduction of §III-D).
func (p Params) AblationLeafSpecial(ctx context.Context) (Table, error) {
	g := p.network("enron")
	tpl := tmpl.MustNamed(fmt.Sprintf("U%d-1", p.MaxK))
	t := Table{
		Title:   fmt.Sprintf("Ablation: leaf specializations, %s, enron-like", tpl.Name()),
		Columns: []string{"leaf_special", "time_ms", "estimate"},
	}
	for _, disable := range []bool{false, true} {
		cfg := p.baseConfig()
		cfg.DisableLeafSpecial = disable
		d, res, err := singleIterationTime(ctx, g, tpl, cfg)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(!disable), ms(d), sci(res.Estimate)})
	}
	t.Notes = append(t.Notes, "estimates must be identical; only time may differ")
	return t, nil
}
