package experiments

import (
	"context"

	"repro/internal/dp"
)

// Profile reproduces the paper's §V-A instrumentation claim: "more than
// 90% of time is spent in step 12 of Algorithm 2" (the DP table
// combination step). One iteration per template is phase-profiled on the
// Portland-like network.
func (p Params) Profile(ctx context.Context) (Table, error) {
	g := p.network("portland")
	t := Table{
		Title:   "Section V-A: time breakdown per iteration, portland-like",
		Columns: []string{"template", "coloring_ms", "leaf_init_ms", "compute_ms", "compute_share"},
	}
	for _, tpl := range p.templates() {
		if err := ctx.Err(); err != nil {
			return t, err
		}
		cfg := p.baseConfig()
		cfg.Workers = 1
		e, err := dp.New(g, tpl, cfg)
		if err != nil {
			return t, err
		}
		prof, _ := e.ProfileIteration(p.Seed)
		t.Rows = append(t.Rows, []string{
			tpl.Name(), ms(prof.Coloring), ms(prof.LeafInit), ms(prof.Compute), f4(prof.ComputeShare()),
		})
	}
	t.Notes = append(t.Notes,
		"paper: >90% of time in the DP combination step for large templates; share grows with k",
		"leaf_init_ms reads about 0: leaf cells derive from the coloring on the fly, so no leaf table is built")
	return t, nil
}
