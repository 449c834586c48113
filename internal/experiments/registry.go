package experiments

import (
	"context"
	"fmt"
	"sort"
)

// Runner executes one experiment under the given parameters. The context
// is checked between workload units (templates, networks, iteration
// sweeps) and plumbed into every counting run, so cancelling it aborts an
// experiment promptly with a partial table and the context's error.
type Runner func(Params, context.Context) (Table, error)

// Registry maps experiment names (as used by `fasciabench <name>`) to
// their runners, in the paper's presentation order.
var Registry = map[string]Runner{
	"table1":             func(p Params, _ context.Context) (Table, error) { return p.Table1(), nil },
	"fig3":               Params.Fig3,
	"fig4":               Params.Fig4,
	"fig5":               Params.Fig5,
	"fig6":               Params.Fig6,
	"fig7":               Params.Fig7,
	"fig8":               Params.Fig8,
	"fig9":               Params.Fig9,
	"fig10":              Params.Fig10,
	"fig11":              Params.Fig11,
	"fig12":              Params.Fig12,
	"fig13":              Params.Fig13,
	"fig14":              Params.Fig14,
	"fig15":              Params.Fig15,
	"fig16":              Params.Fig16,
	"moda":               Params.Moda,
	"ablation-partition": Params.AblationPartition,
	"ablation-table":     Params.AblationTable,
	"ablation-leaf":      Params.AblationLeafSpecial,
	"ablation-batch":     Params.AblationBatch,
	"distributed":        Params.Distributed,
	"profile":            Params.Profile,
}

// Order lists experiment names in presentation order for `fasciabench all`.
var Order = []string{
	"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "moda",
	"ablation-partition", "ablation-table", "ablation-leaf",
	"ablation-batch",
	"distributed", "profile",
}

// Run executes the named experiment without cancellation.
func Run(name string, p Params) (Table, error) {
	return RunContext(context.Background(), name, p)
}

// RunContext executes the named experiment under ctx; cancelling ctx
// aborts the experiment between workload units and inside counting runs.
func RunContext(ctx context.Context, name string, p Params) (Table, error) {
	r, ok := Registry[name]
	if !ok {
		names := make([]string, 0, len(Registry))
		for n := range Registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
	}
	return r(p, ctx)
}
