package dp

import "fmt"

// ReorderMode controls the degree-bucketed vertex relabeling of the
// execution graph (Config.Reorder).
type ReorderMode int

const (
	// ReorderAuto applies the relabeling on large degree-skewed graphs,
	// where it helps most: the pass's hot gathered rows (hubs) pack
	// contiguously instead of scattering across the table.
	ReorderAuto ReorderMode = iota
	// ReorderOn always applies the relabeling.
	ReorderOn
	// ReorderOff never applies it.
	ReorderOff
)

func (m ReorderMode) String() string {
	switch m {
	case ReorderAuto:
		return "auto"
	case ReorderOn:
		return "on"
	case ReorderOff:
		return "off"
	default:
		return fmt.Sprintf("ReorderMode(%d)", int(m))
	}
}

// reorderMinVerts and reorderSkewFactor gate ReorderAuto: relabeling a
// small or degree-uniform graph buys nothing (the CSR rebuild costs more
// than the locality it adds), so auto requires a big graph whose max
// degree dwarfs the average — the hub-heavy shape where packing hot rows
// pays.
const (
	reorderMinVerts   = 4096
	reorderSkewFactor = 8
)

// shouldReorder decides at engine construction whether to relabel.
// KeepTables forces it off: embedding sampling walks the kept tables by
// graph vertex id, and keeping those ids the caller's avoids translating
// every sampled embedding.
func (e *Engine) shouldReorder() bool {
	if e.cfg.KeepTables {
		return false
	}
	switch e.cfg.Reorder {
	case ReorderOn:
		return true
	case ReorderOff:
		return false
	}
	if e.g.N() < reorderMinVerts {
		return false
	}
	s := e.g.ComputeStats()
	return float64(s.MaxDegree) >= reorderSkewFactor*s.AvgDegree
}

// origID maps an engine-graph vertex id back to the caller's original
// id (the identity when no reordering is applied). Per-vertex outputs
// (VertexCounts) emit through it so the relabeling stays invisible.
func (e *Engine) origID(v int32) int32 {
	if e.ord == nil {
		return v
	}
	return e.ord.Orig[v]
}
