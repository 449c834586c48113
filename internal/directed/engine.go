package directed

import (
	"fmt"
	"math/rand"

	"repro/internal/comb"
	"repro/internal/dp"
	"repro/internal/part"
)

// Config controls a directed counting run.
type Config struct {
	// Colors is the number of colors (0 = template size).
	Colors int
	// Strategy selects the partitioning heuristic for the skeleton.
	Strategy part.Strategy
	// Seed drives colorings; iteration i colors with Seed+i.
	Seed int64
}

// Result reports a directed counting run.
type Result struct {
	Estimate     float64
	PerIteration []float64
}

// Engine counts non-induced occurrences of a directed tree template in a
// digraph by direction-aware color coding: the partition tree is built on
// the undirected skeleton, and each DP step walks the cut arc in its
// template direction (out-neighbors for root→passive arcs, in-neighbors
// for passive→root).
type Engine struct {
	g   *DiGraph
	t   *DiTemplate
	cfg Config

	k      int
	tree   *part.Tree
	aut    int64
	prob   float64
	splits map[[2]int]*comb.SplitTable
	// forward[node] is true when the cut arc of the internal node points
	// root → passive-root, so the DP follows out-neighbors.
	forward map[*part.Node]bool
}

// New prepares a directed engine.
func New(g *DiGraph, t *DiTemplate, cfg Config) (*Engine, error) {
	if g == nil || t == nil {
		return nil, fmt.Errorf("directed: nil graph or template")
	}
	k := cfg.Colors
	if k == 0 {
		k = t.K()
	}
	if k < t.K() || k > comb.MaxColors {
		return nil, fmt.Errorf("directed: invalid color count %d for template size %d", k, t.K())
	}
	if err := dp.CheckRowWidth(t.K(), k); err != nil {
		return nil, err
	}
	// Sharing must stay off: merged nodes lose the vertex identity the
	// arc-direction lookup needs.
	tree, err := part.Build(t.Skeleton(), cfg.Strategy, false)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g: g, t: t, cfg: cfg, k: k, tree: tree,
		aut:     t.Automorphisms(),
		prob:    dp.ColorfulProbability(k, t.K()),
		splits:  map[[2]int]*comb.SplitTable{},
		forward: map[*part.Node]bool{},
	}
	for _, n := range tree.Nodes {
		if n.IsLeaf() {
			continue
		}
		key := [2]int{n.Size(), n.Active.Size()}
		if _, ok := e.splits[key]; !ok {
			e.splits[key] = comb.NewSplitTable(k, n.Size(), n.Active.Size())
		}
		e.forward[n] = t.HasArc(n.Root, n.Passive.Root)
	}
	return e, nil
}

// Automorphisms returns the direction-preserving automorphism count used
// for scaling.
func (e *Engine) Automorphisms() int64 { return e.aut }

// Run executes iters color-coding iterations and averages the estimates.
func (e *Engine) Run(iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("directed: iterations must be >= 1, got %d", iters)
	}
	res := Result{PerIteration: make([]float64, iters)}
	for i := 0; i < iters; i++ {
		total := e.ColorfulTotal(e.cfg.Seed + int64(i))
		res.PerIteration[i] = total / (e.prob * float64(e.aut))
	}
	var sum float64
	for _, x := range res.PerIteration {
		sum += x
	}
	res.Estimate = sum / float64(iters)
	return res, nil
}

// ColoringFor reproduces the coloring of an iteration seed.
func (e *Engine) ColoringFor(seed int64) []int8 {
	rng := rand.New(rand.NewSource(seed))
	colors := make([]int8, e.g.N())
	for i := range colors {
		colors[i] = int8(rng.Intn(e.k))
	}
	return colors
}

// ColorfulTotal runs one direction-aware DP pass under the coloring of
// the given seed and returns the raw colorful mapping total.
func (e *Engine) ColorfulTotal(seed int64) float64 {
	colors := e.ColoringFor(seed)
	n := int32(e.g.N())
	tables := map[*part.Node][][]float64{}
	remaining := map[*part.Node]int{}
	for _, nd := range e.tree.Nodes {
		remaining[nd] = nd.Consumers
	}
	for _, nd := range e.tree.Order {
		if nd.IsLeaf() {
			rows := make([][]float64, n)
			for v := int32(0); v < n; v++ {
				row := make([]float64, e.k)
				row[colors[v]] = 1
				rows[v] = row
			}
			tables[nd] = rows
			continue
		}
		act := tables[nd.Active]
		pas := tables[nd.Passive]
		split := e.splits[[2]int{nd.Size(), nd.Active.Size()}]
		nc := split.NumSets
		spn := split.SplitsPerSet
		rows := make([][]float64, n)
		for v := int32(0); v < n; v++ {
			arow := act[v]
			if arow == nil {
				continue
			}
			// The cut arc's direction picks the neighbor set: for a
			// root→passive arc the passive image must be an out-neighbor
			// of v; otherwise an in-neighbor.
			var nbrs []int32
			if e.forward[nd] {
				nbrs = e.g.Out(v)
			} else {
				nbrs = e.g.In(v)
			}
			var buf []float64
			for _, u := range nbrs {
				prow := pas[u]
				if prow == nil {
					continue
				}
				if buf == nil {
					buf = make([]float64, nc)
				}
				for ci := 0; ci < nc; ci++ {
					base := ci * spn
					var s float64
					for j := base; j < base+spn; j++ {
						if av := arow[split.ActiveIdx[j]]; av != 0 {
							s += av * prow[split.PassiveIdx[j]]
						}
					}
					buf[ci] += s
				}
			}
			if buf != nil {
				nonzero := false
				for _, x := range buf {
					if x != 0 {
						nonzero = true
						break
					}
				}
				if nonzero {
					rows[v] = buf
				}
			}
		}
		tables[nd] = rows
		for _, ch := range []*part.Node{nd.Active, nd.Passive} {
			remaining[ch]--
			if remaining[ch] == 0 {
				delete(tables, ch)
			}
		}
	}
	var total float64
	for _, row := range tables[e.tree.Root] {
		for _, x := range row {
			total += x
		}
	}
	return total
}
