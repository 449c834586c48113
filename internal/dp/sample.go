package dp

import (
	"fmt"
	"math/rand"

	"repro/internal/part"
)

// Embedding is one non-induced occurrence of the template: Mapping[i] is
// the graph vertex that template vertex i maps to.
type Embedding struct {
	Mapping []int32
}

// SampleEmbeddings draws count colorful embeddings uniformly at random
// (over colorful rooted mappings) by backtracking through the dynamic
// tables of the most recent run — FASCIA's enumeration capability. It
// reads the kept one-lane tables through the lane read surface at lane
// 0, implicit leaves included. The
// engine must have been configured with KeepTables and have completed at
// least one run; the samples come from that run's coloring. It returns an
// error when the last run found no colorful embeddings.
func (e *Engine) SampleEmbeddings(rng *rand.Rand, count int) ([]Embedding, error) {
	if e.kept == nil {
		return nil, fmt.Errorf("dp: SampleEmbeddings requires KeepTables and a completed run")
	}
	root := e.tree.Root
	rootTab := e.kept.tabs[root]
	n := int32(e.g.N())

	// Cache per-vertex totals of the root table for fast weighted choice.
	sums := make([]float64, n)
	var total float64
	for v := int32(0); v < n; v++ {
		if rootTab.Has(v) {
			sums[v] = rootTab.SumRow(v)
			total += sums[v]
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("dp: no colorful embeddings to sample in the last run")
	}

	out := make([]Embedding, 0, count)
	for s := 0; s < count; s++ {
		// Choose the root vertex proportional to its total count; the
		// last positive bucket absorbs floating-point slack.
		target := rng.Float64() * total
		v := int32(-1)
		for cand := int32(0); cand < n; cand++ {
			if sums[cand] <= 0 {
				continue
			}
			v = cand
			if target < sums[cand] {
				break
			}
			target -= sums[cand]
		}
		// Choose the color set within the row proportionally.
		nc := rootTab.NumSets()
		target = rng.Float64() * sums[v]
		ci := int32(-1)
		for cand := int32(0); cand < int32(nc); cand++ {
			w := rootTab.Get(v, cand, 0)
			if w <= 0 {
				continue
			}
			ci = cand
			if target < w {
				break
			}
			target -= w
		}
		m := make([]int32, e.t.K())
		if err := e.assign(rng, root, v, ci, m); err != nil {
			return nil, err
		}
		out = append(out, Embedding{Mapping: m})
	}
	return out, nil
}

// assign recursively reconstructs one mapping consistent with node's
// table cell (v, ci), sampling child decompositions proportional to their
// contribution to the cell's count.
func (e *Engine) assign(rng *rand.Rand, n *part.Node, v int32, ci int32, m []int32) error {
	if n.IsLeaf() {
		m[n.LeafVertex()] = v
		return nil
	}
	act, pas := e.kept.laneTabFor(n.Active), e.kept.laneTabFor(n.Passive)
	split := e.splits[[2]int{n.Size(), n.Active.Size()}]
	spn := split.SplitsPerSet
	base := int(ci) * spn

	want := e.kept.tabs[n].Get(v, ci, 0)
	if want <= 0 {
		return fmt.Errorf("dp: inconsistent tables during sampling (cell %d/%d empty)", v, ci)
	}
	target := rng.Float64() * want
	var lastU int32 = -1
	var lastJ = -1
	for _, u := range e.g.Adj(v) {
		if !pas.Has(u) {
			continue
		}
		for j := base; j < base+spn; j++ {
			av := act.Get(v, split.ActiveIdx[j], 0)
			if av == 0 {
				continue
			}
			pv := pas.Get(u, split.PassiveIdx[j], 0)
			if pv == 0 {
				continue
			}
			w := av * pv
			lastU, lastJ = u, j
			if target < w {
				if err := e.assign(rng, n.Active, v, split.ActiveIdx[j], m); err != nil {
					return err
				}
				return e.assign(rng, n.Passive, u, split.PassiveIdx[j], m)
			}
			target -= w
		}
	}
	// Floating-point slack: fall back to the last positive option.
	if lastJ >= 0 {
		if err := e.assign(rng, n.Active, v, split.ActiveIdx[lastJ], m); err != nil {
			return err
		}
		return e.assign(rng, n.Passive, lastU, split.PassiveIdx[lastJ], m)
	}
	return fmt.Errorf("dp: inconsistent tables during sampling (no decomposition)")
}

// VerifyEmbedding checks that an embedding really is a non-induced
// occurrence: distinct vertices, every template edge present, and labels
// matching for labeled templates. Exposed for tests and examples.
func (e *Engine) VerifyEmbedding(emb Embedding) error {
	if len(emb.Mapping) != e.t.K() {
		return fmt.Errorf("dp: mapping has %d vertices, template %d", len(emb.Mapping), e.t.K())
	}
	seen := map[int32]bool{}
	for i, v := range emb.Mapping {
		if v < 0 || int(v) >= e.g.N() {
			return fmt.Errorf("dp: mapped vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("dp: vertex %d used twice", v)
		}
		seen[v] = true
		if e.t.Labeled() && e.g.Label(v) != e.t.Label(i) {
			return fmt.Errorf("dp: label mismatch at template vertex %d", i)
		}
	}
	for _, edge := range e.t.Edges() {
		if !e.g.HasEdge(emb.Mapping[edge[0]], emb.Mapping[edge[1]]) {
			return fmt.Errorf("dp: template edge %v not present in graph", edge)
		}
	}
	return nil
}
