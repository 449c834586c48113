package dp

import (
	"math/rand"
	"testing"
)

// TestReorderEquivalence pins the degree-bucketed relabeling's
// invisibility: with reordering forced on, the PerIteration stream and
// the per-original-vertex counts must be bit-identical to a run with
// reordering off — colors are drawn in original-id order and scattered
// through the permutation, and per-vertex output is translated back.
func TestReorderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// A skewed graph (star-heavy) so the bucketing actually permutes.
	g := randomGraph(rng, 120, 500)
	tpl := randomTree(rng, 5)
	const iters = 4
	for _, B := range []int{1, 4} {
		off := DefaultConfig()
		off.Seed = 5
		off.Batch = B
		off.Reorder = ReorderOff
		e0, err := New(g, tpl, off)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := e0.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		refCounts, err := e0.VertexCounts(iters)
		if err != nil {
			t.Fatal(err)
		}

		on := off
		on.Reorder = ReorderOn
		e1, err := New(g, tpl, on)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e1.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.ReorderApplied {
			t.Fatalf("B=%d: ReorderOn run did not report ReorderApplied", B)
		}
		if ref.Stats.ReorderApplied {
			t.Fatalf("B=%d: ReorderOff run reported ReorderApplied", B)
		}
		for i := range res.PerIteration {
			if res.PerIteration[i] != ref.PerIteration[i] {
				t.Fatalf("B=%d: iteration %d estimate %v != unreordered %v",
					B, i, res.PerIteration[i], ref.PerIteration[i])
			}
		}
		counts, err := e1.VertexCounts(iters)
		if err != nil {
			t.Fatal(err)
		}
		for v := range counts {
			if counts[v] != refCounts[v] {
				t.Fatalf("B=%d: vertex %d count %v != unreordered %v",
					B, v, counts[v], refCounts[v])
			}
		}
	}
}
