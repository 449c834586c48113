package table

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestArenaRecycling checks the free-list mechanics: a returned slab of
// the same length is handed back (hit), different lengths are separate
// classes, and the per-class cap bounds retention.
func TestArenaRecycling(t *testing.T) {
	a := &Arena{}
	s1 := a.F64(100)
	if h, m := a.Stats(); h != 0 || m != 1 {
		t.Fatalf("fresh get: hits=%d misses=%d", h, m)
	}
	a.PutF64(s1)
	s2 := a.F64(100)
	if h, _ := a.Stats(); h != 1 {
		t.Fatalf("recycled get not counted as hit")
	}
	if &s1[0] != &s2[0] {
		t.Fatal("recycled slab is not the same backing array")
	}
	// A different length is a different class.
	_ = a.F64(200)
	if h, m := a.Stats(); h != 1 || m != 2 {
		t.Fatalf("cross-class get: hits=%d misses=%d", h, m)
	}
	// Typed pools are independent.
	i := a.I32(100)
	a.PutI32(i)
	if got := a.I32(100); &got[0] != &i[0] {
		t.Fatal("I32 slab not recycled")
	}
	c := a.I8(64)
	a.PutI8(c)
	if got := a.I8(64); &got[0] != &c[0] {
		t.Fatal("I8 slab not recycled")
	}
	u := a.U64(16)
	a.PutU64(u)
	if got := a.U64(16); &got[0] != &u[0] {
		t.Fatal("U64 slab not recycled")
	}
	k := a.I64(32)
	a.PutI64(k)
	if got := a.I64(32); &got[0] != &k[0] {
		t.Fatal("I64 slab not recycled")
	}
}

// TestArenaNilSafe checks that a nil arena degrades to plain allocation
// (the no-engine construction paths).
func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	if s := a.F64(10); len(s) != 10 {
		t.Fatal("nil arena F64")
	}
	a.PutF64(make([]float64, 10)) // must not panic
	if s := a.I8(5); len(s) != 5 {
		t.Fatal("nil arena I8")
	}
	a.PutI8(nil)
}

// TestArenaCap checks that each class retains at most arenaMaxPerClass
// slabs so pathological width churn cannot hoard memory.
func TestArenaCap(t *testing.T) {
	a := &Arena{}
	slabs := make([][]float64, arenaMaxPerClass+10)
	for i := range slabs {
		slabs[i] = make([]float64, 7)
	}
	for _, s := range slabs {
		a.PutF64(s)
	}
	hitsBefore, _ := a.Stats()
	for i := 0; i < arenaMaxPerClass; i++ {
		a.F64(7)
	}
	h, _ := a.Stats()
	if h-hitsBefore != arenaMaxPerClass {
		t.Fatalf("expected %d retained slabs, got %d hits", arenaMaxPerClass, h-hitsBefore)
	}
	a.F64(7) // the extras beyond the cap were dropped
	if h2, _ := a.Stats(); h2 != h {
		t.Fatalf("class retained more than %d slabs", arenaMaxPerClass)
	}
}

// TestMultiLaneSemantics checks the lane-strided Multi table: cells land
// at ci·L + lane, per-lane totals separate, neighbor rows accumulate
// lane by lane, and rows materialize on the hash layout.
func TestMultiLaneSemantics(t *testing.T) {
	for _, kind := range []Kind{Naive, Lazy, Hash} {
		const n, numSets, L = 10, 4, 3
		m := NewMulti(kind, n, numSets, L, nil)
		if m.NumSets() != numSets || m.Lanes() != L || m.Width() != numSets*L {
			t.Fatalf("%v: shape mismatch", kind)
		}
		m.Set(2, 1, 0, 5)
		m.Set(2, 1, 2, 7)
		m.Set(3, 0, 1, 11)
		if got := m.Get(2, 1, 0); got != 5 {
			t.Fatalf("%v: Get lane 0 = %v", kind, got)
		}
		if got := m.Get(2, 1, 1); got != 0 {
			t.Fatalf("%v: untouched lane = %v, want 0", kind, got)
		}
		if got := m.Get(2, 1, 2); got != 7 {
			t.Fatalf("%v: Get lane 2 = %v", kind, got)
		}
		totals := make([]float64, L)
		m.Totals(totals)
		if totals[0] != 5 || totals[1] != 11 || totals[2] != 7 {
			t.Fatalf("%v: totals = %v", kind, totals)
		}
		// MaterializeRow returns the full lane-strided row.
		dst := make([]float64, numSets*L)
		row := m.MaterializeRow(2, dst)
		if row[1*L+0] != 5 || row[1*L+2] != 7 {
			t.Fatalf("%v: materialized row %v", kind, row)
		}
		// AccumulateRows sums lane rows of several vertices.
		acc := make([]float64, numSets*L)
		m.AccumulateRows([]int32{2, 3, 4}, acc)
		if acc[1*L+0] != 5 || acc[0*L+1] != 11 || acc[1*L+2] != 7 {
			t.Fatalf("%v: accumulate %v", kind, acc)
		}
		m.Release()
	}
}

// TestMultiMergeFrom checks the hash staging merge used by the batched
// inner-parallel path. Staging tables hold DISJOINT vertex shards (each
// vertex is owned by one worker), so the merge moves rows without
// combining cells.
func TestMultiMergeFrom(t *testing.T) {
	const n, numSets, L = 8, 3, 2
	dst := NewMulti(Hash, n, numSets, L, nil)
	src := NewMulti(Hash, n, numSets, L, nil)
	dst.Set(1, 0, 0, 2)
	src.Set(4, 2, 1, 9)
	src.Set(4, 1, 0, 6)
	dst.MergeFrom(src)
	if got := dst.Get(1, 0, 0); got != 2 {
		t.Fatalf("pre-existing cell = %v, want 2", got)
	}
	if got := dst.Get(4, 2, 1); got != 9 {
		t.Fatalf("merged cell = %v, want 9", got)
	}
	if got := dst.Get(4, 1, 0); got != 6 {
		t.Fatalf("merged cell = %v, want 6", got)
	}
	if !dst.Has(4) {
		t.Fatal("presence not merged")
	}
	if !dst.IsHash() {
		t.Fatal("IsHash false for hash Multi")
	}
	src.Release()
	dst.Release()
}

// TestArenaStress hammers mixed get/put traffic to exercise class
// bookkeeping under interleaving (run with -race in the race lane).
func TestArenaStress(t *testing.T) {
	a := &Arena{}
	rng := rand.New(rand.NewSource(1))
	live := make([][]float64, 0, 64)
	for i := 0; i < 10_000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			a.PutF64(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			n := 1 << rng.Intn(8)
			live = append(live, a.F64(n))
		}
	}
	h, m := a.Stats()
	if h+m < 5000 {
		t.Fatalf("stress accounting implausible: hits=%d misses=%d", h, m)
	}
}

// TestArenaSpill checks the file-backed spill source end to end: slabs
// at or above the threshold come from mmapped regions and are tracked
// by SpillStats, sub-threshold slabs stay on the heap, returned spill
// slabs keep their mapping (recycled through the free lists, resident
// pages advised away), and writes to a spilled slab actually stick.
func TestArenaSpill(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("spill mappings are linux-only")
	}
	const min = 1 << 16
	a := &Arena{}
	a.SetSpill(min)

	small := a.F64(min / 16) // well under the byte threshold
	if slabs, bytes := a.SpillStats(); slabs != 0 || bytes != 0 {
		t.Fatalf("small slab spilled: %d slabs, %d bytes", slabs, bytes)
	}
	a.PutF64(small)

	big := a.F64(min / 8) // exactly min bytes
	if slabs, bytes := a.SpillStats(); slabs != 1 || bytes != min {
		t.Fatalf("big slab not spilled: %d slabs, %d bytes", slabs, bytes)
	}
	for i := range big {
		big[i] = float64(i)
	}
	for i := range big {
		if big[i] != float64(i) {
			t.Fatalf("spilled slab dropped a write at %d", i)
		}
	}

	// Returning the slab advises its pages away but keeps the mapping:
	// the next same-size request recycles it instead of mapping again.
	a.PutF64(big)
	if slabs, _ := a.SpillStats(); slabs != 1 {
		t.Fatalf("mapping dropped on Put: %d slabs", slabs)
	}
	again := a.F64(min / 8)
	if &again[0] != &big[0] {
		t.Fatal("spilled slab not recycled through the free list")
	}
	if slabs, bytes := a.SpillStats(); slabs != 1 || bytes != min {
		t.Fatalf("recycled get remapped: %d slabs, %d bytes", slabs, bytes)
	}
	// Contents are unspecified after Put/re-get (pages were advised
	// away), but the slab must be writable and zero-filled pages are
	// fine — touch it to prove the mapping is still valid.
	again[0], again[len(again)-1] = 1, 2
	if again[0] != 1 || again[len(again)-1] != 2 {
		t.Fatal("recycled spill slab not writable")
	}

	// Typed variants share the same region.
	k := a.I64(min / 8)
	vs := a.I32(min / 4)
	if slabs, bytes := a.SpillStats(); slabs != 3 || bytes != 3*min {
		t.Fatalf("typed spills not tracked: %d slabs, %d bytes", slabs, bytes)
	}
	a.PutI64(k)
	a.PutI32(vs)
}
