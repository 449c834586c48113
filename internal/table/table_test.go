package table

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Naive.String() != "naive" || Lazy.String() != "lazy" || Hash.String() != "hash" || Succinct.String() != "succinct" {
		t.Fatal("kind strings wrong")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Kind(9), 10, 4)
}

func TestBasicSetGet(t *testing.T) {
	for _, kind := range Kinds {
		tab := New(kind, 100, 10)
		if tab.NumSets() != 10 {
			t.Fatalf("%v: NumSets = %d", kind, tab.NumSets())
		}
		if tab.Get(5, 3) != 0 {
			t.Fatalf("%v: fresh cell nonzero", kind)
		}
		tab.Set(5, 3, 2.5)
		tab.Set(5, 7, 1.0)
		tab.Set(99, 0, 4.0)
		if tab.Get(5, 3) != 2.5 || tab.Get(5, 7) != 1.0 || tab.Get(99, 0) != 4.0 {
			t.Fatalf("%v: get after set wrong", kind)
		}
		if !tab.Has(5) || !tab.Has(99) {
			t.Fatalf("%v: Has false for stored vertex", kind)
		}
		if got := tab.SumRow(5); got != 3.5 {
			t.Fatalf("%v: SumRow = %v", kind, got)
		}
		if got := tab.Total(); got != 7.5 {
			t.Fatalf("%v: Total = %v", kind, got)
		}
	}
}

func TestHasSelectivity(t *testing.T) {
	// Lazy and Hash must report absent vertices; Naive reports all
	// present (that is its point).
	lazy := New(Lazy, 50, 4)
	hash := New(Hash, 50, 4)
	lazy.Set(10, 2, 1)
	hash.Set(10, 2, 1)
	if lazy.Has(11) || hash.Has(11) {
		t.Fatal("absent vertex reported present")
	}
	naive := New(Naive, 50, 4)
	if !naive.Has(11) {
		t.Fatal("dense table should always have rows")
	}
}

func TestStoreRowAndRow(t *testing.T) {
	row := []float64{0, 1.5, 0, 2.5}
	for _, kind := range Kinds {
		tab := New(kind, 20, 4)
		tab.StoreRow(3, row)
		for ci := int32(0); ci < 4; ci++ {
			if tab.Get(3, ci) != row[ci] {
				t.Fatalf("%v: cell %d = %v, want %v", kind, ci, tab.Get(3, ci), row[ci])
			}
		}
		r := tab.Row(3)
		if kind == Hash || kind == Succinct {
			if r != nil {
				t.Fatalf("%v Row should be nil", kind)
			}
		} else {
			if len(r) != 4 || r[3] != 2.5 {
				t.Fatalf("%v: Row = %v", kind, r)
			}
		}
	}
}

func TestAccumulateRow(t *testing.T) {
	for _, kind := range Kinds {
		tab := New(kind, 40, 6)
		tab.Set(3, 1, 2)
		tab.Set(3, 5, 7)
		tab.Set(9, 0, 1.5)

		// Every built-in layout must implement the fast path.
		if _, ok := tab.(RowAccumulator); !ok {
			t.Fatalf("%v: does not implement RowAccumulator", kind)
		}
		dst := []float64{1, 0, 0, 0, 0, 1}
		AccumulateRowInto(tab, 3, dst)
		want := []float64{1, 2, 0, 0, 0, 8}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%v: dst[%d] = %v, want %v", kind, i, dst[i], want[i])
			}
		}
		// Accumulating twice adds again.
		AccumulateRowInto(tab, 9, dst)
		if dst[0] != 2.5 {
			t.Fatalf("%v: second accumulate got %v", kind, dst[0])
		}
		// Absent vertex: no change (Naive has all rows, so skip it there).
		if kind != Naive {
			before := append([]float64(nil), dst...)
			AccumulateRowInto(tab, 20, dst)
			for i := range dst {
				if dst[i] != before[i] {
					t.Fatalf("%v: absent vertex modified dst", kind)
				}
			}
		}
	}
}

func TestBulkAccumulateAndGather(t *testing.T) {
	colors := []int8{2, 0, 1, 3, 2, 1, 0, 3, 1, 2}
	for _, kind := range Kinds {
		tab := New(kind, 10, 4)
		if _, ok := tab.(BulkAccumulator); !ok {
			t.Fatalf("%v: does not implement BulkAccumulator", kind)
		}
		tab.StoreRow(1, []float64{1, 2, 0, 4})
		tab.StoreRow(3, []float64{0, 0, 5, 1})
		tab.Set(7, 3, 9)

		// AccumulateRows over present, absent, and repeated vertices must
		// equal the sum of per-row accumulations.
		vs := []int32{1, 3, 5, 1}
		dst := []float64{0, 0, 0, 100}
		AccumulateRowsInto(tab, vs, dst)
		want := []float64{2, 4, 5, 109}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%v: AccumulateRows dst[%d] = %v, want %v", kind, i, dst[i], want[i])
			}
		}

		// GatherColors folds cell (v, colors[v]) into dst[colors[v]] — at
		// one lane the lane-strided table is the plain layout: v=1 (color
		// 0, val 1), v=3 (color 3, val 1), v=7 (color 3, val 9), v=5
		// absent.
		m := NewMulti(kind, 10, 4, 1, nil)
		m.StoreRow(1, []float64{1, 2, 0, 4})
		m.StoreRow(3, []float64{0, 0, 5, 1})
		m.Set(7, 3, 0, 9)
		bins := make([]float64, 4)
		m.GatherColors([]int32{1, 3, 7, 5}, colors, bins)
		wantBins := []float64{1, 0, 0, 10}
		for i := range wantBins {
			if bins[i] != wantBins[i] {
				t.Fatalf("%v: GatherColors bins[%d] = %v, want %v", kind, i, bins[i], wantBins[i])
			}
		}
	}
}

func TestHashMergeFrom(t *testing.T) {
	main := NewHash(100, 5)
	main.Set(1, 2, 3)
	a := NewHash(100, 5)
	b := NewHash(100, 5)
	for v := int32(10); v < 40; v++ {
		a.Set(v, v%5, float64(v))
	}
	for v := int32(40); v < 90; v++ {
		b.Set(v, v%5, float64(2*v))
	}
	main.MergeFrom(a)
	main.MergeFrom(b)
	main.MergeFrom(nil) // no-op
	if main.Get(1, 2) != 3 {
		t.Fatal("pre-existing cell lost")
	}
	for v := int32(10); v < 40; v++ {
		if main.Get(v, v%5) != float64(v) || !main.Has(v) {
			t.Fatalf("merged cell %d wrong", v)
		}
	}
	for v := int32(40); v < 90; v++ {
		if main.Get(v, v%5) != float64(2*v) || !main.Has(v) {
			t.Fatalf("merged cell %d wrong", v)
		}
	}
	if main.Has(95) {
		t.Fatal("unmerged vertex present")
	}
	// Overlapping keys overwrite.
	c := NewHash(100, 5)
	c.Set(1, 2, 9)
	main.MergeFrom(c)
	if main.Get(1, 2) != 9 {
		t.Fatal("overlapping merge did not overwrite")
	}
	// NumSets mismatch must panic rather than corrupt keys.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NumSets mismatch")
		}
	}()
	main.MergeFrom(NewHash(100, 7))
}

func TestSparseSkipsAllZeroRows(t *testing.T) {
	tab := NewSparse(10, 4)
	tab.StoreRow(2, []float64{0, 0, 0, 0})
	if tab.Has(2) {
		t.Fatal("all-zero store should not materialize a row")
	}
	tab.StoreRow(2, []float64{0, 1, 0, 0})
	if !tab.Has(2) {
		t.Fatal("nonzero store must materialize")
	}
	// Overwriting an existing row with zeros must stick.
	tab.StoreRow(2, []float64{0, 0, 0, 0})
	if tab.Get(2, 1) != 0 {
		t.Fatal("overwrite with zeros lost")
	}
}

func TestBytesOrdering(t *testing.T) {
	n, sets := 10000, 64
	naive := New(Naive, n, sets)
	lazy := New(Lazy, n, sets)
	hash := New(Hash, n, sets)
	// Touch only a handful of vertices.
	for v := int32(0); v < 20; v++ {
		naive.Set(v, 1, 1)
		lazy.Set(v, 1, 1)
		hash.Set(v, 1, 1)
	}
	if !(hash.Bytes() < lazy.Bytes() && lazy.Bytes() < naive.Bytes()) {
		t.Fatalf("sparse workload: want hash < lazy < naive, got %d / %d / %d",
			hash.Bytes(), lazy.Bytes(), naive.Bytes())
	}
}

func TestHashGrowth(t *testing.T) {
	h := NewHash(100000, 1000)
	for v := int32(0); v < 5000; v++ {
		for ci := int32(0); ci < 3; ci++ {
			h.Set(v, ci, float64(v+1))
		}
	}
	if h.Load() != 15000 {
		t.Fatalf("Load = %d, want 15000", h.Load())
	}
	for v := int32(0); v < 5000; v++ {
		if h.Get(v, 2) != float64(v+1) {
			t.Fatalf("value lost for %d after growth", v)
		}
		if h.Get(v, 3) != 0 {
			t.Fatal("phantom value")
		}
	}
}

func TestHashZeroSet(t *testing.T) {
	h := NewHash(10, 4)
	h.Set(1, 1, 0) // no-op: zero into absent cell
	if h.Load() != 0 {
		t.Fatal("zero store created a cell")
	}
	h.Set(1, 1, 5)
	h.Set(1, 1, 0) // overwrite existing with zero
	if h.Get(1, 1) != 0 {
		t.Fatal("zero overwrite lost")
	}
}

func TestRelease(t *testing.T) {
	for _, kind := range Kinds {
		tab := New(kind, 10, 4)
		tab.Set(1, 1, 1)
		tab.Release()
		// After release the footprint must be (near) zero.
		if tab.Bytes() > 128 {
			t.Fatalf("%v: Bytes after release = %d", kind, tab.Bytes())
		}
	}
}

// TestCrossImplementationEquivalence drives all three layouts with the
// same random operation sequence and requires identical observable
// behaviour.
func TestCrossImplementationEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		sets := 1 + rng.Intn(30)
		tabs := make([]Table, len(Kinds))
		for i, k := range Kinds {
			tabs[i] = New(k, n, sets)
		}
		for op := 0; op < 300; op++ {
			v := int32(rng.Intn(n))
			ci := int32(rng.Intn(sets))
			switch rng.Intn(3) {
			case 0:
				val := float64(rng.Intn(5)) // may be zero
				for _, tab := range tabs {
					tab.Set(v, ci, val)
				}
			case 1:
				row := make([]float64, sets)
				for i := range row {
					if rng.Intn(3) == 0 {
						row[i] = float64(rng.Intn(4))
					}
				}
				for _, tab := range tabs {
					tab.StoreRow(v, row)
				}
			case 2:
				want := tabs[0].Get(v, ci)
				for _, tab := range tabs[1:] {
					if tab.Get(v, ci) != want {
						return false
					}
				}
			}
		}
		// Totals and row sums must agree.
		want := tabs[0].Total()
		for _, tab := range tabs[1:] {
			if diff := tab.Total() - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		for v := int32(0); v < int32(n); v++ {
			want := tabs[0].SumRow(v)
			for _, tab := range tabs[1:] {
				if diff := tab.SumRow(v) - want; diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHashCollisionHeavyKeys(t *testing.T) {
	// Sequential keys with numSets=1 stress the probe chain.
	h := NewHash(1<<16, 1)
	for v := int32(0); v < 1<<14; v++ {
		h.Set(v, 0, float64(v)+1)
	}
	for v := int32(0); v < 1<<14; v++ {
		if h.Get(v, 0) != float64(v)+1 {
			t.Fatalf("lost key %d", v)
		}
	}
}
