package table

import (
	"sync"
	"sync/atomic"
)

// Sparse is the paper's "improved" layout: per-vertex rows allocated only
// when a vertex first receives a count. The Has check lets the DP skip
// vertices whose active child is uninitialized and neighbors whose
// passive child is uninitialized, saving both memory and work.
//
// Rows live in bump-allocated arena blocks indexed by a compact int32
// offset table (4 bytes per vertex, versus 24-byte slice headers for a
// naive slice-of-slices), so the layout's footprint stays below the dense
// layout's whenever any vertices are untouched. Rows are never freed
// individually; the whole table is released at once, matching the DP's
// eager-release schedule.
type Sparse struct {
	numSets int
	index   []int32 // per-vertex arena slot (-1 = absent)
	blocks  [][]float64
	cur     []float64    // current block remainder
	live    atomic.Int64 // number of allocated rows, for Bytes
	mu      sync.Mutex   // guards arena growth for concurrent writers
	arena   *Arena
}

// sparseBlockRows is the number of rows per arena block.
const sparseBlockRows = 256

// newSparse creates a sparse table for n vertices with no rows
// allocated, drawing the index vector and row blocks from an arena (nil
// falls back to plain allocation); Release returns them to it.
func newSparse(n, numSets int, a *Arena) *Sparse {
	idx := a.I32(n)
	for i := range idx {
		idx[i] = -1
	}
	return &Sparse{numSets: numSets, index: idx, arena: a}
}

// NumSets implements Table.
func (s *Sparse) NumSets() int { return s.numSets }

// Has implements Table.
func (s *Sparse) Has(v int32) bool { return s.index[v] >= 0 }

// rowAt returns the row for an allocated slot id.
func (s *Sparse) rowAt(slot int32) []float64 {
	b := int(slot) / sparseBlockRows
	r := (int(slot) % sparseBlockRows) * s.numSets
	return s.blocks[b][r : r+s.numSets : r+s.numSets]
}

// Get implements Table.
func (s *Sparse) Get(v int32, ci int32) float64 {
	slot := s.index[v]
	if slot < 0 {
		return 0
	}
	return s.rowAt(slot)[ci]
}

// Row implements Table.
func (s *Sparse) Row(v int32) []float64 {
	slot := s.index[v]
	if slot < 0 {
		return nil
	}
	return s.rowAt(slot)
}

// carve assigns a fresh row slot to v and returns its (dirty!) storage.
// Arena slabs arrive with stale contents, so the caller must fully
// initialize the row — clear it or overwrite every cell — before the
// pass barrier publishes it to readers. Concurrent calls for DISTINCT
// vertices are safe: each vertex's index entry is only written by its
// owning worker and block carving happens under the mutex, with the
// returned row slice pointing directly into the (immutable once
// allocated) block storage. Deferring the zeroing to row granularity
// lets StoreRow skip it entirely: internal DP nodes materialize whole
// rows, and block-level memclr of soon-overwritten cells was ~30% of
// batched run time under the profiler.
func (s *Sparse) carve(v int32) []float64 {
	s.mu.Lock()
	if len(s.cur) == 0 {
		block := s.arena.F64(sparseBlockRows * s.numSets)
		s.blocks = append(s.blocks, block)
		s.cur = block
	}
	row := s.cur[:s.numSets:s.numSets]
	s.cur = s.cur[s.numSets:]
	slot := int32(s.live.Load())
	s.live.Add(1)
	s.mu.Unlock()
	s.index[v] = slot
	return row
}

// ensure materializes v's row, zeroed on first touch (the Set-style
// callers update single cells and read the rest as zero).
func (s *Sparse) ensure(v int32) []float64 {
	if slot := s.index[v]; slot >= 0 {
		return s.rowAt(slot)
	}
	row := s.carve(v)
	clear(row)
	return row
}

// Set implements Table.
func (s *Sparse) Set(v int32, ci int32, val float64) {
	s.ensure(v)[ci] = val
}

// StoreRow implements Table. An all-zero row for an absent vertex is
// skipped, preserving the selectivity of Has. A fresh row is carved
// dirty and fully overwritten — no zeroing pass.
func (s *Sparse) StoreRow(v int32, row []float64) {
	if slot := s.index[v]; slot >= 0 {
		copy(s.rowAt(slot), row)
		return
	}
	nonzero := false
	for _, x := range row {
		if x != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		return
	}
	dst := s.carve(v)
	n := copy(dst, row)
	clear(dst[n:]) // defensive: short rows must not expose stale cells
}

// AccumulateRows implements Table; absent rows contribute nothing. The
// inner sweep is the 8-wide bounds-check-eliminated AddTo
// (bulk8.go): scalar Go emits roughly one checked add per cycle, and
// with lane-widened batched rows (width numSets x B) the unroll keeps
// eight independent adds in flight — this function is ~50% of a batched
// run under the profiler.
func (s *Sparse) AccumulateRows(vs []int32, dst []float64) {
	dst = dst[:s.numSets]
	for _, v := range vs {
		slot := s.index[v]
		if slot < 0 {
			continue
		}
		AddTo(dst, s.rowAt(slot))
	}
}

// SumRow implements Table.
func (s *Sparse) SumRow(v int32) float64 {
	var sum float64
	for _, x := range s.Row(v) {
		sum += x
	}
	return sum
}

// Rows implements Table: the number of arena rows allocated so far.
func (s *Sparse) Rows() int64 { return s.live.Load() }

// Bytes implements Table.
func (s *Sparse) Bytes() int64 {
	return int64(len(s.index))*4 +
		int64(len(s.blocks))*(int64(sparseBlockRows)*int64(s.numSets)*float64Size+sliceHeaderLen) +
		sliceHeaderLen
}

// Release implements Table, returning the index vector and row blocks to
// the arena.
func (s *Sparse) Release() {
	s.arena.PutI32(s.index)
	for _, b := range s.blocks {
		s.arena.PutF64(b)
	}
	s.index = nil
	s.blocks = nil
	s.cur = nil
	s.live.Store(0)
}
