package table

import "math/bits"

// HashTable stores only nonzero cells in a single open-addressed hash
// table keyed by key = vid·NumSets + colorIndex — the paper's hashing
// scheme, which "ensures unique values for all combinations of vertices
// and color sets". A per-vertex presence bitset preserves the cheap Has
// checks. Linear probing with power-of-two capacity and multiplicative
// key mixing keeps probes short; the table grows at 70% load.
type HashTable struct {
	numSets int
	keys    []int64 // emptyKey marks free slots
	vals    []float64
	mask    int64
	count   int
	present []uint64 // bitset over vertices
	arena   *Arena
}

const emptyKey = int64(-1)

// newHash creates a hash-layout table for n vertices. The initial
// capacity is small; the table grows as cells are inserted, so memory
// tracks the realized selectivity rather than n × NumSets. The key/value
// arrays and presence bitset come from an arena (nil falls back to plain
// allocation); Release and growth rehashes return slabs to it.
func newHash(n, numSets int, a *Arena) *HashTable {
	present := a.U64((n + 63) / 64)
	clear(present)
	h := &HashTable{
		numSets: numSets,
		present: present,
		arena:   a,
	}
	h.init(1024)
	return h
}

func (h *HashTable) init(capacity int) {
	h.keys = h.arena.I64(capacity)
	for i := range h.keys {
		h.keys[i] = emptyKey
	}
	h.vals = h.arena.F64(capacity) // never read before written at its key
	h.mask = int64(capacity - 1)
	h.count = 0
}

// mix spreads key bits into the table index (Fibonacci hashing).
func (h *HashTable) mix(key int64) int64 {
	return int64((uint64(key)*0x9e3779b97f4a7c15)>>17) & h.mask
}

// NumSets implements Table.
func (h *HashTable) NumSets() int { return h.numSets }

// Has implements Table.
func (h *HashTable) Has(v int32) bool {
	return h.present[v>>6]&(1<<(uint(v)&63)) != 0
}

func (h *HashTable) markPresent(v int32) {
	h.present[v>>6] |= 1 << (uint(v) & 63)
}

// Get implements Table.
func (h *HashTable) Get(v int32, ci int32) float64 {
	key := int64(v)*int64(h.numSets) + int64(ci)
	for i := h.mix(key); ; i = (i + 1) & h.mask {
		k := h.keys[i]
		if k == key {
			return h.vals[i]
		}
		if k == emptyKey {
			return 0
		}
	}
}

// Row implements Table; the hash layout has no materialized rows.
func (h *HashTable) Row(v int32) []float64 { return nil }

// AccumulateRows implements Table. The hash layout cannot expose a
// contiguous row, but it probes all of a present row's cells in one
// pass with the key base hoisted — one multiply per row instead of one
// per cell, and no interface dispatch per cell.
func (h *HashTable) AccumulateRows(vs []int32, dst []float64) {
	for _, v := range vs {
		if !h.Has(v) {
			continue
		}
		base := int64(v) * int64(h.numSets)
		for ci := 0; ci < h.numSets; ci++ {
			key := base + int64(ci)
			for i := h.mix(key); ; i = (i + 1) & h.mask {
				k := h.keys[i]
				if k == key {
					dst[ci] += h.vals[i]
					break
				}
				if k == emptyKey {
					break
				}
			}
		}
	}
}

func (h *HashTable) grow() {
	oldKeys, oldVals := h.keys, h.vals
	h.init(len(oldKeys) * 2)
	for i, k := range oldKeys {
		if k != emptyKey {
			h.put(k, oldVals[i])
		}
	}
	h.arena.PutI64(oldKeys)
	h.arena.PutF64(oldVals)
}

func (h *HashTable) put(key int64, val float64) {
	for i := h.mix(key); ; i = (i + 1) & h.mask {
		k := h.keys[i]
		if k == key {
			h.vals[i] = val
			return
		}
		if k == emptyKey {
			h.keys[i] = key
			h.vals[i] = val
			h.count++
			return
		}
	}
}

// Set implements Table. Zero stores for absent cells are skipped so the
// table only ever holds nonzero counts.
func (h *HashTable) Set(v int32, ci int32, val float64) {
	if val == 0 {
		// Only overwrite when the cell already exists.
		key := int64(v)*int64(h.numSets) + int64(ci)
		for i := h.mix(key); ; i = (i + 1) & h.mask {
			k := h.keys[i]
			if k == key {
				h.vals[i] = 0
				return
			}
			if k == emptyKey {
				return
			}
		}
	}
	if 10*(h.count+1) > 7*len(h.keys) {
		h.grow()
	}
	h.put(int64(v)*int64(h.numSets)+int64(ci), val)
	h.markPresent(v)
}

// StoreRow implements Table. For a vertex that already has cells the
// whole row is written (zeros clear stale cells); fresh vertices only
// insert their nonzero cells.
func (h *HashTable) StoreRow(v int32, row []float64) {
	overwrite := h.Has(v)
	for ci, x := range row {
		if x != 0 || overwrite {
			h.Set(v, int32(ci), x)
		}
	}
}

// SumRow implements Table.
func (h *HashTable) SumRow(v int32) float64 {
	if !h.Has(v) {
		return 0
	}
	var s float64
	for ci := 0; ci < h.numSets; ci++ {
		s += h.Get(v, int32(ci))
	}
	return s
}

// Bytes implements Table.
func (h *HashTable) Bytes() int64 {
	return int64(len(h.keys))*(8+float64Size) + int64(len(h.present))*8 + 3*sliceHeaderLen
}

// Rows implements Table: the number of vertices with at least one
// stored cell (a popcount over the presence bitset).
func (h *HashTable) Rows() int64 {
	var n int64
	for _, w := range h.present {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// Release implements Table, returning all slabs to the arena.
func (h *HashTable) Release() {
	h.arena.PutI64(h.keys)
	h.arena.PutF64(h.vals)
	h.arena.PutU64(h.present)
	h.keys = nil
	h.vals = nil
	h.present = nil
}

// ForEach calls fn for every stored cell with its raw key
// (vid·NumSets + colorIndex) and value, in unspecified order. The
// multi-lane wrapper uses it for per-lane totals without materializing
// rows.
func (h *HashTable) ForEach(fn func(key int64, val float64)) {
	for i, k := range h.keys {
		if k != emptyKey {
			fn(k, h.vals[i])
		}
	}
}

// Load returns the number of stored cells; exposed for tests and memory
// diagnostics.
func (h *HashTable) Load() int { return h.count }

// MergeFrom inserts every cell of src into h (overwriting duplicates) and
// ORs src's presence bits in. Both tables must have the same NumSets and
// vertex count for the keys and bitsets to correspond. The DP's
// inner-parallel mode uses this to combine per-worker staging tables
// after a pass barrier, which is what lets workers fill Hash-layout
// tables lock-free.
func (h *HashTable) MergeFrom(src *HashTable) {
	if src == nil || src.numSets != h.numSets {
		if src != nil {
			panic("table: MergeFrom across differing NumSets")
		}
		return
	}
	for i, k := range src.keys {
		if k == emptyKey {
			continue
		}
		if 10*(h.count+1) > 7*len(h.keys) {
			h.grow()
		}
		h.put(k, src.vals[i])
	}
	for i := range src.present {
		h.present[i] |= src.present[i]
	}
}
