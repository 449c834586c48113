package table

import (
	"sync"
	"sync/atomic"
)

// Arena is a cross-iteration slab recycler for table backing storage.
//
// Every color-coding iteration allocates the same set of table slabs
// (dense data arrays, sparse arena blocks and index vectors, hash
// key/value arrays) and releases them at iteration end, so after one
// warm-up iteration the allocator sees pure churn. An Arena breaks that
// churn: Release hands slabs back to per-length free lists and the next
// iteration's constructors take them from there, making steady-state
// iterations slab-allocation-free (asserted by the dp package's
// allocation tests and visible as RunStats arena hit/miss counters).
//
// Slabs are keyed by exact length — the DP's node widths recur exactly
// across iterations, so after warm-up every Get hits. Returned slabs are
// NOT zeroed; each constructor re-initializes what it needs (dense
// clears, sparse fills its index with -1 and clears blocks on first use,
// hash rewrites keys). An Arena is safe for concurrent use; outer-mode
// iterations share the engine's arena.
//
// The zero value is ready to use. A nil *Arena is also valid everywhere
// and degrades to plain make() allocation.
type Arena struct {
	mu  sync.Mutex
	f64 map[int][][]float64
	i64 map[int][][]int64
	i32 map[int][][]int32
	i8  map[int][][]int8
	u64 map[int][][]uint64

	hits   atomic.Int64
	misses atomic.Int64

	// spill is the optional file-backed slab source installed by
	// SetSpill; nil means every miss allocates on the Go heap.
	spill *spillRegion
	// spillMin is the smallest slab (in bytes) routed to the spill
	// region; tiny slabs stay on the heap where they are cheap.
	spillMin int64
}

// arenaMaxPerClass bounds retained slabs per (type, length) class so a
// transient burst of concurrent iterations (outer mode) cannot pin its
// high-water mark forever.
const arenaMaxPerClass = 32

// Stats returns cumulative slab reuse counters: hits (slabs served from
// a free list) and misses (slabs freshly allocated). Put-backs are not
// counted.
func (a *Arena) Stats() (hits, misses int64) {
	if a == nil {
		return 0, 0
	}
	return a.hits.Load(), a.misses.Load()
}

// getSlab is the generic free-list pop. Go's type parameters keep the
// five typed pools from quintuplicating the logic.
func getSlab[T any](a *Arena, pool map[int][][]T, n int) ([]T, bool) {
	l := pool[n]
	if len(l) == 0 {
		return nil, false
	}
	s := l[len(l)-1]
	pool[n] = l[:len(l)-1]
	return s, true
}

func putSlab[T any](pool map[int][][]T, s []T) map[int][][]T {
	if pool == nil {
		pool = map[int][][]T{}
	}
	if len(pool[len(s)]) < arenaMaxPerClass {
		pool[len(s)] = append(pool[len(s)], s)
	}
	return pool
}

// SetSpill installs a file-backed spill source for large slabs: once
// set, slab allocations of at least min bytes are served from mmapped
// unlinked temp files instead of the Go heap, and returned slabs have
// their pages advised away (MADV_DONTNEED), so the table working set
// above the threshold is reclaimable by the kernel under memory
// pressure rather than pinned in RSS. On platforms without mmap
// support (or when the temp dir is unwritable) spill allocation
// degrades silently to the heap. min <= 0 picks a default.
func (a *Arena) SetSpill(min int64) {
	if a == nil {
		return
	}
	if min <= 0 {
		min = defaultSpillMin
	}
	a.mu.Lock()
	if a.spill == nil {
		a.spill = newSpillRegion()
	}
	a.spillMin = min
	a.mu.Unlock()
}

// SpillStats returns the number of live spill-backed slabs and their
// total mapped bytes (zero when spill is not enabled).
func (a *Arena) SpillStats() (slabs int, bytes int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	sp := a.spill
	a.mu.Unlock()
	if sp == nil {
		return 0, 0
	}
	return sp.stats()
}

// spillFor returns the spill region when a fresh slab of nbytes should
// be file-backed rather than heap-allocated.
func (a *Arena) spillFor(nbytes int64) *spillRegion {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	sp := a.spill
	min := a.spillMin
	a.mu.Unlock()
	if sp == nil || nbytes < min {
		return nil
	}
	return sp
}

// F64 returns a float64 slab of length n (contents unspecified).
func (a *Arena) F64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	a.mu.Lock()
	s, ok := getSlab(a, a.f64, n)
	a.mu.Unlock()
	if ok {
		a.hits.Add(1)
		return s
	}
	a.misses.Add(1)
	if sp := a.spillFor(int64(n) * 8); sp != nil {
		if b := sp.alloc(int64(n) * 8); b != nil {
			return bytesToF64(b, n)
		}
	}
	return make([]float64, n)
}

// PutF64 returns a slab to the arena. Nil arenas and nil slabs are no-ops.
func (a *Arena) PutF64(s []float64) {
	if a == nil || s == nil {
		return
	}
	spillOwned := a.adviseIfSpill(f64Ptr(s), int64(len(s))*8)
	a.mu.Lock()
	a.f64 = putSlabMaybeUncapped(a.f64, s, spillOwned)
	a.mu.Unlock()
}

// adviseIfSpill reports whether the slab at ptr is spill-backed, and if
// so releases its resident pages.
func (a *Arena) adviseIfSpill(ptr uintptr, nbytes int64) bool {
	a.mu.Lock()
	sp := a.spill
	a.mu.Unlock()
	if sp == nil {
		return false
	}
	return sp.release(ptr, nbytes)
}

// putSlabMaybeUncapped is putSlab, but spill-backed slabs are always
// retained: dropping one would leak its file mapping, and their page
// cost is already released.
func putSlabMaybeUncapped[T any](pool map[int][][]T, s []T, uncapped bool) map[int][][]T {
	if !uncapped {
		return putSlab(pool, s)
	}
	if pool == nil {
		pool = map[int][][]T{}
	}
	pool[len(s)] = append(pool[len(s)], s)
	return pool
}

// I64 returns an int64 slab of length n (contents unspecified).
func (a *Arena) I64(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	a.mu.Lock()
	s, ok := getSlab(a, a.i64, n)
	a.mu.Unlock()
	if ok {
		a.hits.Add(1)
		return s
	}
	a.misses.Add(1)
	if sp := a.spillFor(int64(n) * 8); sp != nil {
		if b := sp.alloc(int64(n) * 8); b != nil {
			return bytesToI64(b, n)
		}
	}
	return make([]int64, n)
}

// PutI64 returns a slab to the arena.
func (a *Arena) PutI64(s []int64) {
	if a == nil || s == nil {
		return
	}
	spillOwned := a.adviseIfSpill(i64Ptr(s), int64(len(s))*8)
	a.mu.Lock()
	a.i64 = putSlabMaybeUncapped(a.i64, s, spillOwned)
	a.mu.Unlock()
}

// I32 returns an int32 slab of length n (contents unspecified).
func (a *Arena) I32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	a.mu.Lock()
	s, ok := getSlab(a, a.i32, n)
	a.mu.Unlock()
	if ok {
		a.hits.Add(1)
		return s
	}
	a.misses.Add(1)
	if sp := a.spillFor(int64(n) * 4); sp != nil {
		if b := sp.alloc(int64(n) * 4); b != nil {
			return bytesToI32(b, n)
		}
	}
	return make([]int32, n)
}

// PutI32 returns a slab to the arena.
func (a *Arena) PutI32(s []int32) {
	if a == nil || s == nil {
		return
	}
	spillOwned := a.adviseIfSpill(i32Ptr(s), int64(len(s))*4)
	a.mu.Lock()
	a.i32 = putSlabMaybeUncapped(a.i32, s, spillOwned)
	a.mu.Unlock()
}

// I8 returns an int8 slab of length n (contents unspecified). The dp
// engine recycles per-iteration color vectors through this pool.
func (a *Arena) I8(n int) []int8 {
	if a == nil {
		return make([]int8, n)
	}
	a.mu.Lock()
	s, ok := getSlab(a, a.i8, n)
	a.mu.Unlock()
	if ok {
		a.hits.Add(1)
		return s
	}
	a.misses.Add(1)
	return make([]int8, n)
}

// PutI8 returns a slab to the arena.
func (a *Arena) PutI8(s []int8) {
	if a == nil || s == nil {
		return
	}
	a.mu.Lock()
	a.i8 = putSlab(a.i8, s)
	a.mu.Unlock()
}

// U64 returns a uint64 slab of length n (contents unspecified); the hash
// layout's presence bitsets live here.
func (a *Arena) U64(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	a.mu.Lock()
	s, ok := getSlab(a, a.u64, n)
	a.mu.Unlock()
	if ok {
		a.hits.Add(1)
		return s
	}
	a.misses.Add(1)
	return make([]uint64, n)
}

// PutU64 returns a slab to the arena.
func (a *Arena) PutU64(s []uint64) {
	if a == nil || s == nil {
		return
	}
	a.mu.Lock()
	a.u64 = putSlab(a.u64, s)
	a.mu.Unlock()
}
