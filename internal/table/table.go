// Package table provides the dynamic-programming count table abstraction
// from the paper (§III-C): counts indexed by (subtemplate, vertex,
// color-set index), with the subtemplate dimension handled by the engine
// and this package supplying per-subtemplate (vertex × color set) storage
// in three interchangeable layouts:
//
//   - Dense ("naive"): every row preallocated regardless of need.
//   - Sparse ("improved"): rows allocated only for vertices that acquire a
//     nonzero count, enabling the cheap initialized-vertex checks that
//     skip work in the DP inner loops.
//   - Hash: a single open-addressed table keyed by vid·Nc + colorIndex,
//     which wins for high-selectivity templates where most (vertex,
//     color set) cells stay empty.
//
// All layouts report their exact heap footprint via Bytes(), which powers
// the paper's memory experiments (Figures 6 and 7).
package table

import "fmt"

// Kind selects a table layout.
type Kind int

const (
	// Naive preallocates all n × C(k,h) entries (the paper's baseline).
	Naive Kind = iota
	// Lazy allocates rows on first store (the paper's "improved" layout).
	Lazy
	// Hash stores only nonzero cells in an open-addressed hash table.
	Hash
	// Succinct stores compressed rows: zero-run skipping plus varint
	// packing of integer counts (raw IEEE-754 fallback keeps the codec
	// lossless), the Motivo-style layout for memory-bound graphs.
	Succinct
)

func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Lazy:
		return "lazy"
	case Hash:
		return "hash"
	case Succinct:
		return "succinct"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Table stores counts for one subtemplate: a float64 per (vertex,
// color-set index) pair. Implementations are not safe for concurrent
// writers to the same vertex, but concurrent access to distinct vertices
// is safe for Dense and Sparse (the inner-loop parallel mode shards
// vertices); the Hash layout requires external chunk merging and is used
// only in sequential and outer-parallel modes.
type Table interface {
	// NumSets returns the number of color-set slots per vertex.
	NumSets() int
	// Has reports whether vertex v has any stored (possibly zero) row.
	// The DP uses it to skip uninitialized vertices cheaply.
	Has(v int32) bool
	// Get returns the count for (v, ci), zero when absent.
	Get(v int32, ci int32) float64
	// Row returns direct row storage for v, or nil when the layout cannot
	// expose one (Hash) or the row is absent. Callers must not retain it.
	Row(v int32) []float64
	// Set stores a single cell, materializing the row as needed.
	Set(v int32, ci int32, val float64)
	// StoreRow copies row (length NumSets) into v's storage. Layouts that
	// track presence may skip an all-zero row for an absent vertex.
	StoreRow(v int32, row []float64)
	// SumRow returns the sum of v's row (zero when absent).
	SumRow(v int32) float64
	// Total returns the sum of all cells.
	Total() float64
	// Bytes returns the current heap footprint of the table's storage.
	Bytes() int64
	// Rows returns the number of materialized vertex rows: every vertex
	// for the dense layout, allocated rows for the sparse layout, and
	// vertices with at least one stored cell for the hash layout. It
	// powers the run-stats row-traffic accounting.
	Rows() int64
	// Release drops all storage; the table must not be used afterwards.
	Release()
}

// New creates a table of the given layout for n vertices and numSets
// color-set slots per vertex.
func New(kind Kind, n int, numSets int) Table {
	return NewInArena(kind, n, numSets, nil)
}

// NewInArena is New with backing slabs drawn from (and returned to) an
// arena; a nil arena degrades to plain allocation.
func NewInArena(kind Kind, n int, numSets int, a *Arena) Table {
	switch kind {
	case Naive:
		return NewDenseArena(n, numSets, a)
	case Lazy:
		return NewSparseArena(n, numSets, a)
	case Hash:
		return NewHashArena(n, numSets, a)
	case Succinct:
		return NewSuccinctArena(n, numSets, a)
	default:
		panic(fmt.Sprintf("table: unknown kind %d", int(kind)))
	}
}

// Kinds lists all layouts, for cross-implementation tests and ablations.
var Kinds = []Kind{Naive, Lazy, Hash, Succinct}

// BytesPerCellEstimate returns the layout's expected storage cost per
// (vertex, color-set) cell, the figure the dp batch planner sizes B
// with. Dense-backed layouts (and hash, whose occupancy
// cannot be assumed small a priori) cost a full float64 per cell; the
// succinct layout's zero-run skipping and varint packing average a few
// bytes per cell on the integer-valued, mostly-zero DP tables, so the
// same memory budget admits wider lane batches.
func (k Kind) BytesPerCellEstimate() float64 {
	if k == Succinct {
		return succinctCellEstimateBytes
	}
	return float64Size
}

// RowDecoder is an optional fast path for layouts without flat rows:
// DecodeRowInto zero-fills dst[:NumSets] and decodes vertex v's row
// into it in one sequential pass, reporting presence. Callers fall
// back to per-cell Get when a layout (hash) does not implement it.
type RowDecoder interface {
	DecodeRowInto(v int32, dst []float64) bool
}

// RowAccumulator is an optional fast path for neighbor aggregation:
// AccumulateRow adds vertex v's row into dst (len >= NumSets), doing
// nothing when the row is absent. All built-in layouts implement it; the
// DP's aggregated (SpMM-style) kernel uses it to sum neighbor passive
// rows into a dense scratch buffer without a per-cell interface call.
type RowAccumulator interface {
	AccumulateRow(v int32, dst []float64)
}

// AccumulateRowInto adds v's row into dst using the RowAccumulator fast
// path when available, falling back to Row and finally per-cell Get.
func AccumulateRowInto(tab Table, v int32, dst []float64) {
	if acc, ok := tab.(RowAccumulator); ok {
		acc.AccumulateRow(v, dst)
		return
	}
	if row := tab.Row(v); row != nil {
		for i, x := range row {
			dst[i] += x
		}
		return
	}
	for ci := 0; ci < tab.NumSets(); ci++ {
		dst[ci] += tab.Get(v, int32(ci))
	}
}

// BulkAccumulator is the batched form of RowAccumulator: it adds the rows
// of every vertex in vs into dst with one interface dispatch for the
// whole adjacency list. The aggregated DP kernel is bound by per-neighbor
// call overhead on wide-degree vertices, so built-in layouts implement
// this with a tight concrete loop.
type BulkAccumulator interface {
	AccumulateRows(vs []int32, dst []float64)
}

// AccumulateRowsInto adds the rows of all vs into dst via the
// BulkAccumulator fast path when available.
func AccumulateRowsInto(tab Table, vs []int32, dst []float64) {
	if acc, ok := tab.(BulkAccumulator); ok {
		acc.AccumulateRows(vs, dst)
		return
	}
	for _, v := range vs {
		AccumulateRowInto(tab, v, dst)
	}
}

const (
	float64Size    = 8
	sliceHeaderLen = 24
)
