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
)

func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Lazy:
		return "lazy"
	case Hash:
		return "hash"
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
	// AccumulateRows adds the row of every vertex in vs into dst (length
	// at least NumSets); absent rows add nothing. It is the aggregated
	// (SpMM-style) kernel's neighbor sum: one interface dispatch for a
	// whole adjacency list, then a tight concrete loop per layout.
	AccumulateRows(vs []int32, dst []float64)
	// SumRow returns the sum of v's row (zero when absent).
	SumRow(v int32) float64
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
// color-set slots per vertex, with backing slabs drawn from (and
// returned to) an arena; a nil arena degrades to plain allocation.
func New(kind Kind, n int, numSets int, a *Arena) Table {
	switch kind {
	case Naive:
		return newDense(n, numSets, a)
	case Lazy:
		return newSparse(n, numSets, a)
	case Hash:
		return newHash(n, numSets, a)
	default:
		panic(fmt.Sprintf("table: unknown kind %d", int(kind)))
	}
}

// Kinds lists all layouts, for cross-implementation tests and ablations.
var Kinds = []Kind{Naive, Lazy, Hash}

const (
	float64Size    = 8
	sliceHeaderLen = 24
)
