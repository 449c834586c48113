package graph

import (
	"math/bits"
	"sort"
)

// Ordering is a vertex relabeling produced by DegreeBucketOrdering. It
// maps between the original vertex ids of the input graph and the new
// ids of the relabeled (execution) graph.
type Ordering struct {
	// Perm maps original id -> new id.
	Perm []int32
	// Orig maps new id -> original id (the inverse of Perm).
	Orig []int32
	// Buckets holds the start offsets (in new-id space) of the degree
	// buckets, highest-degree bucket first, with a final sentinel equal
	// to N. Bucket b spans new ids [Buckets[b], Buckets[b+1]); empty
	// buckets collapse to zero-width spans.
	Buckets []int32
}

// DegreeBucketOrdering builds a deterministic degree-bucketed vertex
// ordering: vertices are stably partitioned into logarithmic degree
// buckets (bucket id = bits.Len(degree)), highest bucket first,
// preserving ascending original-id order within each bucket. High-degree
// vertices — whose table rows every neighbor's vertex pass reads, so
// they are read most often — end up contiguous at the front of the id
// space, where their rows pack into the fewest cache lines and pages.
//
// The construction is a counting sort: O(N) time, no comparisons, and
// fully determined by the degree sequence, so repeated runs (and runs on
// different worker counts) produce the identical permutation.
func DegreeBucketOrdering(g *Graph) *Ordering {
	n := g.N()
	maxBucket := 0
	for v := 0; v < n; v++ {
		if b := bits.Len(uint(g.Degree(int32(v)))); b > maxBucket {
			maxBucket = b
		}
	}
	nb := maxBucket + 1
	counts := make([]int32, nb+1)
	for v := 0; v < n; v++ {
		// Highest bucket first: flip the bucket id.
		b := maxBucket - bits.Len(uint(g.Degree(int32(v))))
		counts[b+1]++
	}
	for b := 0; b < nb; b++ {
		counts[b+1] += counts[b]
	}
	ord := &Ordering{
		Perm:    make([]int32, n),
		Orig:    make([]int32, n),
		Buckets: make([]int32, nb+1),
	}
	copy(ord.Buckets, counts)
	next := counts[:nb]
	for v := 0; v < n; v++ {
		b := maxBucket - bits.Len(uint(g.Degree(int32(v))))
		nv := next[b]
		next[b]++
		ord.Perm[v] = nv
		ord.Orig[nv] = int32(v)
	}
	return ord
}

// Relabel builds a new graph with vertex ids permuted by ord: new vertex
// Perm[v] carries original vertex v's adjacency (neighbor ids mapped
// through Perm and re-sorted to keep the CSR invariant) and label. The
// input graph is not modified.
func (g *Graph) Relabel(ord *Ordering) *Graph {
	n := g.N()
	ng := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]int32, g.offsets[n]),
	}
	for nv := 0; nv < n; nv++ {
		ng.offsets[nv+1] = ng.offsets[nv] + int64(g.Degree(ord.Orig[nv]))
	}
	for nv := 0; nv < n; nv++ {
		row := ng.adj[ng.offsets[nv]:ng.offsets[nv+1]]
		for i, u := range g.Adj(ord.Orig[nv]) {
			row[i] = ord.Perm[u]
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	if g.Labels != nil {
		ng.Labels = make([]int32, n)
		for nv := 0; nv < n; nv++ {
			ng.Labels[nv] = g.Labels[ord.Orig[nv]]
		}
	}
	return ng
}
