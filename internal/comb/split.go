package comb

import "fmt"

// SplitTable precomputes, for every color set C of size h drawn from k
// colors, all ways of splitting C into an active part of size aN and a
// passive part of size pN = h - aN, as pairs of combinatorial indices.
// This replaces explicit color-set manipulation in the innermost loops of
// the dynamic program with sequential array lookups, exactly as described
// in the paper's "Combinatorial Indexing System" section.
type SplitTable struct {
	K, H, AN, PN int

	// NumSets = C(K, H): the number of color sets (rows).
	NumSets int
	// SplitsPerSet = C(H, AN): the number of splits of each set.
	SplitsPerSet int

	// For set index I, the splits occupy ActiveIdx/PassiveIdx positions
	// [I*SplitsPerSet, (I+1)*SplitsPerSet).
	ActiveIdx  []int32
	PassiveIdx []int32
}

// NewSplitTable builds the split table for subtemplate size h with active
// child size aN, using k colors. It panics on invalid sizes; callers
// construct these from validated partition trees.
func NewSplitTable(k, h, aN int) *SplitTable {
	if h < 2 || h > k || aN < 1 || aN >= h {
		panic(fmt.Sprintf("comb: invalid split table sizes k=%d h=%d aN=%d", k, h, aN))
	}
	pN := h - aN
	nSets := int(Binomial(k, h))
	nSplits := int(Binomial(h, aN))
	st := &SplitTable{
		K: k, H: h, AN: aN, PN: pN,
		NumSets:      nSets,
		SplitsPerSet: nSplits,
		ActiveIdx:    make([]int32, nSets*nSplits),
		PassiveIdx:   make([]int32, nSets*nSplits),
	}

	set := make([]int, h)
	First(set)
	chooser := make([]int, aN)
	active := make([]int, aN)
	passive := make([]int, pN)
	for i := 0; ; i++ {
		// Enumerate all ways to pick the aN positions of set that form
		// the active part.
		First(chooser)
		base := i * nSplits
		for s := 0; ; s++ {
			ai, pi := 0, 0
			for pos := 0; pos < h; pos++ {
				if ai < aN && chooser[ai] == pos {
					active[ai] = set[pos]
					ai++
				} else {
					passive[pi] = set[pos]
					pi++
				}
			}
			st.ActiveIdx[base+s] = int32(Rank(active))
			st.PassiveIdx[base+s] = int32(Rank(passive))
			if !Next(chooser, h) {
				break
			}
		}
		if !Next(set, k) {
			break
		}
	}
	return st
}

// SplitTableBytes returns the bytes of NewSplitTable(k, h, aN)'s two
// index arrays: C(k, h)·C(h, aN) int32 pairs.
func SplitTableBytes(k, h, aN int) int64 {
	return 8 * Binomial(k, h) * Binomial(h, aN)
}

// SingletonEntry links a size-h color set that contains a distinguished
// color c to the index of the size-(h-1) set with c removed. SetIdx is the
// rank of the full set among C(k,h) sets; RestIdx is the rank of the
// remainder among C(k,h-1) sets.
type SingletonEntry struct {
	SetIdx  int32
	RestIdx int32
}

// SingletonSplits precomputes, for each color c in [0,k), the list of
// size-h color sets containing c together with the index of the set minus
// {c}. This powers the paper's single-vertex-child specializations: when
// the active (resp. passive) child is a single template vertex, only color
// sets containing color(v) (resp. color(u)) can contribute, cutting the
// inner loop by a factor of (k-1)/k ... 1/k depending on h.
//
// Each color's list is sorted by SetIdx ascending (a consequence of colex
// enumeration), which keeps table accesses sequential.
func SingletonSplits(k, h int) [][]SingletonEntry {
	if h < 2 || h > k {
		panic(fmt.Sprintf("comb: invalid singleton split sizes k=%d h=%d", k, h))
	}
	perColor := int(Binomial(k-1, h-1))
	out := make([][]SingletonEntry, k)
	for c := range out {
		out[c] = make([]SingletonEntry, 0, perColor)
	}
	set := make([]int, h)
	First(set)
	rest := make([]int, h-1)
	for i := 0; ; i++ {
		for pos, c := range set {
			copy(rest[:pos], set[:pos])
			copy(rest[pos:], set[pos+1:])
			out[c] = append(out[c], SingletonEntry{SetIdx: int32(i), RestIdx: int32(Rank(rest))})
		}
		if !Next(set, k) {
			break
		}
	}
	return out
}

// SingletonBytes returns the bytes of SingletonSplits(k, h)'s entries:
// each of the C(k, h) sets appears once per member color, as an 8-byte
// entry.
func SingletonBytes(k, h int) int64 {
	return 8 * int64(h) * Binomial(k, h)
}

// PairIndex returns the rank of the two-element set {a, b} (a != b) among
// C(k,2) sets. Used by the size-2 subtemplate fast path where both
// children are single vertices.
func PairIndex(a, b int) int32 {
	if a == b {
		panic("comb: PairIndex requires distinct colors")
	}
	if a > b {
		a, b = b, a
	}
	return int32(int64(a) + Binomial(b, 2))
}
