// Package comb implements the combinatorial number system used by FASCIA
// to index color sets, along with binomial tables, combination
// enumeration, and precomputed split tables for the dynamic program.
//
// A color set {c1 < c2 < ... < ch} drawn from {0, ..., k-1} is represented
// by the single integer
//
//	I = C(c1,1) + C(c2,2) + ... + C(ch,h)
//
// which is exactly its rank in colexicographic order. Enumerating
// combinations in colex order therefore visits indices 0, 1, 2, ...
// sequentially, so the dynamic-programming tables can be plain arrays
// indexed by I.
package comb

import "fmt"

// MaxColors is the largest number of colors supported by the precomputed
// binomial table. The paper evaluates templates up to 12 vertices; we
// leave generous headroom. Binomials up to C(64, 32) overflow int64, but
// color coding only ever needs C(k, h) with k <= MaxColors, all of which
// fit comfortably.
const MaxColors = 32

// MaxRowCells caps the width of one DP table row: a template and color
// count whose rows could hold more cells are refused before anything is
// allocated. 2^20 cells is 8 MiB per dense row, far above the paper's
// templates (C(12, 6) = 924 cells) yet low enough that the per-worker
// scratch rows, which are as wide as the widest table row, stay small.
const MaxRowCells = 1 << 20

// MaxIndexBytes caps the summed size of the split and singleton index
// tables one engine builds (SplitTableBytes, SingletonBytes): a template
// and color count whose partition tree needs more are refused before any
// table is built. The paper's templates need well under 1 MiB at their
// own color counts, while 12-vertex trees at 22 colors need 0.5 GB or
// more. It also keeps automorphism counts exact: the one tree that
// passes MaxRowCells with more automorphisms than an int64 holds, the
// 22-vertex star at 22 colors, needs 369 MB of split tables alone.
const MaxIndexBytes = 128 << 20

// binomial[n][r] = C(n, r) for 0 <= n <= MaxColors, 0 <= r <= n.
var binomial [MaxColors + 1][MaxColors + 1]int64

func init() {
	for n := 0; n <= MaxColors; n++ {
		binomial[n][0] = 1
		for r := 1; r <= n; r++ {
			binomial[n][r] = binomial[n-1][r-1] + binomial[n-1][r]
		}
	}
}

// Binomial returns C(n, r). It returns 0 when r < 0 or r > n, matching the
// combinatorial convention. It panics if n is negative or exceeds
// MaxColors.
func Binomial(n, r int) int64 {
	if n < 0 || n > MaxColors {
		panic(fmt.Sprintf("comb: Binomial(%d, %d) out of supported range [0, %d]", n, r, MaxColors))
	}
	if r < 0 || r > n {
		return 0
	}
	return binomial[n][r]
}

// Rank returns the colexicographic rank of the combination set, which must
// hold strictly increasing values in [0, MaxColors). This is the
// combinatorial-number-system index used throughout the DP tables.
func Rank(set []int) int64 {
	var idx int64
	prev := -1
	for i, c := range set {
		if c <= prev || c < 0 || c >= MaxColors {
			panic(fmt.Sprintf("comb: Rank input %v is not a strictly increasing combination", set))
		}
		idx += Binomial(c, i+1)
		prev = c
	}
	return idx
}

// Unrank writes the combination of size h with colexicographic rank idx
// into dst (which must have length h) and returns dst. It is the inverse
// of Rank.
func Unrank(idx int64, h int, dst []int) []int {
	if len(dst) != h {
		panic(fmt.Sprintf("comb: Unrank dst length %d != h %d", len(dst), h))
	}
	for i := h; i >= 1; i-- {
		// Largest c with C(c, i) <= idx.
		c := i - 1
		for Binomial(c+1, i) <= idx {
			c++
		}
		dst[i-1] = c
		idx -= Binomial(c, i)
	}
	return dst
}

// First initializes dst (length h) to the colex-first combination
// {0, 1, ..., h-1}.
func First(dst []int) {
	for i := range dst {
		dst[i] = i
	}
}

// Next advances set to the next combination of values drawn from
// {0, ..., k-1} in colexicographic order. It reports false when set was
// the last combination, leaving set unchanged in that case.
func Next(set []int, k int) bool {
	h := len(set)
	for i := 0; i < h; i++ {
		// The largest value position i may take while leaving room for
		// positions below it is bounded by the next element (or k).
		var limit int
		if i == h-1 {
			limit = k - 1
		} else {
			limit = set[i+1] - 1
		}
		if set[i] < limit {
			set[i]++
			for j := 0; j < i; j++ {
				set[j] = j
			}
			return true
		}
	}
	return false
}

// Combinations returns all combinations of size h drawn from {0,...,k-1}
// in colexicographic order. The s-th returned slice has Rank s.
func Combinations(k, h int) [][]int {
	n := Binomial(k, h)
	out := make([][]int, 0, n)
	cur := make([]int, h)
	First(cur)
	for {
		c := make([]int, h)
		copy(c, cur)
		out = append(out, c)
		if !Next(cur, k) {
			break
		}
	}
	return out
}
