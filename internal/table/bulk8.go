package table

// The 8-wide bounds-check-eliminated add behind every neighbor-row sum:
// the layouts' AccumulateRows and the shard rank pass's ghost-row read
// (dp's rankTab). The DP's inner dimension is a lane-widened float64
// row (width NumSets × B), and the scalar Go backend retires about one
// bounds-checked add per cycle; the slice-to-array-pointer form below
// keeps eight independent adds in flight with no per-element bounds
// checks. This file must stay free of IsInBounds checks — `make
// check-bce` builds it with -gcflags=-d=ssa/check_bce and fails if any
// reappear.

// AddTo adds src into dst element-wise over min(len(dst), len(src)).
// //fascia:hotpath holds it to zero heap allocation — hotalloc checks
// the static rules, `make check-escape` checks the compiler's verdict.
//
//fascia:hotpath
func AddTo(dst, src []float64) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		d := (*[8]float64)(dst)
		s := (*[8]float64)(src)
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
		dst = dst[8:]
		src = src[8:]
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] += x
	}
}
