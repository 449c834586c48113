package dp

// laneMulAdd is the lane kernels' innermost contraction step:
// out[l] += a[l] · p[l] over min(len(out), len(a), len(p)) lanes.
// Like table's bulk8.go it is written in the 8-wide slice-to-array-
// pointer form so the loop body carries no per-element bounds checks
// (eight independent FMAs in flight instead of one checked multiply-add
// per cycle). This file must stay free of IsInBounds checks — `make
// check-bce` builds it with -gcflags=-d=ssa/check_bce and fails if any
// reappear. The //fascia:hotpath annotation holds it to zero heap
// allocation: fasciavet's hotalloc rules statically, and `make
// check-escape` against the compiler's -m escape diagnostics.
//
//fascia:hotpath
func laneMulAdd(out, a, p []float64) {
	if len(a) > len(out) {
		a = a[:len(out)]
	}
	if len(p) > len(a) {
		p = p[:len(a)]
	}
	for len(a) >= 8 && len(p) >= 8 && len(out) >= 8 {
		o := (*[8]float64)(out)
		x := (*[8]float64)(a)
		y := (*[8]float64)(p)
		o[0] += x[0] * y[0]
		o[1] += x[1] * y[1]
		o[2] += x[2] * y[2]
		o[3] += x[3] * y[3]
		o[4] += x[4] * y[4]
		o[5] += x[5] * y[5]
		o[6] += x[6] * y[6]
		o[7] += x[7] * y[7]
		out = out[8:]
		a = a[8:]
		p = p[8:]
	}
	out = out[:len(p)]
	a = a[:len(p)]
	for i, y := range p {
		out[i] += a[i] * y
	}
}

// laneAdd is the neighbor-aggregation step of the ghost-row read
// surface (rankTab.AccumulateRows): out[l] += p[l] over
// min(len(out), len(p)) lanes, in the same 8-wide bounds-check-free
// form as laneMulAdd.
//
//fascia:hotpath
func laneAdd(out, p []float64) {
	if len(p) > len(out) {
		p = p[:len(out)]
	}
	for len(p) >= 8 && len(out) >= 8 {
		o := (*[8]float64)(out)
		y := (*[8]float64)(p)
		o[0] += y[0]
		o[1] += y[1]
		o[2] += y[2]
		o[3] += y[3]
		o[4] += y[4]
		o[5] += y[5]
		o[6] += y[6]
		o[7] += y[7]
		out = out[8:]
		p = p[8:]
	}
	out = out[:len(p)]
	for i, y := range p {
		out[i] += y
	}
}
