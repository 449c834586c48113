package table

// Dense is the paper's naive layout: a fully preallocated n × NumSets
// array. Rows exist for every vertex from the start, so Has is always
// true and no allocation happens during the DP.
type Dense struct {
	numSets int
	data    []float64 // n * numSets, row-major
	n       int
	arena   *Arena
}

// newDense allocates a dense table for n vertices, drawing the backing
// slab from an arena (nil falls back to plain allocation); Release
// returns the slab to it.
func newDense(n, numSets int, a *Arena) *Dense {
	data := a.F64(n * numSets)
	clear(data)
	return &Dense{
		numSets: numSets,
		n:       n,
		data:    data,
		arena:   a,
	}
}

// NumSets implements Table.
func (d *Dense) NumSets() int { return d.numSets }

// Has implements Table; dense rows always exist.
func (d *Dense) Has(v int32) bool { return d.data != nil }

// Get implements Table.
func (d *Dense) Get(v int32, ci int32) float64 {
	return d.data[int(v)*d.numSets+int(ci)]
}

// Row implements Table.
func (d *Dense) Row(v int32) []float64 {
	base := int(v) * d.numSets
	return d.data[base : base+d.numSets : base+d.numSets]
}

// Set implements Table.
func (d *Dense) Set(v int32, ci int32, val float64) {
	d.data[int(v)*d.numSets+int(ci)] = val
}

// StoreRow implements Table.
func (d *Dense) StoreRow(v int32, row []float64) {
	copy(d.Row(v), row)
}

// AccumulateRows implements Table via the 8-wide
// bounds-check-eliminated AddTo sweep (bulk8.go): lane-widened batched
// rows keep eight independent adds in flight per iteration.
func (d *Dense) AccumulateRows(vs []int32, dst []float64) {
	ns := d.numSets
	dst = dst[:ns]
	for _, v := range vs {
		base := int(v) * ns
		AddTo(dst, d.data[base:base+ns:base+ns])
	}
}

// SumRow implements Table.
func (d *Dense) SumRow(v int32) float64 {
	var s float64
	for _, x := range d.Row(v) {
		s += x
	}
	return s
}

// Rows implements Table: every vertex row is preallocated.
func (d *Dense) Rows() int64 {
	if d.data == nil {
		return 0
	}
	return int64(d.n)
}

// Bytes implements Table.
func (d *Dense) Bytes() int64 {
	return int64(len(d.data))*float64Size + sliceHeaderLen
}

// Release implements Table, returning the backing slab to the arena.
func (d *Dense) Release() {
	d.arena.PutF64(d.data)
	d.data = nil
}
