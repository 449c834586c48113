package table

// Multi is the lane-strided multi-coloring table behind every dp
// partition-tree traversal: one underlying Table stores the cells of L
// concurrent color-coding iterations ("lanes"), with the logical cell
// (v, ci, lane) living at flat column ci·L + lane of a width NumSets·L
// row. Lane blocks are contiguous, so the lane kernels' innermost
// loops are flat float64 FMA sweeps over the lane dimension, and one
// graph traversal serves all L lanes.
//
// Presence (Has) is the union over lanes: a row materializes when ANY
// lane stores a nonzero there. Absent lanes of a present row read as the
// zeros they are, so per-lane results are unaffected — counts are
// integer-valued float64s and every summation order is exact (up to
// 2^53), which is what makes runs bit-identical at every lane count.
type Multi struct {
	tab     Table
	numSets int
	lanes   int
	n       int
}

// NewMulti creates a lane-strided table of the given layout for n
// vertices, numSets color sets, and lanes concurrent colorings, drawing
// slabs from the arena (nil = plain allocation).
func NewMulti(kind Kind, n, numSets, lanes int, a *Arena) *Multi {
	return &Multi{
		tab:     NewInArena(kind, n, numSets*lanes, a),
		numSets: numSets,
		lanes:   lanes,
		n:       n,
	}
}

// NumSets returns the per-lane color-set count.
func (m *Multi) NumSets() int { return m.numSets }

// Lanes returns the number of concurrent colorings stored.
func (m *Multi) Lanes() int { return m.lanes }

// Width returns the flat row width NumSets·Lanes.
func (m *Multi) Width() int { return m.numSets * m.lanes }

// Has reports whether any lane has stored a row for v.
func (m *Multi) Has(v int32) bool { return m.tab.Has(v) }

// LaneRow returns v's flat lane-strided row (length Width), or nil when
// the layout cannot expose one (hash) or no lane has touched v.
func (m *Multi) LaneRow(v int32) []float64 { return m.tab.Row(v) }

// Get returns the cell (v, ci) of one lane, zero when absent.
func (m *Multi) Get(v, ci int32, lane int) float64 {
	return m.tab.Get(v, ci*int32(m.lanes)+int32(lane))
}

// Set stores the cell (v, ci) of one lane.
func (m *Multi) Set(v, ci int32, lane int, val float64) {
	m.tab.Set(v, ci*int32(m.lanes)+int32(lane), val)
}

// StoreRow copies a flat lane-strided row (length Width) into v's
// storage; layouts that track presence skip all-zero rows.
func (m *Multi) StoreRow(v int32, row []float64) {
	m.tab.StoreRow(v, row)
}

// MaterializeRow returns v's flat row directly when the layout has one,
// otherwise decodes it in one pass (succinct layout, via RowDecoder) or
// copies it cell-by-cell into dst (hash layout; absent cells read
// zero). dst must have capacity Width.
func (m *Multi) MaterializeRow(v int32, dst []float64) []float64 {
	if row := m.tab.Row(v); row != nil {
		return row
	}
	w := m.Width()
	dst = dst[:w]
	if rd, ok := m.tab.(RowDecoder); ok {
		if !rd.DecodeRowInto(v, dst) {
			clear(dst)
		}
		return dst
	}
	for ci := 0; ci < w; ci++ {
		dst[ci] = m.tab.Get(v, int32(ci))
	}
	return dst
}

// AccumulateRows adds the flat lane rows of every vertex in vs into dst
// (length Width) — the lane-widened SpMM-style neighbor aggregation: one
// interface dispatch and one sequential sweep per neighbor, amortized
// over all lanes.
func (m *Multi) AccumulateRows(vs []int32, dst []float64) {
	AccumulateRowsInto(m.tab, vs, dst)
}

// GatherColors folds, for each vertex u in vs and each lane j, the cell
// (u, colors[u·L+j], j) into dst[colors[u·L+j]·L+j]; colors is the
// lane-strided per-vertex coloring and dst has length k·L. It is the
// lane-widened single-vertex-child per-color gather.
func (m *Multi) GatherColors(vs []int32, colors []int8, dst []float64) {
	L := m.lanes
	sc, isSuccinct := m.tab.(*SuccinctTable)
	for _, u := range vs {
		if row := m.tab.Row(u); row != nil {
			base := int(u) * L
			for j := 0; j < L; j++ {
				o := int(colors[base+j])*L + j
				dst[o] += row[o]
			}
		} else if isSuccinct { // succinct: one decode visits every lane
			base := int(u) * L
			sc.ForEachInRow(u, func(ci int32, val float64) {
				j := int(ci) % L
				if int(colors[base+j]) == int(ci)/L {
					dst[ci] += val
				}
			})
		} else if m.tab.Has(u) { // hash layout: probe per lane
			base := int(u) * L
			for j := 0; j < L; j++ {
				ci := int32(colors[base+j])
				dst[int(ci)*L+j] += m.Get(u, ci, j)
			}
		}
	}
}

// SumRow returns the sum of v's flat row over every lane and color set
// (zero when absent) — at one lane, v's row sum.
func (m *Multi) SumRow(v int32) float64 { return m.tab.SumRow(v) }

// Totals accumulates the per-lane sum of all cells into dst (length
// Lanes) — one colorful-mapping total per concurrent coloring.
func (m *Multi) Totals(dst []float64) {
	L := m.lanes
	// Hash and succinct layouts walk their stored cells directly; the
	// flat key is v·Width + ci·L + lane, so key mod L is the lane.
	// Counts are integer-valued float64s, so visiting only nonzero
	// cells (in either walk order) sums bit-identically to the dense
	// row sweep below.
	if fe, ok := m.tab.(interface{ ForEach(func(int64, float64)) }); ok {
		fe.ForEach(func(key int64, val float64) {
			dst[int(key)%L] += val
		})
		return
	}
	w := m.Width()
	for v := int32(0); v < int32(m.n); v++ {
		row := m.tab.Row(v)
		if row == nil {
			continue
		}
		for i := 0; i < w; i++ {
			dst[i%L] += row[i]
		}
	}
}

// MergeFrom merges a hash-layout staging Multi into this one (the
// lock-free inner-parallel staging path); both must be hash-layout with
// identical shape.
func (m *Multi) MergeFrom(src *Multi) {
	dst, ok1 := m.tab.(*HashTable)
	s, ok2 := src.tab.(*HashTable)
	if !ok1 || !ok2 {
		panic("table: Multi.MergeFrom requires hash layouts")
	}
	dst.MergeFrom(s)
}

// IsHash reports whether the underlying layout is the hash table (which
// needs staging for concurrent writers).
func (m *Multi) IsHash() bool {
	_, ok := m.tab.(*HashTable)
	return ok
}

// Bytes returns the current heap footprint of the underlying storage.
func (m *Multi) Bytes() int64 { return m.tab.Bytes() }

// Rows returns the number of materialized (union-over-lanes) rows.
func (m *Multi) Rows() int64 { return m.tab.Rows() }

// Release drops all storage, returning slabs to the arena.
func (m *Multi) Release() { m.tab.Release() }
