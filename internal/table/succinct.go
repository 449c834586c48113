package table

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// Succinct is the Motivo-style compressed layout (arXiv:1906.01599):
// each materialized row is stored as a byte stream of
// (zero-run-skip, count) token pairs instead of a flat float64 array,
// exploiting the zero-run sparsity of color-coding DP rows — most
// (vertex, color-set) cells stay zero for selective templates, and
// the nonzero counts are small integers that varint-pack into a
// couple of bytes instead of eight.
//
// The codec is LOSSLESS (integer counts varint-packed exactly,
// anything else as raw IEEE-754 bits), so estimates are bit-identical
// to every other layout — the layout×kernel differential harness
// verifies that for free via Kinds.
//
// Row storage is bump-allocated from 64 KiB byte blocks with a
// per-vertex packed (block, offset) reference, mirroring the Sparse
// layout's concurrency contract: block carving happens under a mutex,
// each vertex's reference is written only by its owning worker, and a
// table being written is never concurrently read. Overwriting a row
// re-carves (the old bytes leak until Release); DP passes store each
// vertex once per pass, so the leak is bounded and the simplicity is
// worth it.
type SuccinctTable struct {
	numSets int
	refs    []int64 // per-vertex packed block<<32|offset, -1 = absent
	blocks  [][]byte
	curBlk  int32 // current bump block index, guarded by mu
	curOff  int32 // next free offset in blocks[curBlk], guarded by mu
	blkLen  int64 // total block bytes allocated, guarded by mu
	encCap  int   // encode scratch size class (worst-case row bytes)
	live    atomic.Int64
	mu      sync.Mutex
	arena   *Arena
}

// succinctBlockBytes is the standard bump-allocation block size; rows
// whose encoding exceeds it get a dedicated exact-size block.
const succinctBlockBytes = 64 << 10

// maxSuccinctCellBytes bounds the encoding of one nonzero cell: a
// zero-skip uvarint (<= 5 bytes for any int32 column count) plus
// either a value uvarint (<= 10 bytes) or marker+raw (9 bytes).
const maxSuccinctCellBytes = 15

// succinctCellEstimateBytes is the planning estimate of the average
// encoded cost per (vertex, color-set) cell: DP rows are mostly zero
// (skipped outright) and their nonzero counts are small integers that
// varint-pack into one or two bytes, so two bytes per cell is a
// conservative sizing figure for the batch planner.
const succinctCellEstimateBytes = 2.0

// NewSuccinct creates a succinct table for n vertices with no rows
// stored.
func NewSuccinct(n, numSets int) *SuccinctTable {
	return NewSuccinctArena(n, numSets, nil)
}

// NewSuccinctArena is NewSuccinct drawing the reference vector, row
// blocks, and encode scratch from an arena (nil falls back to plain
// allocation); Release returns them to it.
func NewSuccinctArena(n, numSets int, a *Arena) *SuccinctTable {
	refs := a.I64(n)
	for i := range refs {
		refs[i] = -1
	}
	return &SuccinctTable{
		numSets: numSets,
		refs:    refs,
		curBlk:  -1,
		encCap:  numSets*maxSuccinctCellBytes + binary.MaxVarintLen64,
		arena:   a,
	}
}

// appendSuccinctRow appends the token-stream encoding of row to dst:
// for each nonzero cell, a uvarint count of zero cells skipped since
// the previous token, then the value — an even uvarint 2·v for a
// nonnegative integer count v (exact: the encoder verifies the
// float64 round-trip), or the odd marker byte 1 followed by the raw
// little-endian IEEE-754 bits. Trailing zeros are simply not emitted.
func appendSuccinctRow(dst []byte, row []float64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	skip := uint64(0)
	for _, v := range row {
		if v == 0 {
			skip++
			continue
		}
		n := binary.PutUvarint(tmp[:], skip)
		dst = append(dst, tmp[:n]...)
		skip = 0
		if u, ok := succinctIntToken(v); ok {
			n = binary.PutUvarint(tmp[:], u)
			dst = append(dst, tmp[:n]...)
		} else {
			dst = append(dst, 1)
			var raw [8]byte
			binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
			dst = append(dst, raw[:]...)
		}
	}
	return dst
}

// succinctIntToken returns the even varint token for v when v is a
// nonnegative integer that round-trips float64->uint64->float64
// exactly and leaves the low tag bit free.
func succinctIntToken(v float64) (uint64, bool) {
	if !(v >= 0 && v < (1<<62)) || v != math.Trunc(v) {
		return 0, false
	}
	u := uint64(v)
	if float64(u) != v {
		return 0, false
	}
	return u << 1, true
}

// decodeSuccinctRow zero-fills dst and decodes enc into it. It returns
// false (leaving dst zero-filled up to the failure point) on any
// malformed input: truncated varints, raw tails shorter than 8 bytes,
// unknown odd markers, or tokens that run past len(dst). The fuzz
// harness drives it with hostile inputs.
func decodeSuccinctRow(enc []byte, dst []float64) bool {
	clear(dst)
	ok := true
	walkSuccinctRow(enc, func(ci int, val float64) bool {
		if ci >= len(dst) {
			ok = false
			return false
		}
		dst[ci] = val
		return true
	})
	if !ok {
		return false
	}
	return validSuccinctRow(enc, len(dst))
}

// walkSuccinctRow decodes enc token by token, calling fn with each
// stored (column, value) pair in ascending column order until fn
// returns false or the stream ends. Malformed streams stop the walk
// silently — internal encodings are always well-formed, and the
// validating entry point is decodeSuccinctRow.
func walkSuccinctRow(enc []byte, fn func(ci int, val float64) bool) {
	ci := 0
	for i := 0; i < len(enc); {
		skip, n := binary.Uvarint(enc[i:])
		if n <= 0 || skip > uint64(math.MaxInt32) {
			return
		}
		i += n
		ci += int(skip)
		u, n := binary.Uvarint(enc[i:])
		if n <= 0 {
			return
		}
		i += n
		var v float64
		switch {
		case u&1 == 0:
			v = float64(u >> 1)
		case u == 1:
			if i+8 > len(enc) {
				return
			}
			v = math.Float64frombits(binary.LittleEndian.Uint64(enc[i:]))
			i += 8
		default:
			return
		}
		if !fn(ci, v) {
			return
		}
		ci++
	}
}

// validSuccinctRow reports whether enc is a complete, well-formed
// encoding for a row of width w.
func validSuccinctRow(enc []byte, w int) bool {
	ci := 0
	for i := 0; i < len(enc); {
		skip, n := binary.Uvarint(enc[i:])
		if n <= 0 || skip > uint64(math.MaxInt32) {
			return false
		}
		i += n
		ci += int(skip)
		if ci >= w {
			return false
		}
		u, n := binary.Uvarint(enc[i:])
		if n <= 0 {
			return false
		}
		i += n
		if u&1 == 1 {
			if u != 1 || i+8 > len(enc) {
				return false
			}
			i += 8
		}
		ci++
	}
	return true
}

// NumSets implements Table.
func (s *SuccinctTable) NumSets() int { return s.numSets }

// Has implements Table.
func (s *SuccinctTable) Has(v int32) bool { return s.refs[v] >= 0 }

// rowEnc returns v's encoded row bytes (nil when absent; possibly
// empty for a present all-zero row).
func (s *SuccinctTable) rowEnc(v int32) []byte {
	ref := s.refs[v]
	if ref < 0 {
		return nil
	}
	buf := s.blocks[ref>>32][uint32(ref):]
	n, m := binary.Uvarint(buf)
	return buf[m : m+int(n)]
}

// Get implements Table.
func (s *SuccinctTable) Get(v int32, ci int32) float64 {
	enc := s.rowEnc(v)
	if enc == nil {
		return 0
	}
	var out float64
	walkSuccinctRow(enc, func(c int, val float64) bool {
		if c >= int(ci) {
			if c == int(ci) {
				out = val
			}
			return false
		}
		return true
	})
	return out
}

// Row implements Table; the succinct layout has no flat rows.
func (s *SuccinctTable) Row(v int32) []float64 { return nil }

// carve bump-allocates n bytes of row storage and returns the packed
// (block, offset) reference plus the destination slice (computed under
// the mutex so a concurrent block append cannot race the blocks slice
// header). Concurrent calls for DISTINCT vertices are safe, mirroring
// Sparse.carve.
func (s *SuccinctTable) carve(n int) (ref int64, dst []byte) {
	s.mu.Lock()
	if n > succinctBlockBytes {
		block := s.arena.B(n)
		s.blocks = append(s.blocks, block)
		s.blkLen += int64(n)
		ref = int64(len(s.blocks)-1) << 32
		dst = block[:n:n]
		s.mu.Unlock()
		return ref, dst
	}
	if s.curBlk < 0 || int(s.curOff)+n > succinctBlockBytes {
		block := s.arena.B(succinctBlockBytes)
		s.blocks = append(s.blocks, block)
		s.blkLen += succinctBlockBytes
		s.curBlk = int32(len(s.blocks) - 1)
		s.curOff = 0
	}
	off := s.curOff
	dst = s.blocks[s.curBlk][off : int(off)+n : int(off)+n]
	s.curOff += int32(n)
	ref = int64(s.curBlk)<<32 | int64(off)
	s.mu.Unlock()
	return ref, dst
}

// storeEncoded encodes row and publishes it as v's storage,
// overwriting any previous reference.
func (s *SuccinctTable) storeEncoded(v int32, row []float64) {
	scratch := s.arena.B(s.encCap)
	enc := appendSuccinctRow(scratch[:0], row)
	var pre [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(pre[:], uint64(len(enc)))
	ref, dst := s.carve(pn + len(enc))
	copy(dst, pre[:pn])
	copy(dst[pn:], enc)
	if s.refs[v] < 0 {
		s.live.Add(1)
	}
	s.refs[v] = ref
	s.arena.PutB(scratch)
}

// Set implements Table. A zero store into an absent vertex is a no-op
// (matching the hash layout); any other single-cell update decodes,
// patches, and re-encodes the row.
func (s *SuccinctTable) Set(v int32, ci int32, val float64) {
	enc := s.rowEnc(v)
	if enc == nil {
		if val == 0 {
			return
		}
		row := s.arena.F64(s.numSets)
		clear(row)
		row[ci] = val
		s.storeEncoded(v, row)
		s.arena.PutF64(row)
		return
	}
	row := s.arena.F64(s.numSets)
	decodeSuccinctRow(enc, row[:s.numSets])
	row[ci] = val
	s.storeEncoded(v, row[:s.numSets])
	s.arena.PutF64(row)
}

// StoreRow implements Table. An all-zero row for an absent vertex is
// skipped, preserving the selectivity of Has.
func (s *SuccinctTable) StoreRow(v int32, row []float64) {
	if s.refs[v] < 0 {
		nonzero := false
		for _, x := range row {
			if x != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			return
		}
	}
	s.storeEncoded(v, row)
}

// DecodeRowInto implements RowDecoder: it zero-fills dst[:NumSets] and
// decodes v's row into it, reporting presence. One sequential decode
// instead of NumSets token-walking Get probes.
func (s *SuccinctTable) DecodeRowInto(v int32, dst []float64) bool {
	enc := s.rowEnc(v)
	if enc == nil {
		return false
	}
	decodeSuccinctRow(enc, dst[:s.numSets])
	return true
}

// AccumulateRow implements RowAccumulator; absent rows contribute
// nothing.
func (s *SuccinctTable) AccumulateRow(v int32, dst []float64) {
	enc := s.rowEnc(v)
	if enc == nil {
		return
	}
	walkSuccinctRow(enc, func(ci int, val float64) bool {
		dst[ci] += val
		return true
	})
}

// AccumulateRows implements BulkAccumulator.
func (s *SuccinctTable) AccumulateRows(vs []int32, dst []float64) {
	for _, v := range vs {
		s.AccumulateRow(v, dst)
	}
}

// ForEachInRow calls fn for every stored cell of v's row in ascending
// column order; the multi-lane wrapper's gather branches use it to
// visit a row's lanes in one decode.
func (s *SuccinctTable) ForEachInRow(v int32, fn func(ci int32, val float64)) {
	enc := s.rowEnc(v)
	if enc == nil {
		return
	}
	walkSuccinctRow(enc, func(ci int, val float64) bool {
		fn(int32(ci), val)
		return true
	})
}

// ForEach calls fn for every stored cell with its raw key
// (vid·NumSets + colorIndex) and value, in ascending key order; the
// multi-lane wrapper uses it for per-lane totals.
func (s *SuccinctTable) ForEach(fn func(key int64, val float64)) {
	for v := range s.refs {
		ref := s.refs[v]
		if ref < 0 {
			continue
		}
		base := int64(v) * int64(s.numSets)
		walkSuccinctRow(s.rowEnc(int32(v)), func(ci int, val float64) bool {
			fn(base+int64(ci), val)
			return true
		})
	}
}

// SumRow implements Table.
func (s *SuccinctTable) SumRow(v int32) float64 {
	var sum float64
	enc := s.rowEnc(v)
	if enc == nil {
		return 0
	}
	walkSuccinctRow(enc, func(ci int, val float64) bool {
		sum += val
		return true
	})
	return sum
}

// Total implements Table.
func (s *SuccinctTable) Total() float64 {
	var sum float64
	for v := range s.refs {
		sum += s.SumRow(int32(v))
	}
	return sum
}

// Rows implements Table: the number of stored rows.
func (s *SuccinctTable) Rows() int64 { return s.live.Load() }

// Bytes implements Table: the reference vector plus all row blocks.
// Compression is the point — on selective workloads this sits far
// below the dense layout's n·NumSets·8.
func (s *SuccinctTable) Bytes() int64 {
	s.mu.Lock()
	blk := s.blkLen
	nblocks := int64(len(s.blocks))
	s.mu.Unlock()
	return int64(len(s.refs))*8 + blk + nblocks*sliceHeaderLen + 2*sliceHeaderLen
}

// Release implements Table, returning the reference vector and row
// blocks to the arena.
func (s *SuccinctTable) Release() {
	s.arena.PutI64(s.refs)
	s.refs = nil
	s.mu.Lock()
	blocks := s.blocks
	s.blocks = nil
	s.curBlk = -1
	s.curOff = 0
	s.blkLen = 0
	s.mu.Unlock()
	for _, b := range blocks {
		s.arena.PutB(b)
	}
	s.live.Store(0)
}
