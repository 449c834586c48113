package shard

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"
)

// rowsFrame frames an encoded rows payload as a peer link carries it.
func rowsFrame(payload []byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, msgRows, payload)
	return buf.Bytes()
}

// decodeRowsFrame runs the streamed peer-link decoder over one frame.
func decodeRowsFrame(frame []byte) (rowsMsg, error) {
	return readRowsFrame(bufio.NewReader(bytes.NewReader(frame)))
}

// allocBytes reports how many heap bytes fn allocates. TotalAlloc is
// monotonic (GC never decreases it), so the delta is stable.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRowsHostileRowCount pins the per-element floor on the row
// count: a 1 MiB frame claiming 2^20 rows must be rejected before the
// 24-byte-per-row header slice is allocated (the old n <= len(b) floor
// let it allocate ~24 MiB from ~1 MiB of input).
func TestDecodeRowsHostileRowCount(t *testing.T) {
	var w wbuf
	w.u32(7)       // iter
	w.u32(3)       // step
	w.u32(1 << 20) // claimed row count
	frame := rowsFrame(append(w.b, make([]byte, 1<<20)...))

	var err error
	alloc := allocBytes(func() { _, err = decodeRowsFrame(frame) })
	if err == nil {
		t.Fatal("the rows decoder accepted a row count exceeding the wire-byte floor")
	}
	if alloc > 4<<20 {
		t.Errorf("the rows decoder allocated %d bytes on a hostile 1 MiB frame; the length floor must reject it first", alloc)
	}
}

// TestDecodeRunHostileLabelCount pins the same floor on the label
// array: labels are 4 wire bytes each, so a count beyond remaining/4
// must fail before the backing array is sized.
func TestDecodeRunHostileLabelCount(t *testing.T) {
	var w wbuf
	w.u64(1)       // run id
	w.u64(2)       // graph hash
	w.u32(0)       // rank
	w.u32(1)       // ranks
	w.u32(4)       // colors
	w.u32(0)       // strategy
	w.i64(42)      // seed
	w.u32(1)       // iters
	w.u32(0)       // tk
	w.str("path3") // template
	w.u8(1)        // labels present
	w.u32(1 << 20) // claimed label count, 4 MiB worth
	payload := append(w.b, make([]byte, 1<<20)...)

	var err error
	alloc := allocBytes(func() { _, err = decodeRun(payload) })
	if err == nil {
		t.Fatal("decodeRun accepted a label count exceeding the wire-byte floor")
	}
	if alloc > 2<<20 {
		t.Errorf("decodeRun allocated %d bytes on a hostile 1 MiB frame; the length floor must reject it first", alloc)
	}
}

// TestDecodeRowsTightFrame confirms the floor admits a frame with zero
// slack: exactly the bytes its rows need.
func TestDecodeRowsTightFrame(t *testing.T) {
	m := rowsMsg{Iter: 1, Step: 2, Rows: [][]float64{{1.5}, nil, {2.5, -3.5}}}
	got, err := decodeRowsFrame(rowsFrame(encodeRows(m)))
	if err != nil {
		t.Fatalf("round-trip failed: %v", err)
	}
	if len(got.Rows) != 3 || got.Rows[1] != nil || got.Rows[2][1] != -3.5 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
}

// TestRowsFrameStream decodes back-to-back frames through a reader whose
// buffer is smaller than a row, so values arrive in several chunks and
// each frame must end exactly where the next begins. A frame with
// trailing bytes past its rows is refused.
func TestRowsFrameStream(t *testing.T) {
	wide := make([]float64, 11)
	for i := range wide {
		wide[i] = float64(i) - 2.5
	}
	msgs := []rowsMsg{
		{Iter: 4, Step: 9, Rows: [][]float64{wide, nil, {7}}},
		{Iter: 5, Step: 1, Rows: [][]float64{nil, {}, wide}},
	}
	var stream []byte
	for _, m := range msgs {
		stream = append(stream, rowsFrame(encodeRows(m))...)
	}
	br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
	for _, want := range msgs {
		got, err := readRowsFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeRows(got), encodeRows(want)) {
			t.Fatalf("decoded %+v, want %+v", got, want)
		}
	}
	if _, err := readRowsFrame(br); err == nil {
		t.Fatal("decoded a frame past the end of the stream")
	}
	trailing := rowsFrame(append(encodeRows(msgs[0]), 0))
	if _, err := decodeRowsFrame(trailing); err == nil {
		t.Fatal("accepted a rows frame with a trailing byte")
	}
}
