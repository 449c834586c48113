package shard

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// encodeRows is the reference rows payload encoder the streamed writer
// must match byte for byte: iter, step, row count, then per row a width
// (-1 for a nil row) and its values.
func encodeRows(m rowsMsg) []byte {
	var w wbuf
	w.u32(m.Iter)
	w.u32(m.Step)
	w.u32(uint32(len(m.Rows)))
	for _, row := range m.Rows {
		if row == nil {
			w.u32(^uint32(0))
			continue
		}
		w.u32(uint32(len(row)))
		for _, x := range row {
			w.f64(x)
		}
	}
	return w.b
}

// rowsFrame frames an encoded rows payload as a peer link carries it.
func rowsFrame(payload []byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, msgRows, payload)
	return buf.Bytes()
}

// streamRows writes m with the streamed writer through a bufio.Writer
// of the given buffer size and returns the bytes that reached the
// underlying writer.
func streamRows(t testing.TB, m rowsMsg, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, size)
	if err := writeRows(bw, m.Iter, m.Step, m.Rows); err != nil {
		t.Fatalf("writeRows through a %d-byte buffer: %v", size, err)
	}
	if bw.Buffered() != 0 {
		t.Fatalf("writeRows left %d bytes unflushed", bw.Buffered())
	}
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

// TestWriteRowsMatchesReference streams frames through writer buffers
// far smaller and far larger than a row and requires the reference
// bytes every time. The rows sweep every alignment against the
// buffer's end: a run of one-value rows shifts the next row by 12 bytes
// and a nil row by 4, so some row ends exactly where the buffer does,
// some width headers and values straddle it, and one row is wider than
// the whole buffer. Every frame then decodes through a 16-byte reader
// bit for bit.
func TestWriteRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func(n int) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(120)-60))
		}
		return r
	}
	for _, size := range []int{16, 100, 64 << 10} {
		var msgs []rowsMsg
		for lead := 0; lead < 24; lead++ {
			for _, nils := range []int{0, 1, 2, 3} {
				m := rowsMsg{Iter: uint32(lead), Step: uint32(nils)}
				for i := 0; i < lead; i++ {
					m.Rows = append(m.Rows, row(1))
				}
				for i := 0; i < nils; i++ {
					m.Rows = append(m.Rows, nil)
				}
				m.Rows = append(m.Rows, row(size/8-1), nil, []float64{}, row(3), row(size/8), row(size/8+1), []float64{}, nil)
				msgs = append(msgs, m)
			}
		}
		msgs = append(msgs,
			rowsMsg{Iter: 1, Step: 1},
			rowsMsg{Iter: 2, Step: 2, Rows: [][]float64{nil, nil}},
			rowsMsg{Iter: 3, Step: 3, Rows: [][]float64{{}, {}}},
			rowsMsg{Iter: 4, Step: 4, Rows: [][]float64{row(3*size/8 + 5), row(2), nil}},
		)
		var stream []byte
		for _, m := range msgs {
			got := streamRows(t, m, size)
			want := rowsFrame(encodeRows(m))
			if !bytes.Equal(got, want) {
				t.Fatalf("buffer %d, frame iter %d step %d: streamed %d bytes differ from the reference %d bytes",
					size, m.Iter, m.Step, len(got), len(want))
			}
			stream = append(stream, got...)
		}
		br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
		for _, want := range msgs {
			got, err := readRowsFrame(br)
			if err != nil {
				t.Fatalf("buffer %d: %v", size, err)
			}
			// The reference encoding keeps every value's bits and tells
			// nil rows (width -1) from empty ones (width 0).
			if !bytes.Equal(encodeRows(got), encodeRows(want)) {
				t.Fatalf("buffer %d: frame iter %d step %d decoded to different rows", size, want.Iter, want.Step)
			}
		}
		if _, err := readRowsFrame(br); err == nil {
			t.Fatalf("buffer %d: decoded a frame past the end of the stream", size)
		}
	}
}

// TestReadRowsAllocation pins what decoding an honest packet costs: a
// 2,200-row × 35-value frame (the shape of a U7-1 packet on the
// benchmark's graph) read through a link-sized reader allocates at most
// 1.25× its bytes, because rows fill slabs sized from what has arrived
// and no slab is ever outgrown and copied.
func TestReadRowsAllocation(t *testing.T) {
	m := rowsMsg{Iter: 1, Step: 4, Rows: make([][]float64, 2200)}
	for j := range m.Rows {
		m.Rows[j] = make([]float64, 35)
		for i := range m.Rows[j] {
			m.Rows[j][i] = float64(j*35 + i)
		}
	}
	frame := rowsFrame(encodeRows(m))
	var got rowsMsg
	var err error
	alloc := decodeAlloc(func() func() {
		br := bufio.NewReaderSize(bytes.NewReader(frame), 64<<10)
		return func() { got, err = readRowsFrame(br) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRows(got), encodeRows(m)) {
		t.Fatal("the decoded frame differs from the one sent")
	}
	ratio := float64(alloc) / float64(len(frame))
	t.Logf("decoding a %d-byte frame allocated %d bytes (%.2f× its size)", len(frame), alloc, ratio)
	if ratio > 1.25 {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes (%.2f× its size, want <= 1.25×)", len(frame), alloc, ratio)
	}
}
