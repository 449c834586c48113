package shard

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// allocSlack absorbs the decoders' fixed-size bookkeeping; everything
// beyond it must be paid for by bytes the input supplied.
const allocSlack = 4 << 10

// maxAlloc is the most a decoder may allocate on n input bytes. The
// rows decoder's worst case is a frame of nil rows: 4 wire bytes each
// become a 24-byte row header plus a 4-byte width.
func maxAlloc(n int) uint64 { return 8*uint64(n) + allocSlack }

// decodeAlloc reports the heap bytes one decode of data allocates.
// The heap counters are process-wide and a fuzzing worker allocates
// on its own between and beside inputs, so the decode runs three
// times, each on a fresh reader from mk, and the least is reported.
func decodeAlloc(mk func() func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		least = min(least, allocBytes(mk()))
	}
	return least
}

// FuzzRowsFrame drives the streamed peer-link decoder over arbitrary
// bytes: every input decodes or errors without panicking, no input
// allocates much more than the bytes it supplied, and an accepted frame
// written back by the streamed writer, through a buffer smaller than
// most rows, yields exactly the bytes it consumed.
func FuzzRowsFrame(f *testing.F) {
	f.Add(rowsFrame(encodeRows(rowsMsg{Iter: 1, Step: 2, Rows: [][]float64{{1.5}, nil, {2.5, -3.5}}})))
	f.Add(rowsFrame(encodeRows(rowsMsg{Iter: 3, Step: 5, Rows: [][]float64{nil, {}, {7, 8, 9, 10, 11, 12, 13, 14, 15}}})))
	f.Add(rowsFrame(encodeRows(rowsMsg{Iter: 2, Step: 1, Rows: [][]float64{{}, nil, {}}})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m rowsMsg
		var err error
		alloc := decodeAlloc(func() func() {
			br := bufio.NewReaderSize(bytes.NewReader(data), 64)
			return func() { m, err = readRowsFrame(br) }
		})
		if alloc > maxAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		enc := streamRows(t, m, 16)
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("accepted frame re-encodes to %x, input %x", enc, data)
		}
	})
}

// FuzzDecodeRun holds the run-request decoder to the same contract: no
// panic, allocation bounded by the input, and an accepted request
// survives an encode/decode round trip unchanged.
func FuzzDecodeRun(f *testing.F) {
	f.Add(encodeRun(runRequest{
		RunID: 7, GraphHash: 9, Rank: 1, Ranks: 2, Colors: 5, Seed: -3, Iters: 4, TK: 4,
		Template: "0-1 1-2 1-3", Labels: []int32{0, 1, 1, 0}, Peers: []string{"a:1", "b:2"},
	}))
	f.Add(encodeRun(runRequest{RunID: 1, Ranks: 1, TK: 1, Peers: []string{"x:0"}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q runRequest
		var err error
		decode := func() { q, err = decodeRun(data) }
		if alloc := decodeAlloc(func() func() { return decode }); alloc > maxAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		back, err := decodeRun(encodeRun(q))
		if err != nil || !reflect.DeepEqual(back, q) {
			t.Fatalf("round trip: %+v, %v; want %+v", back, err, q)
		}
	})
}

// FuzzDecodeHello does the same for the hello every connection opens
// with.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(hello{Kind: kindPeer, GraphHash: 1, RunID: 99, Rank: 2}))
	f.Add(encodeHello(hello{Kind: kindControl, GraphHash: 0xdeadbeef}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h hello
		var err error
		decode := func() { h, err = decodeHello(data) }
		if alloc := decodeAlloc(func() func() { return decode }); alloc > maxAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if back, err := decodeHello(encodeHello(h)); err != nil || back != h {
			t.Fatalf("round trip: %+v, %v; want %+v", back, err, h)
		}
	})
}
