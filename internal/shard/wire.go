// Package shard is the horizontally-sharded counting tier: the
// internal/dist rank protocol promoted from an in-process simulation to
// a real wire. A coordinator (the fasciad daemon) fans a query's
// iterations out to a group of shard worker processes; each worker owns
// a contiguous vertex block of the registered graph, runs the
// rank-local DP (dist.Engine.RunRank, on dp's lane kernels) and
// exchanges boundary-vertex passive rows with its peers over
// length-prefixed binary TCP framing, in the precomputed needs-list
// order, with the per-node exchange pipelined (packets for later DP
// steps travel while earlier steps compute) and sends grouped
// adaptively per Chen et al. (arXiv:1804.09764). Per-iteration
// estimates are bit-identical to the in-process engine under the same
// seed, which keeps the serving layer's MergeIterations and seed-keyed
// cache contracts intact across local and sharded execution.
//
// Failure handling is part of the protocol contract: losing a shard
// connection marks the iterations it had not finished as failed; the
// coordinator re-dispatches them to the surviving shards (the dead
// shard excluded from the new group), and bit-identity across group
// sizes makes the retry invisible in the estimate stream. SIGTERM on a
// worker drains: in-flight exchanges run to completion, new runs are
// refused.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	// wireMagic opens every hello so a stray connection to the shard
	// port fails fast instead of hanging the accept loop.
	wireMagic = uint32(0xfa5c1a5d)
	// wireVersion gates protocol compatibility. Version 2 stopped
	// exchanging rows at steps whose passive child is a leaf, so ranks
	// at versions 1 and 2 disagree on the step schedule.
	wireVersion = 2
	// maxFrameBytes bounds a single frame: a hostile or corrupt length
	// prefix may force at most one bounded allocation. Row packets for
	// huge needs lists dominate legitimate sizes; 1 GiB is far above any
	// real packet and far below an allocation that could hurt.
	maxFrameBytes = 1 << 30
)

// msgType tags a frame.
type msgType byte

const (
	msgHello msgType = iota + 1
	msgHelloOK
	msgRun
	msgIter
	msgDone
	msgErr
	msgRows
)

// Connection kinds carried in hello frames.
const (
	kindControl = byte(0) // coordinator → worker: one run per connection
	kindPeer    = byte(1) // worker → worker: row packets for one run
)

// hello opens every connection.
type hello struct {
	Kind      byte
	GraphHash uint64 // control: the graph the run will count over
	RunID     uint64 // peer: the run this connection belongs to
	Rank      uint32 // peer: the dialing worker's rank in the run
}

// helloOK acknowledges a hello; N echoes the worker's local vertex
// count for control connections so the coordinator can cross-check.
type helloOK struct {
	N uint32
}

// runRequest asks a worker to run a contiguous iteration range as one
// rank of a shard group.
type runRequest struct {
	RunID     uint64
	GraphHash uint64
	Rank      uint32
	Ranks     uint32
	Colors    uint32 // 0 = template size
	Strategy  uint32 // part.Strategy
	Seed      int64  // base seed: iteration i colors with Seed+i
	Iters     uint32
	TK        uint32   // template vertex count (edge specs can't express k=1)
	Template  string   // edge-list spec, vertex numbering preserved
	Labels    []int32  // nil = unlabeled template
	Peers     []string // shard addresses by rank; Peers[Rank] is self
}

// iterMsg streams one completed iteration's rank-local total back to
// the coordinator.
type iterMsg struct {
	Iter  uint32
	Total float64
}

// doneMsg closes a successful run with its transport accounting.
type doneMsg struct {
	Messages  int64
	CommBytes int64
	MaxRows   uint32
	// Groups and GroupedFrames describe the adaptive group sizing of the
	// pipelined sender: GroupedFrames frames left in Groups flushes.
	Groups        uint32
	GroupedFrames uint32
}

// rowsMsg carries one needs-list packet between peers.
type rowsMsg struct {
	Iter uint32
	Step uint32
	Rows [][]float64
}

// wbuf is an append-only little-endian encode buffer.
type wbuf struct{ b []byte }

func (w *wbuf) u8(x byte)     { w.b = append(w.b, x) }
func (w *wbuf) u32(x uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, x) }
func (w *wbuf) u64(x uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, x) }
func (w *wbuf) i64(x int64)   { w.u64(uint64(x)) }
func (w *wbuf) f64(x float64) { w.u64(math.Float64bits(x)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// rbuf is a sticky-error little-endian decode buffer.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("shard: truncated frame at offset %d of %d", r.off, len(r.b))
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	x := r.b[r.off]
	r.off++
	return x
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	x := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return x
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return x
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) str() string {
	n := r.u32()
	if r.err != nil || r.off+int(n) > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// writeFrame ships one length-prefixed frame: u32 length (type byte +
// payload), type byte, payload. The writer is typically buffered; the
// caller decides when to flush (the adaptive grouping lever).
func writeFrame(w io.Writer, t msgType, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, bounding the allocation by maxFrameBytes.
func readFrame(r *bufio.Reader) (msgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("shard: frame length %d outside [1, %d]", n, maxFrameBytes)
	}
	var tb [1]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, err
	}
	if n == 1 {
		return msgType(tb[0]), nil, nil
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return msgType(tb[0]), payload, nil
}

func encodeHello(h hello) []byte {
	var w wbuf
	w.u32(wireMagic)
	w.u8(wireVersion)
	w.u8(h.Kind)
	w.u64(h.GraphHash)
	w.u64(h.RunID)
	w.u32(h.Rank)
	return w.b
}

// versionError is a hello whose magic matched but whose protocol
// version did not: a peer or coordinator from another release, which the
// worker refuses with a reason instead of a bare close.
type versionError struct{ got byte }

func (e versionError) Error() string {
	return fmt.Sprintf("protocol version %d, want %d", e.got, wireVersion)
}

func decodeHello(b []byte) (hello, error) {
	r := rbuf{b: b}
	if magic := r.u32(); r.err == nil && magic != wireMagic {
		return hello{}, fmt.Errorf("shard: bad hello magic %#x", magic)
	}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return hello{}, versionError{got: v}
	}
	h := hello{Kind: r.u8(), GraphHash: r.u64(), RunID: r.u64(), Rank: r.u32()}
	return h, r.err
}

func encodeHelloOK(h helloOK) []byte {
	var w wbuf
	w.u32(h.N)
	return w.b
}

func decodeHelloOK(b []byte) (helloOK, error) {
	r := rbuf{b: b}
	h := helloOK{N: r.u32()}
	return h, r.err
}

func encodeRun(q runRequest) []byte {
	var w wbuf
	w.u64(q.RunID)
	w.u64(q.GraphHash)
	w.u32(q.Rank)
	w.u32(q.Ranks)
	w.u32(q.Colors)
	w.u32(q.Strategy)
	w.i64(q.Seed)
	w.u32(q.Iters)
	w.u32(q.TK)
	w.str(q.Template)
	if q.Labels == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.u32(uint32(len(q.Labels)))
		for _, l := range q.Labels {
			w.u32(uint32(l))
		}
	}
	w.u32(uint32(len(q.Peers)))
	for _, p := range q.Peers {
		w.str(p)
	}
	return w.b
}

// maxWireRanks bounds the decoded group size; a corrupt frame may force
// at most this many slice elements before lengths are revalidated.
const maxWireRanks = 4096

func decodeRun(b []byte) (runRequest, error) {
	r := rbuf{b: b}
	q := runRequest{
		RunID:     r.u64(),
		GraphHash: r.u64(),
		Rank:      r.u32(),
		Ranks:     r.u32(),
		Colors:    r.u32(),
		Strategy:  r.u32(),
		Seed:      r.i64(),
		Iters:     r.u32(),
		TK:        r.u32(),
		Template:  r.str(),
	}
	if r.u8() == 1 {
		n := r.u32()
		// Each label is 4 wire bytes, so bound the count by the bytes
		// actually remaining — n <= len(b) allowed a 4x allocation
		// amplification from a truncated frame.
		if r.err == nil && int(n) <= (len(b)-r.off)/4 {
			q.Labels = make([]int32, 0, n)
			for i := uint32(0); i < n; i++ {
				q.Labels = append(q.Labels, int32(r.u32()))
			}
		} else {
			r.fail()
		}
	}
	np := r.u32()
	// Each peer address carries a 4-byte length, so the remaining bytes
	// bound the count as well as maxWireRanks does: a few-byte frame
	// must not size a 4096-entry slice.
	if r.err == nil && np <= maxWireRanks && int(np) <= (len(b)-r.off)/4 {
		q.Peers = make([]string, 0, np)
		for i := uint32(0); i < np; i++ {
			q.Peers = append(q.Peers, r.str())
		}
	} else {
		r.fail()
	}
	if r.err != nil {
		return runRequest{}, r.err
	}
	if q.Ranks < 1 || q.Ranks > maxWireRanks || q.Rank >= q.Ranks || len(q.Peers) != int(q.Ranks) {
		return runRequest{}, fmt.Errorf("shard: inconsistent run request (rank %d of %d, %d peers)", q.Rank, q.Ranks, len(q.Peers))
	}
	return q, nil
}

func encodeIter(m iterMsg) []byte {
	var w wbuf
	w.u32(m.Iter)
	w.f64(m.Total)
	return w.b
}

func decodeIter(b []byte) (iterMsg, error) {
	r := rbuf{b: b}
	m := iterMsg{Iter: r.u32(), Total: r.f64()}
	return m, r.err
}

func encodeDone(m doneMsg) []byte {
	var w wbuf
	w.i64(m.Messages)
	w.i64(m.CommBytes)
	w.u32(m.MaxRows)
	w.u32(m.Groups)
	w.u32(m.GroupedFrames)
	return w.b
}

func decodeDone(b []byte) (doneMsg, error) {
	r := rbuf{b: b}
	m := doneMsg{Messages: r.i64(), CommBytes: r.i64(), MaxRows: r.u32(), Groups: r.u32(), GroupedFrames: r.u32()}
	return m, r.err
}

func encodeErr(msg string) []byte {
	var w wbuf
	w.str(msg)
	return w.b
}

func decodeErr(b []byte) (string, error) {
	r := rbuf{b: b}
	s := r.str()
	return s, r.err
}

// encodeRows serializes a packet in needs-list order: nil rows cost 4
// bytes (width -1), present rows a width header plus 8 bytes per value.
func encodeRows(m rowsMsg) []byte {
	size := 12
	for _, row := range m.Rows {
		size += 4 + 8*len(row)
	}
	w := wbuf{b: make([]byte, 0, size)}
	w.u32(m.Iter)
	w.u32(m.Step)
	w.u32(uint32(len(m.Rows)))
	for _, row := range m.Rows {
		if row == nil {
			w.u32(^uint32(0)) // -1: vertex has no counts
			continue
		}
		w.u32(uint32(len(row)))
		for _, x := range row {
			w.f64(x)
		}
	}
	return w.b
}

// frameReader decodes one frame body straight from a link's buffered
// reader, never past the body's declared length. Errors are sticky.
type frameReader struct {
	r    *bufio.Reader
	left int // body bytes not yet consumed
	err  error
}

func (d *frameReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *frameReader) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.left < 4 {
		d.fail(fmt.Errorf("shard: truncated frame: %d bytes left, need 4", d.left))
		return 0
	}
	b, err := d.r.Peek(4)
	if err != nil {
		d.fail(noEOF(err))
		return 0
	}
	x := binary.LittleEndian.Uint32(b)
	d.r.Discard(4)
	d.left -= 4
	return x
}

// f64s appends n little-endian float64s to dst, growing it only by what
// the reader has buffered: the slab is sized from bytes received, never
// from a length the frame claims alone. It doubles, so a slab is copied
// about once in all and never holds more than twice the values
// received, and it stops at the frame's remaining bytes, so an honest
// packet's last slab has no slack.
func (d *frameReader) f64s(dst []float64, n int) []float64 {
	if d.err == nil && n > d.left/8 {
		d.fail(fmt.Errorf("shard: truncated frame: %d bytes left, need %d", d.left, 8*n))
	}
	for n > 0 && d.err == nil {
		b, err := d.r.Peek(min(8*n, d.r.Size()))
		k := len(b) / 8
		if k == 0 {
			d.fail(noEOF(err))
			break
		}
		if need := len(dst) + k; need > cap(dst) {
			grown := make([]float64, len(dst), min(max(2*cap(dst), need), len(dst)+d.left/8))
			copy(grown, dst)
			dst = grown
		}
		for i := 0; i < k; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
		d.r.Discard(8 * k)
		d.left -= 8 * k
		n -= k
	}
	return dst
}

// noEOF turns an end of stream inside a frame into ErrUnexpectedEOF.
func noEOF(err error) error {
	if err == nil || err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readRowsFrame reads the next frame of a peer link, which must be a
// rows frame, and decodes it straight from r: the row values land in one
// slab per packet and each row is a slice of it, with no intermediate
// payload buffer.
func readRowsFrame(r *bufio.Reader) (rowsMsg, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return rowsMsg{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrameBytes {
		return rowsMsg{}, fmt.Errorf("shard: frame length %d outside [1, %d]", n, maxFrameBytes)
	}
	if t := msgType(hdr[4]); t != msgRows {
		return rowsMsg{}, fmt.Errorf("shard: unexpected frame type %d on a peer link", t)
	}
	return readRows(r, int(n)-1)
}

// readRows decodes a rows frame body of size bytes from r.
func readRows(r *bufio.Reader, size int) (rowsMsg, error) {
	d := frameReader{r: r, left: size}
	m := rowsMsg{Iter: d.u32(), Step: d.u32()}
	count := d.u32()
	// Every row costs at least its 4-byte width header on the wire, so
	// the count can never exceed the remaining bytes over 4.
	if d.err == nil && int(count) > d.left/4 {
		d.fail(fmt.Errorf("shard: rows frame claims %d rows in %d bytes", count, d.left))
	}
	var widths []int32 // -1 marks a nil row
	var vals []float64
	for j := uint32(0); j < count && d.err == nil; j++ {
		w := d.u32()
		if w == ^uint32(0) {
			widths = append(widths, -1)
			continue
		}
		// f64s refuses a width past the frame's remaining bytes, so a
		// width that survives it fits in an int32.
		vals = d.f64s(vals, int(w))
		widths = append(widths, int32(w))
	}
	if d.err == nil && d.left != 0 {
		d.fail(fmt.Errorf("shard: rows frame has %d trailing bytes", d.left))
	}
	if d.err != nil {
		return rowsMsg{}, d.err
	}
	m.Rows = make([][]float64, len(widths))
	off := 0
	for j, w := range widths {
		if w >= 0 {
			m.Rows[j] = vals[off : off+int(w) : off+int(w)]
			off += int(w)
		}
	}
	return m, nil
}
