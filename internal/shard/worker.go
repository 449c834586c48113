package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/tmpl"
)

// errRunCancelled marks a run torn down by the coordinator (control
// connection closed) or by worker shutdown; the iteration in flight is
// garbage and is discarded without a reply.
var errRunCancelled = errors.New("shard: run cancelled")

// WorkerOptions configures a shard worker.
type WorkerOptions struct {
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// IterDelay, when positive, sleeps between iterations — a throttle
	// for demos and for tests that need a wide window to kill a worker
	// mid-run.
	IterDelay time.Duration
	// PeerTimeout bounds the peer-link rendezvous and handshakes
	// (default 30s).
	PeerTimeout time.Duration
	// DialTimeout bounds a single peer dial (default 5s).
	DialTimeout time.Duration
}

// Worker owns local copies of registered graphs and serves shard runs:
// each control connection carries one run in which this process acts as
// one rank of a group, computing the rank-local DP over its vertex
// block and exchanging boundary rows with its peer workers directly.
type Worker struct {
	logf        func(string, ...any)
	iterDelay   time.Duration
	peerTimeout time.Duration
	dialTimeout time.Duration

	mu       sync.Mutex
	graphs   map[uint64]*graph.Graph  // guarded by mu
	runs     map[uint64]*workerRun    // guarded by mu
	arrived  map[uint64]chan struct{} // guarded by mu; run-registration broadcast
	ctrl     map[net.Conn]struct{}    // guarded by mu; open control conns
	ln       net.Listener             // guarded by mu
	draining bool                     // guarded by mu
	closed   bool                     // guarded by mu
	closedCh chan struct{}
	inflight sync.WaitGroup
}

// workerRun is one in-flight run on this worker.
type workerRun struct {
	id       uint64
	stop     atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
	peerCh   chan peerConn
	x        *wireExchange // set before the run is registered
}

// peerConn is an accepted peer connection awaiting attachment.
type peerConn struct {
	rank int
	conn net.Conn
	br   *bufio.Reader
}

func (r *workerRun) cancel() {
	r.stopOnce.Do(func() {
		r.stop.Store(true)
		close(r.stopCh)
		r.x.abortConns(errRunCancelled)
	})
}

func (r *workerRun) stopped() bool { return r.stop.Load() }

// NewWorker returns a worker with no graphs.
func NewWorker(opts WorkerOptions) *Worker {
	w := &Worker{
		logf:        opts.Logf,
		iterDelay:   opts.IterDelay,
		peerTimeout: opts.PeerTimeout,
		dialTimeout: opts.DialTimeout,
		graphs:      map[uint64]*graph.Graph{},
		runs:        map[uint64]*workerRun{},
		arrived:     map[uint64]chan struct{}{},
		ctrl:        map[net.Conn]struct{}{},
		closedCh:    make(chan struct{}),
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	if w.peerTimeout <= 0 {
		w.peerTimeout = 30 * time.Second
	}
	if w.dialTimeout <= 0 {
		w.dialTimeout = 5 * time.Second
	}
	return w
}

// AddGraph registers a local graph copy, keyed by its structural hash.
func (w *Worker) AddGraph(g *graph.Graph) uint64 {
	h := graph.Hash(g)
	w.mu.Lock()
	w.graphs[h] = g
	w.mu.Unlock()
	return h
}

// GraphHashes lists the registered graph hashes, sorted.
func (w *Worker) GraphHashes() []uint64 {
	w.mu.Lock()
	out := make([]uint64, 0, len(w.graphs))
	for h := range w.graphs {
		out = append(out, h)
	}
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Serve accepts control and peer connections on ln until the listener
// closes (via Close).
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("shard: worker closed")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go w.handleConn(c)
	}
}

// Drain stops accepting new runs and waits for in-flight runs (and
// their exchanges) to finish, bounded by ctx.
func (w *Worker) Drain(ctx context.Context) error {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shard: drain aborted with runs in flight: %w", ctx.Err())
	}
}

// Close tears the worker down: the listener closes, in-flight runs are
// cancelled, open control connections are severed.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	close(w.closedCh)
	ln := w.ln
	runs := make([]*workerRun, 0, len(w.runs))
	for _, r := range w.runs {
		runs = append(runs, r)
	}
	conns := make([]net.Conn, 0, len(w.ctrl))
	for c := range w.ctrl {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, r := range runs {
		r.cancel()
	}
	for _, c := range conns {
		c.Close()
	}
	w.inflight.Wait()
}

func (w *Worker) handleConn(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	c.SetReadDeadline(time.Now().Add(w.peerTimeout))
	t, payload, err := readFrame(br)
	if err != nil || t != msgHello {
		c.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		// A matching magic with another version is a coordinator or
		// peer from another release: say why before closing, so it
		// excludes this shard instead of reading a bare EOF. A bad
		// magic is a stray connection and gets the silent close.
		var ve versionError
		if errors.As(err, &ve) {
			replyErr(c, ve.Error())
			return
		}
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	switch h.Kind {
	case kindControl:
		w.handleControl(c, br, h)
	case kindPeer:
		w.handlePeer(c, br, h)
	default:
		c.Close()
	}
}

// replyErr best-effort ships an error frame and closes the connection.
func replyErr(c net.Conn, msg string) {
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	writeFrame(c, msgErr, encodeErr(msg))
	c.Close()
}

// handleControl serves one run on a coordinator connection.
func (w *Worker) handleControl(c net.Conn, br *bufio.Reader, h hello) {
	w.mu.Lock()
	if w.draining || w.closed {
		w.mu.Unlock()
		replyErr(c, "shard worker draining")
		return
	}
	g := w.graphs[h.GraphHash]
	if g == nil {
		w.mu.Unlock()
		replyErr(c, fmt.Sprintf("graph %x not registered on this shard", h.GraphHash))
		return
	}
	// Inside the same critical section as the draining check so Drain
	// can never return while this run is being admitted.
	w.inflight.Add(1)
	w.ctrl[c] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.ctrl, c)
		w.mu.Unlock()
		c.Close()
		w.inflight.Done()
	}()

	cw := bufio.NewWriter(c)
	reply := func(t msgType, payload []byte) error {
		if err := writeFrame(cw, t, payload); err != nil {
			return err
		}
		return cw.Flush()
	}
	if err := reply(msgHelloOK, encodeHelloOK(helloOK{N: uint32(g.N())})); err != nil {
		return
	}
	c.SetReadDeadline(time.Now().Add(w.peerTimeout))
	t, payload, err := readFrame(br)
	if err != nil || t != msgRun {
		return
	}
	c.SetReadDeadline(time.Time{})
	q, err := decodeRun(payload)
	if err != nil {
		reply(msgErr, encodeErr(err.Error()))
		return
	}
	if q.GraphHash != h.GraphHash || q.RunID == 0 {
		reply(msgErr, encodeErr("run request does not match hello"))
		return
	}
	w.runShard(c, br, reply, g, q)
}

// templateFromWire rebuilds the query template from its wire spec.
func templateFromWire(q runRequest) (*tmpl.Template, error) {
	if q.TK < 1 || q.TK > 64 {
		return nil, fmt.Errorf("shard: template size %d out of range", q.TK)
	}
	var t *tmpl.Template
	var err error
	if q.Template == "" {
		t, err = tmpl.NewTree("wire", int(q.TK), nil, q.Labels)
	} else {
		t, err = tmpl.Parse("wire", q.Template)
		if err == nil && q.Labels != nil {
			t, err = t.WithLabels("wire", q.Labels)
		}
	}
	if err != nil {
		return nil, err
	}
	if t.K() != int(q.TK) {
		return nil, fmt.Errorf("shard: template spec has %d vertices, header says %d", t.K(), q.TK)
	}
	return t, nil
}

// templateSpec renders a template for the wire: its edge list in
// tmpl.Parse syntax (empty for the single-vertex template).
func templateSpec(t *tmpl.Template) string {
	edges := t.Edges()
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%d-%d", e[0], e[1])
	}
	return strings.Join(parts, " ")
}

// runShard executes one run as rank q.Rank, streaming per-iteration
// totals back on the control connection.
func (w *Worker) runShard(c net.Conn, br *bufio.Reader, reply func(msgType, []byte) error, g *graph.Graph, q runRequest) {
	tr, err := templateFromWire(q)
	if err != nil {
		reply(msgErr, encodeErr(err.Error()))
		return
	}
	if q.Strategy > uint32(part.Balanced) {
		reply(msgErr, encodeErr(fmt.Sprintf("unknown partition strategy %d", q.Strategy)))
		return
	}
	eng, err := dist.New(g, tr, dist.Config{
		Ranks:    int(q.Ranks),
		Colors:   int(q.Colors),
		Strategy: part.Strategy(q.Strategy),
		Seed:     q.Seed,
	})
	if err != nil {
		reply(msgErr, encodeErr(err.Error()))
		return
	}
	r := int(q.Rank)
	comm := &dist.CommStats{}
	run := &workerRun{
		id:     q.RunID,
		stopCh: make(chan struct{}),
		peerCh: make(chan peerConn, q.Ranks),
		x:      newWireExchange(r, int(q.Ranks), comm),
	}
	if err := w.registerRun(run); err != nil {
		reply(msgErr, encodeErr(err.Error()))
		return
	}
	defer w.unregisterRun(run)
	defer run.x.shutdown()
	// Late peer hellos (e.g. for a run torn down during rendezvous) park
	// their conns in peerCh; release them on the way out.
	defer func() {
		for {
			select {
			case pc := <-run.peerCh:
				pc.conn.Close()
			default:
				return
			}
		}
	}()

	// The coordinator sends nothing after the run request; any read
	// completion means it hung up (cancel, failure, or done with us) —
	// tear the run down so blocked exchanges unwind.
	go func() {
		br.ReadByte()
		run.cancel()
	}()

	if err := w.connectPeers(run, eng, q); err != nil {
		if !run.stopped() {
			w.logf("shard: run %d rank %d: peer setup: %v", q.RunID, r, err)
			reply(msgErr, encodeErr(err.Error()))
		}
		return
	}

	maxRows := 0
	for it := 0; it < int(q.Iters); it++ {
		if run.stopped() {
			return
		}
		rr, err := eng.RunRank(r, it, iterExchange{x: run.x, iter: it}, &run.stop)
		if err != nil {
			if !run.stopped() {
				w.logf("shard: run %d rank %d iter %d: %v", q.RunID, r, it, err)
				reply(msgErr, encodeErr(err.Error()))
			}
			return
		}
		if run.stopped() {
			return // the iteration's compute was fast-forwarded; discard
		}
		if rr.MaxNodeRows > maxRows {
			maxRows = rr.MaxNodeRows
		}
		if reply(msgIter, encodeIter(iterMsg{Iter: uint32(it), Total: rr.Total})) != nil {
			return
		}
		if w.iterDelay > 0 {
			select {
			case <-time.After(w.iterDelay):
			case <-run.stopCh:
				return
			}
		}
	}
	frames := run.x.sentFrames()
	reply(msgDone, encodeDone(doneMsg{
		Messages:      comm.Messages.Load(),
		CommBytes:     comm.Bytes.Load(),
		MaxRows:       uint32(maxRows),
		Groups:        uint32(frames), // one flush per frame
		GroupedFrames: uint32(frames),
	}))
}

func (w *Worker) registerRun(run *workerRun) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("shard: worker closed")
	}
	if _, ok := w.runs[run.id]; ok {
		return fmt.Errorf("shard: run %d already in flight", run.id)
	}
	w.runs[run.id] = run
	if ch, ok := w.arrived[run.id]; ok {
		close(ch)
		delete(w.arrived, run.id)
	}
	return nil
}

func (w *Worker) unregisterRun(run *workerRun) {
	w.mu.Lock()
	delete(w.runs, run.id)
	w.mu.Unlock()
}

// waitRun blocks until the run registers, bounded by d and by worker
// shutdown.
func (w *Worker) waitRun(id uint64, d time.Duration) *workerRun {
	w.mu.Lock()
	if run, ok := w.runs[id]; ok {
		w.mu.Unlock()
		return run
	}
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	ch, ok := w.arrived[id]
	if !ok {
		ch = make(chan struct{})
		w.arrived[id] = ch
	}
	w.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		w.mu.Lock()
		run := w.runs[id]
		w.mu.Unlock()
		return run
	case <-t.C:
		return nil
	case <-w.closedCh:
		return nil
	}
}

// handlePeer hands an inbound peer connection to its run.
func (w *Worker) handlePeer(c net.Conn, br *bufio.Reader, h hello) {
	run := w.waitRun(h.RunID, w.peerTimeout)
	if run == nil {
		replyErr(c, fmt.Sprintf("no run %d on this shard", h.RunID))
		return
	}
	// Acknowledge before attaching: once the run owns the connection
	// this goroutine must not touch it again.
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(c, msgHelloOK, encodeHelloOK(helloOK{})); err != nil {
		c.Close()
		return
	}
	c.SetWriteDeadline(time.Time{})
	select {
	case run.peerCh <- peerConn{rank: int(h.Rank), conn: c, br: br}:
	default:
		c.Close() // duplicate or overflowing peer — the run will not miss it
	}
}

// connectPeers establishes this rank's peer links: dial every lower
// rank the needs lists say we exchange with, accept from every such
// higher rank; pairs with empty needs in both directions never connect,
// and no pair does when no step of the template exchanges rows.
func (w *Worker) connectPeers(run *workerRun, eng *dist.Engine, q runRequest) error {
	if eng.ExchangeSteps() == 0 {
		return nil
	}
	p := int(q.Ranks)
	r := int(q.Rank)
	wanted := make([]bool, p)
	need := 0
	for o := 0; o < p; o++ {
		if o == r {
			continue
		}
		if len(eng.NeedList(r, o)) > 0 || len(eng.NeedList(o, r)) > 0 {
			wanted[o] = true
			need++
		}
	}
	if need == 0 {
		return nil
	}
	type dialRes struct {
		rank int
		conn net.Conn
		br   *bufio.Reader
		err  error
	}
	resCh := make(chan dialRes, p)
	dialsOut := 0
	for o := 0; o < r; o++ {
		if !wanted[o] {
			continue
		}
		dialsOut++
		go func(o int) {
			conn, br, err := w.dialPeer(q.Peers[o], q.RunID, uint32(r))
			resCh <- dialRes{rank: o, conn: conn, br: br, err: err}
		}(o)
	}
	// Abandoned dials must not leak sockets once we bail out.
	defer func() {
		if dialsOut > 0 {
			go func(n int) {
				for i := 0; i < n; i++ {
					if res := <-resCh; res.conn != nil {
						res.conn.Close()
					}
				}
			}(dialsOut)
		}
	}()
	attached := make([]bool, p)
	deadline := time.NewTimer(w.peerTimeout)
	defer deadline.Stop()
	for need > 0 {
		select {
		case res := <-resCh:
			dialsOut--
			if res.err != nil {
				return fmt.Errorf("shard: rank %d dialing rank %d: %w", r, res.rank, res.err)
			}
			run.x.attach(res.rank, res.conn, res.br)
			attached[res.rank] = true
			need--
		case pc := <-run.peerCh:
			if pc.rank <= r || pc.rank >= p || !wanted[pc.rank] || attached[pc.rank] {
				pc.conn.Close()
				return fmt.Errorf("shard: rank %d: unexpected peer hello from rank %d", r, pc.rank)
			}
			run.x.attach(pc.rank, pc.conn, pc.br)
			attached[pc.rank] = true
			need--
		case <-deadline.C:
			return fmt.Errorf("shard: rank %d: peer rendezvous timed out with %d links missing", r, need)
		case <-run.stopCh:
			return errRunCancelled
		}
	}
	return nil
}

// dialPeer opens a peer link toward a lower-ranked worker.
func (w *Worker) dialPeer(addr string, runID uint64, rank uint32) (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", addr, w.dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(w.peerTimeout))
	if err := writeFrame(conn, msgHello, encodeHello(hello{Kind: kindPeer, RunID: runID, Rank: rank})); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	t, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if t == msgErr {
		msg, _ := decodeErr(payload)
		conn.Close()
		return nil, nil, fmt.Errorf("shard: peer refused link: %s", msg)
	}
	if t != msgHelloOK {
		conn.Close()
		return nil, nil, fmt.Errorf("shard: unexpected frame type %d in peer handshake", t)
	}
	conn.SetDeadline(time.Time{})
	return conn, br, nil
}
