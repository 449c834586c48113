package shard

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/dist"
)

// groupBudgetBytes is the adaptive-grouping flush threshold for the
// pipelined sender: queued row frames accumulate in the socket buffer
// until either the link goes idle (nothing else queued — latency wins)
// or this many payload bytes are pending (bandwidth wins). Small
// packets therefore coalesce into large writes while big packets flush
// immediately — the effective group size adapts to the packet size, per
// the grouped-communication scheme of Chen et al. (arXiv:1804.09764).
const groupBudgetBytes = 128 << 10

// outFrame is one queued send on a peer link.
type outFrame struct {
	payload []byte
	// bytes is the dist cost-model payload size (8/value + 4/id), used
	// for grouping decisions so the adaptive sizing is transport-honest.
	bytes int64
}

// sendQueueDepth bounds the pipelined send queue per link. The eager
// sender ships each DP node's rows once, so at most one packet per
// internal tree node can be queued; 256 covers any template the DP can
// run while still exerting backpressure against a stalled peer.
const sendQueueDepth = 256

// inboxKey addresses a packet slot: the exchange demuxes by (iteration,
// step) because the pipelined eager sender ships packets out of consume
// order, and slow ranks may still be reading iteration i packets while
// fast peers already send iteration i+1.
type inboxKey struct {
	iter uint32
	step uint32
}

// peerLink is one live TCP connection between two ranks of one run.
// The writer goroutine drains out with adaptive group flushing; the
// reader goroutine demuxes row frames into the owning exchange's inbox.
type peerLink struct {
	rank int // remote rank
	conn net.Conn
	// br carries over the handshake's buffered reader: bytes the hello
	// exchange read ahead must not be lost to a fresh buffer.
	br  *bufio.Reader
	out chan outFrame

	closeOnce sync.Once
	// writerDone closes when the writer goroutine has drained (or
	// abandoned) its queue; the reader is reaped separately via wg
	// because it only unblocks once the connection closes.
	writerDone chan struct{}
	wg         sync.WaitGroup

	// Per-link failure: a link breaking (or its peer finishing and
	// closing) must only affect traffic with that peer — a faster rank
	// that completed its iterations closes its connections while slower
	// ranks are still mid-protocol, and that expected EOF must not
	// poison their exchanges with healthy peers. err is guarded by mu
	// (the owning exchange's mutex); broken closes once on first
	// failure.
	err    error
	broken chan struct{}

	// Grouping stats (writer goroutine only, read after wg.Wait).
	groups        int64
	groupedFrames int64
}

func (l *peerLink) close() {
	l.closeOnce.Do(func() { l.conn.Close() })
}

// wireExchange implements dist.Exchange over TCP peer links for one
// run. A single exchange spans all iterations of the run; the worker
// wraps it per iteration (iterExchange) to add the iteration tag the
// dist layer doesn't know about.
type wireExchange struct {
	rank int
	// links is indexed by remote rank; nil for self and never-talking
	// pairs. Slots are written during rendezvous under mu (attach) and
	// read lock-free afterwards by the run-owner goroutine, whose
	// attach calls happen-before its sends/recvs; concurrent readers
	// (abortConns from the cancel watcher) must snapshot under mu.
	links []*peerLink
	comm  *dist.CommStats

	mu    sync.Mutex
	slots map[inboxKey]chan dist.Packet // guarded by mu; cap-1, one packet per key ever

	shutOnce sync.Once
}

func newWireExchange(rank, ranks int, comm *dist.CommStats) *wireExchange {
	return &wireExchange{
		rank:  rank,
		links: make([]*peerLink, ranks),
		comm:  comm,
		slots: map[inboxKey]chan dist.Packet{},
	}
}

// attach wires a peer connection into the exchange and starts its
// reader and writer goroutines. br, when non-nil, is the handshake's
// buffered reader (it may hold read-ahead frames).
func (x *wireExchange) attach(rank int, conn net.Conn, br *bufio.Reader) *peerLink {
	if br == nil {
		br = bufio.NewReaderSize(conn, 64<<10)
	}
	l := &peerLink{
		rank: rank, conn: conn, br: br,
		out:        make(chan outFrame, sendQueueDepth),
		writerDone: make(chan struct{}),
		broken:     make(chan struct{}),
	}
	x.mu.Lock()
	x.links[rank] = l
	x.mu.Unlock()
	l.wg.Add(1)
	go x.writeLoop(l)
	go x.readLoop(l)
	return l
}

// fail records a link's first transport error and wakes every send or
// recv blocked on that link.
func (x *wireExchange) fail(l *peerLink, err error) {
	x.mu.Lock()
	if l.err == nil {
		l.err = err
		close(l.broken)
	}
	x.mu.Unlock()
}

func (x *wireExchange) linkErr(l *peerLink) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return l.err
}

func (x *wireExchange) slot(key inboxKey) chan dist.Packet {
	x.mu.Lock()
	ch, ok := x.slots[key]
	if !ok {
		ch = make(chan dist.Packet, 1)
		x.slots[key] = ch
	}
	x.mu.Unlock()
	return ch
}

// writeLoop drains the link's send queue into the socket with adaptive
// group flushing: keep appending frames while more are queued and the
// pending group is under budget, flush when the queue idles or the
// budget fills.
func (x *wireExchange) writeLoop(l *peerLink) {
	defer close(l.writerDone)
	bw := bufio.NewWriterSize(l.conn, 64<<10)
	var pending int64
	var pendingFrames int64
	flush := func() error {
		if pendingFrames == 0 {
			return nil
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		l.groups++
		l.groupedFrames += pendingFrames
		pending, pendingFrames = 0, 0
		return nil
	}
	for f := range l.out {
		if err := writeFrame(bw, msgRows, f.payload); err != nil {
			x.fail(l, fmt.Errorf("shard: send to rank %d: %w", l.rank, err))
			go drainOut(l.out)
			return
		}
		pending += f.bytes
		pendingFrames++
		if len(l.out) == 0 || pending >= groupBudgetBytes {
			if err := flush(); err != nil {
				x.fail(l, fmt.Errorf("shard: flush to rank %d: %w", l.rank, err))
				go drainOut(l.out)
				return
			}
		}
	}
	if err := flush(); err != nil {
		x.fail(l, fmt.Errorf("shard: flush to rank %d: %w", l.rank, err))
	}
}

// drainOut keeps a dead link's queue from blocking senders until the
// exchange's failure propagates to the DP loop.
func drainOut(ch chan outFrame) {
	for range ch {
	}
}

// readLoop decodes inbound row frames straight from the link and
// demuxes them into (iter, step) slots.
func (x *wireExchange) readLoop(l *peerLink) {
	defer l.wg.Done()
	for {
		m, err := readRowsFrame(l.br)
		if err != nil {
			// An EOF here is routine: the peer finished its iterations
			// and closed — everything it ever owed this rank was
			// delivered to the slots first, so only a recv that would
			// still be waiting on this peer surfaces the error.
			x.fail(l, fmt.Errorf("shard: recv from rank %d: %w", l.rank, err))
			return
		}
		// Cap-1 slot, one packet per (src-link, iter, step) by protocol;
		// a duplicate means a peer bug — fail instead of deadlocking.
		select {
		case x.slot(slotKey(l.rank, m.Iter, m.Step)) <- dist.Packet{Rows: m.Rows}:
		default:
			x.fail(l, fmt.Errorf("shard: duplicate packet from rank %d for iter %d step %d", l.rank, m.Iter, m.Step))
			return
		}
	}
}

// send queues a packet toward dst for (iter, step).
func (x *wireExchange) send(dst int, iter, step int, pk dist.Packet) error {
	l := x.links[dst]
	if l == nil {
		return fmt.Errorf("shard: rank %d has no link to rank %d", x.rank, dst)
	}
	f := outFrame{
		payload: encodeRows(rowsMsg{Iter: uint32(iter), Step: uint32(step), Rows: pk.Rows}),
		bytes:   pk.PayloadBytes(),
	}
	select {
	case l.out <- f:
	case <-l.broken:
		return x.linkErr(l)
	}
	x.comm.Messages.Add(1)
	x.comm.Bytes.Add(f.bytes)
	return nil
}

// slotKey folds the source rank into the step word: several sources
// legitimately send toward the same (iter, step), so the step alone
// would collide. Steps are bounded by the DP order length (< 2·k) and
// ranks by maxWireRanks, so both fit their halves comfortably.
func slotKey(src int, iter, step uint32) inboxKey {
	return inboxKey{iter, step<<16 | uint32(src)}
}

// recv blocks until the (src, iter, step) packet arrives or the source
// link breaks.
func (x *wireExchange) recv(src, iter, step int) (dist.Packet, error) {
	l := x.links[src]
	if l == nil {
		return dist.Packet{}, fmt.Errorf("shard: rank %d has no link to rank %d", x.rank, src)
	}
	key := slotKey(src, uint32(iter), uint32(step))
	select {
	case pk := <-x.slot(key):
		x.mu.Lock()
		delete(x.slots, key)
		x.mu.Unlock()
		return pk, nil
	case <-l.broken:
		// Drain race: the packet may have landed before the failure
		// (the reader delivers every frame before it can observe EOF).
		select {
		case pk := <-x.slot(key):
			x.mu.Lock()
			delete(x.slots, key)
			x.mu.Unlock()
			return pk, nil
		default:
		}
		return dist.Packet{}, x.linkErr(l)
	}
}

// shutdown tears down every link exactly once: each writer drains and
// flushes its remaining queue (delivering the data peers still need),
// then the connections close and the goroutines are reaped. Safe to
// call from the run-owner goroutine only.
func (x *wireExchange) shutdown() {
	x.shutOnce.Do(func() {
		for _, l := range x.links {
			if l == nil {
				continue
			}
			close(l.out)
		}
		for _, l := range x.links {
			if l == nil {
				continue
			}
			<-l.writerDone // writer flushed (or failed) before the close below
			l.close()
			l.wg.Wait() // reader unblocks on the closed conn
		}
	})
}

// abortConns force-closes every live connection and poisons the
// exchange, unblocking any rank goroutine parked in send or recv. Used
// by cancellation; unlike shutdown it is safe from any goroutine and
// leaves the writer goroutines to exit via their error paths.
func (x *wireExchange) abortConns(err error) {
	x.mu.Lock()
	links := make([]*peerLink, 0, len(x.links))
	for _, l := range x.links {
		if l != nil {
			links = append(links, l)
		}
	}
	x.mu.Unlock()
	for _, l := range links {
		x.fail(l, err)
		l.close()
	}
}

// groupStats sums the adaptive grouping counters across links. Call
// only after closeAll.
func (x *wireExchange) groupStats() (groups, frames int64) {
	for _, l := range x.links {
		if l == nil {
			continue
		}
		groups += l.groups
		frames += l.groupedFrames
	}
	return groups, frames
}

// iterExchange adapts wireExchange to dist.Exchange for one iteration.
type iterExchange struct {
	x    *wireExchange
	iter int
}

func (e iterExchange) Send(dst, step int, pk dist.Packet) error {
	return e.x.send(dst, e.iter, step, pk)
}

func (e iterExchange) Recv(src, step int) (dist.Packet, error) {
	return e.x.recv(src, e.iter, step)
}
