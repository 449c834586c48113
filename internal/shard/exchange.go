package shard

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/dist"
)

// inboxKey addresses a packet slot: the exchange demuxes by (iteration,
// step) because the pipelined eager sender ships packets out of consume
// order, and slow ranks may still be reading iteration i packets while
// fast peers already send iteration i+1.
type inboxKey struct {
	iter uint32
	step uint32
}

// peerLink is one live TCP connection between two ranks of one run.
// The run's rank goroutine writes row frames straight into bw; the
// reader goroutine demuxes inbound row frames into the owning
// exchange's inbox.
type peerLink struct {
	rank int // remote rank
	conn net.Conn
	// br carries over the handshake's buffered reader: bytes the hello
	// exchange read ahead must not be lost to a fresh buffer.
	br *bufio.Reader
	// bw buffers the rank goroutine's writes; only send touches it.
	bw *bufio.Writer

	closeOnce sync.Once
	// wg reaps the reader, which only unblocks once the connection
	// closes.
	wg sync.WaitGroup

	// Per-link failure: a link breaking (or its peer finishing and
	// closing) must only affect traffic with that peer — a faster rank
	// that completed its iterations closes its connections while slower
	// ranks are still mid-protocol, and that expected EOF must not
	// poison their exchanges with healthy peers. err is guarded by mu
	// (the owning exchange's mutex); broken closes once on first
	// failure.
	err    error
	broken chan struct{}

	// frames counts the rows frames sent, each flushed at its end (rank
	// goroutine only, read after the run's last send).
	frames int64
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
// reader goroutine. br, when non-nil, is the handshake's buffered
// reader (it may hold read-ahead frames).
func (x *wireExchange) attach(rank int, conn net.Conn, br *bufio.Reader) *peerLink {
	if br == nil {
		br = bufio.NewReaderSize(conn, 64<<10)
	}
	l := &peerLink{
		rank: rank, conn: conn, br: br,
		bw:     bufio.NewWriterSize(conn, 64<<10),
		broken: make(chan struct{}),
	}
	x.mu.Lock()
	x.links[rank] = l
	x.mu.Unlock()
	l.wg.Add(1)
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

// send writes a packet toward dst for (iter, step) straight from its
// rows into the link's buffer and flushes it. A packet larger than the
// socket's send buffer blocks until the peer's kernel takes it; a
// cancelled run unblocks the write by closing the connection.
func (x *wireExchange) send(dst int, iter, step int, pk dist.Packet) error {
	l := x.links[dst]
	if l == nil {
		return fmt.Errorf("shard: rank %d has no link to rank %d", x.rank, dst)
	}
	select {
	case <-l.broken:
		return x.linkErr(l)
	default:
	}
	if err := writeRows(l.bw, uint32(iter), uint32(step), pk.Rows); err != nil {
		x.fail(l, fmt.Errorf("shard: send to rank %d: %w", l.rank, err))
		return x.linkErr(l)
	}
	l.frames++
	x.comm.Messages.Add(1)
	x.comm.Bytes.Add(pk.PayloadBytes())
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

// shutdown tears down every link exactly once: every send flushed its
// packet before returning, so the connections close at once and the
// readers are reaped. Safe to call from the run-owner goroutine only.
func (x *wireExchange) shutdown() {
	x.shutOnce.Do(func() {
		for _, l := range x.links {
			if l == nil {
				continue
			}
			l.close()
			l.wg.Wait() // reader unblocks on the closed conn
		}
	})
}

// abortConns force-closes every live connection and poisons the
// exchange, unblocking any rank goroutine parked in send or recv. Used
// by cancellation; unlike shutdown it is safe from any goroutine. A
// rank goroutine blocked writing to a stalled peer returns from the
// write once its connection closes.
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

// sentFrames sums the rows frames sent across links. Call only after
// the run's last send.
func (x *wireExchange) sentFrames() int64 {
	var frames int64
	for _, l := range x.links {
		if l != nil {
			frames += l.frames
		}
	}
	return frames
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
