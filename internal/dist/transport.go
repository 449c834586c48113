package dist

import "sync/atomic"

// Packet carries the passive-child table rows of one sender's boundary
// vertices to one receiver for one DP step. Rows follow the precomputed
// needs-list order for the (sender, receiver) pair; a nil row means the
// sender has no counts for that vertex. A sent packet's rows alias the
// sender's table, which lives only until the sender's own consuming
// step, and the sender reuses the Rows slice for its next packet, so a
// transport copies or serializes them before Send returns. A received
// packet's rows are the receiver's to read in place.
type Packet struct {
	Rows [][]float64
}

// clone copies the packet's rows into one slab.
func (p Packet) clone() Packet {
	n := 0
	for _, row := range p.Rows {
		n += len(row)
	}
	slab := make([]float64, 0, n)
	out := Packet{Rows: make([][]float64, len(p.Rows))}
	for j, row := range p.Rows {
		if row != nil {
			start := len(slab)
			slab = append(slab, row...)
			out.Rows[j] = slab[start:len(slab):len(slab)]
		}
	}
	return out
}

// PayloadBytes is the accounted payload volume of the packet: 8 bytes
// per row value plus a 4-byte vertex id per present row. This is the
// cost model the in-process simulation has always reported, and the TCP
// transport reports the same quantity, so CommBytes stays comparable
// across transports (framing overhead is excluded on both).
func (p Packet) PayloadBytes() int64 {
	var b int64
	for _, row := range p.Rows {
		if row != nil {
			b += int64(len(row))*8 + 4
		}
	}
	return b
}

// Exchange moves boundary-row packets between ranks within one
// iteration. Steps are indices into the partition tree's evaluation
// order; only internal positions whose passive child is internal ever
// exchange. Senders may
// ship a step's packet any time before the receiver needs it (the
// pipelined eager send), so implementations must demultiplex by step
// rather than assume arrival order. Send and Recv are called only for
// (src, dst) pairs whose needs list is non-empty — empty packets never
// travel, and both sides consult the same needs lists, so skipping them
// cannot deadlock the protocol.
type Exchange interface {
	// Send ships the rows rank dst needs for the given step, copying or
	// serializing them before it returns. It must not block
	// indefinitely on a healthy peer (the in-process transport buffers
	// one packet per step; the wire transport writes into the peer's
	// socket, whose reader drains it continuously).
	Send(dst, step int, pk Packet) error
	// Recv returns the packet rank src sent for the given step.
	Recv(src, step int) (Packet, error)
}

// CommStats accumulates transport-level accounting shared by all ranks
// of a run.
type CommStats struct {
	// Bytes is the total payload volume (PayloadBytes of every packet).
	Bytes atomic.Int64
	// Messages counts point-to-point packets actually sent; since empty
	// needs lists are skipped, this matches what a real MPI run ships.
	Messages atomic.Int64
}

// chanExchange is the in-process Exchange: one buffered channel per
// (src, dst, exchanging step) triple with a non-empty needs list. Send
// copies the rows: they alias the sender's table, which the sender
// releases once its own consuming step is done. A capacity-1
// channel per triple means a sender never blocks (each triple carries
// exactly one packet per iteration) and a receiver blocks only until
// its peer ships the step — which it always does, even under
// cancellation, because ranks fast-forward through the protocol instead
// of abandoning it.
type chanExchange struct {
	rank int
	mail mailbox
	comm *CommStats
}

// mailbox holds the per-iteration channels: mail[src][dst][step].
// Channels exist only for pairs with non-empty needs lists and for
// exchanging steps; a missing entry is a protocol bug (Send/Recv on a
// pair or step that should never talk).
type mailbox [][]map[int]chan Packet

// newMailbox builds the channel grid for one iteration.
func (e *Engine) newMailbox() mailbox {
	p := e.cfg.Ranks
	mail := make(mailbox, p)
	for s := 0; s < p; s++ {
		mail[s] = make([]map[int]chan Packet, p)
		for d := 0; d < p; d++ {
			if s == d || len(e.needs[s][d]) == 0 {
				continue
			}
			m := make(map[int]chan Packet, len(e.exchangeSteps))
			for _, step := range e.exchangeSteps {
				m[step] = make(chan Packet, 1)
			}
			mail[s][d] = m
		}
	}
	return mail
}

func (x *chanExchange) Send(dst, step int, pk Packet) error {
	x.comm.Messages.Add(1)
	x.comm.Bytes.Add(pk.PayloadBytes())
	x.mail[x.rank][dst][step] <- pk.clone()
	return nil
}

func (x *chanExchange) Recv(src, step int) (Packet, error) {
	return <-x.mail[src][x.rank][step], nil
}
