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

	"repro/internal/comb"
	"repro/internal/dp"
	"repro/internal/part"
	"repro/internal/tmpl"
)

// ErrNoShards reports that no registered shard (outside the excluded
// set) covers the queried graph; the caller falls back to local
// execution for whatever iterations remain.
var ErrNoShards = errors.New("shard: no shards cover the graph")

// workerError is a run-level error a worker reported over the wire
// (as opposed to a connection failure).
type workerError struct{ msg string }

func (e workerError) Error() string { return "shard: worker: " + e.msg }

// excludable reports whether the error means "this shard cannot serve
// the run right now" (draining, missing graph copy, another protocol
// version) — grounds for excluding the shard and re-dispatching —
// rather than a deterministic query error that would fail identically
// everywhere.
func (e workerError) excludable() bool {
	return strings.Contains(e.msg, "draining") || strings.Contains(e.msg, "not registered") ||
		strings.Contains(e.msg, "protocol version")
}

// PoolOptions configures a coordinator pool.
type PoolOptions struct {
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// DialTimeout bounds each shard dial (default 5s).
	DialTimeout time.Duration
	// HelloTimeout bounds the control handshake (default 10s).
	HelloTimeout time.Duration
}

// shardEntry is one registered shard worker.
type shardEntry struct {
	addr   string
	graphs map[uint64]bool
}

// ShardInfo describes a registered shard for listings.
type ShardInfo struct {
	Addr   string
	Graphs []uint64 // sorted
}

// PoolStats aggregates the pool's lifetime counters.
type PoolStats struct {
	Shards       int
	Queries      int64
	Redispatches int64
	Failures     int64
}

// Pool is the coordinator's view of the shard tier: a registry of
// worker addresses with the graphs each holds, and the dispatch logic
// that fans a query's iterations out to a group, collects the per-rank
// totals, and re-dispatches after shard loss.
type Pool struct {
	logf         func(string, ...any)
	dialTimeout  time.Duration
	helloTimeout time.Duration

	mu     sync.Mutex
	shards map[string]*shardEntry // guarded by mu

	nextRun      atomic.Uint64
	queries      atomic.Int64
	redispatches atomic.Int64
	failures     atomic.Int64
}

// NewPool returns an empty pool.
func NewPool(opts PoolOptions) *Pool {
	p := &Pool{
		logf:         opts.Logf,
		dialTimeout:  opts.DialTimeout,
		helloTimeout: opts.HelloTimeout,
		shards:       map[string]*shardEntry{},
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	if p.dialTimeout <= 0 {
		p.dialTimeout = 5 * time.Second
	}
	if p.helloTimeout <= 0 {
		p.helloTimeout = 10 * time.Second
	}
	// Run ids need only be unique per worker lifetime; salting with the
	// clock keeps a restarted coordinator from colliding with runs a
	// prior incarnation left on long-lived workers.
	p.nextRun.Store(uint64(time.Now().UnixNano()))
	return p
}

// Register adds (or refreshes) a shard and the graph hashes it serves.
// Returns the resulting shard count.
func (p *Pool) Register(addr string, graphs []uint64) int {
	e := &shardEntry{addr: addr, graphs: make(map[uint64]bool, len(graphs))}
	for _, h := range graphs {
		e.graphs[h] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shards[addr] = e
	return len(p.shards)
}

// Deregister removes a shard; reports whether it was present.
func (p *Pool) Deregister(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.shards[addr]
	delete(p.shards, addr)
	return ok
}

// List returns the registered shards sorted by address.
func (p *Pool) List() []ShardInfo {
	p.mu.Lock()
	out := make([]ShardInfo, 0, len(p.shards))
	for _, e := range p.shards {
		info := ShardInfo{Addr: e.addr, Graphs: make([]uint64, 0, len(e.graphs))}
		for h := range e.graphs {
			info.Graphs = append(info.Graphs, h)
		}
		sort.Slice(info.Graphs, func(i, j int) bool { return info.Graphs[i] < info.Graphs[j] })
		out = append(out, info)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Covers reports how many registered shards hold the graph.
func (p *Pool) Covers(hash uint64) int {
	return len(p.group(hash, nil, 0))
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	n := len(p.shards)
	p.mu.Unlock()
	return PoolStats{
		Shards:       n,
		Queries:      p.queries.Load(),
		Redispatches: p.redispatches.Load(),
		Failures:     p.failures.Load(),
	}
}

// group returns the dispatch group for a graph: covering shards minus
// the excluded set, sorted by address (the rank order — deterministic
// so a fixed fleet yields a fixed partition), capped at max when
// max > 0.
func (p *Pool) group(hash uint64, excluded map[string]bool, max int) []string {
	p.mu.Lock()
	out := make([]string, 0, len(p.shards))
	for addr, e := range p.shards {
		if e.graphs[hash] && !excluded[addr] {
			out = append(out, addr)
		}
	}
	p.mu.Unlock()
	sort.Strings(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Query is one sharded counting request: iterations [Seed, Seed+Iterations)
// of the canonical per-iteration estimate stream for (graph, template,
// colors, strategy).
type Query struct {
	GraphHash uint64
	// GraphN is the coordinator's vertex count, cross-checked against
	// every shard's local copy during the hello.
	GraphN     int
	Template   *tmpl.Template
	Colors     int // 0 = template size
	Strategy   part.Strategy
	Seed       int64
	Iterations int
	// MaxShards caps the group size (0 = use every covering shard).
	MaxShards int
	// Converge, when non-nil, makes the dispatch adaptive: instead of
	// running all Iterations up front, the coordinator sends
	// doubling-sized waves and stops as soon as the estimate stream
	// (Prior plus dispatched waves) meets the variance target.
	// Iterations then caps the fresh iterations dispatched.
	Converge *ConvergeSpec
}

// ConvergeSpec is the variance target of an adaptive dispatch.
type ConvergeSpec struct {
	// RelStdErr is the relative-standard-error-of-the-mean target over
	// the full estimate stream.
	RelStdErr float64
	// MinIters is the minimum total stream length (counting Prior)
	// before the target may stop the dispatch (< 2 is raised to 2).
	MinIters int
	// Prior holds per-iteration estimates already known for seeds
	// [Seed-len(Prior), Seed) — a cache prefix the target counts.
	Prior []float64
}

// Outcome reports a sharded dispatch.
type Outcome struct {
	// PerIteration holds the completed prefix of the iteration stream —
	// bit-identical to the in-process engine under the same seed.
	PerIteration []float64
	// Messages and CommBytes aggregate the inter-shard row exchange
	// under the dist cost model; Groups and GroupedFrames describe the
	// adaptive send grouping (GroupedFrames frames in Groups flushes).
	Messages      int64
	CommBytes     int64
	Groups        int64
	GroupedFrames int64
	// MaxRankRows is the largest per-subtemplate row count any shard held.
	MaxRankRows int
	// Shards is the group size of the final dispatch; Redispatches
	// counts group rebuilds after shard loss; FailedShards lists the
	// addresses dropped along the way.
	Shards       int
	Redispatches int
	FailedShards []string
}

// Count runs the query over the shard tier. On shard loss it marks the
// unfinished iterations failed and re-dispatches them to the surviving
// shards (the lost shard excluded); the completed per-iteration prefix
// is never discarded, and because the estimate stream is invariant to
// the group size the splice is bit-exact. Returns ErrNoShards (with
// whatever prefix completed) once no eligible shard remains, and
// ctx.Err() on cancellation — in both cases the Outcome still carries
// the completed prefix.
func (p *Pool) Count(ctx context.Context, q Query) (Outcome, error) {
	var out Outcome
	if q.Iterations < 1 {
		return out, fmt.Errorf("shard: iterations must be >= 1, got %d", q.Iterations)
	}
	k := q.Colors
	if k == 0 {
		k = q.Template.K()
	}
	if k < q.Template.K() || k > comb.MaxColors {
		return out, fmt.Errorf("shard: invalid color count %d for template size %d", k, q.Template.K())
	}
	// The identical expression to dist.Engine.Scale — the coordinator
	// must divide the summed rank totals exactly as the in-process
	// runtime does to stay bit-identical.
	scale := dp.ColorfulProbability(k, q.Template.K()) * float64(q.Template.Automorphisms())
	p.queries.Add(1)

	excluded := map[string]bool{}
	if q.Converge != nil {
		return p.countConverged(ctx, q, k, scale, excluded)
	}
	ests, err := p.dispatch(ctx, q, k, scale, excluded, q.Seed, q.Iterations, &out)
	out.PerIteration = ests
	return out, err
}

// countConverged is the adaptive dispatch loop: waves of iterations go
// out until the estimate stream (Converge.Prior plus everything
// dispatched) meets the variance target or q.Iterations fresh
// iterations are exhausted. The first wave tops the stream up to
// MinIters; each later wave doubles the stream, so the per-wave dial
// overhead stays logarithmic in the total while the overshoot past the
// exact stop point is bounded by 2x — and the overshoot is then
// truncated at dp.StopIndex, so the returned prefix is bit-identical to a
// local adaptive run over the same seeds.
func (p *Pool) countConverged(ctx context.Context, q Query, k int, scale float64, excluded map[string]bool) (Outcome, error) {
	var out Outcome
	c := q.Converge
	minIters := c.MinIters
	if minIters < 2 {
		minIters = 2
	}
	stream := append([]float64(nil), c.Prior...)
	finish := func(err error) (Outcome, error) {
		keep := len(stream) - len(c.Prior)
		if idx := dp.StopIndex(stream, c.RelStdErr, minIters); idx >= 0 {
			if f := idx - len(c.Prior); f < keep {
				keep = max(f, 0)
			}
		}
		out.PerIteration = append([]float64(nil), stream[len(c.Prior):len(c.Prior)+keep]...)
		return out, err
	}
	for {
		if dp.StopIndex(stream, c.RelStdErr, minIters) >= 0 {
			return finish(nil)
		}
		rem := q.Iterations - (len(stream) - len(c.Prior))
		if rem <= 0 {
			return finish(nil)
		}
		wave := minIters - len(stream)
		if wave < 1 {
			wave = len(stream)
		}
		if wave > rem {
			wave = rem
		}
		base := q.Seed + int64(len(stream)-len(c.Prior))
		ests, err := p.dispatch(ctx, q, k, scale, excluded, base, wave, &out)
		stream = append(stream, ests...)
		if err != nil {
			return finish(err)
		}
	}
}

// dispatch runs iters iterations [base, base+iters) over the shard
// tier, excluding lost shards and re-dispatching the remainder until
// the range completes or no eligible shard remains. It returns the
// completed contiguous per-iteration prefix and folds transport
// accounting into out.
func (p *Pool) dispatch(ctx context.Context, q Query, k int, scale float64, excluded map[string]bool, base int64, iters int, out *Outcome) ([]float64, error) {
	var acc []float64
	remaining := iters
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return acc, err
		}
		group := p.group(q.GraphHash, excluded, q.MaxShards)
		if len(group) == 0 {
			return acc, ErrNoShards
		}
		out.Shards = len(group)
		ests, gs, failedAddr, err := p.runGroup(ctx, group, q, k, scale, base, remaining)
		acc = append(acc, ests...)
		base += int64(len(ests))
		remaining -= len(ests)
		out.Messages += gs.messages
		out.CommBytes += gs.commBytes
		out.Groups += gs.groups
		out.GroupedFrames += gs.groupedFrames
		if gs.maxRows > out.MaxRankRows {
			out.MaxRankRows = gs.maxRows
		}
		if err == nil && failedAddr == "" {
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			return acc, cerr
		}
		if failedAddr != "" {
			p.logf("shard: lost %s mid-run (%v); re-dispatching %d iterations to %d survivors",
				failedAddr, err, remaining, len(group)-1)
			excluded[failedAddr] = true
			out.FailedShards = append(out.FailedShards, failedAddr)
			p.failures.Add(1)
			if remaining > 0 {
				out.Redispatches++
				p.redispatches.Add(1)
			}
			continue
		}
		return acc, err
	}
	return acc, nil
}

// groupStats aggregates one dispatch's transport accounting.
type groupStats struct {
	messages      int64
	commBytes     int64
	groups        int64
	groupedFrames int64
	maxRows       int
}

// event is one frame from one shard's control connection.
type event struct {
	rank int
	iter *iterMsg
	done *doneMsg
	err  error
}

// runGroup dispatches iterations [base, base+iters) across group (one
// rank per shard, in slice order) and collects the stream. Returns the
// completed contiguous per-iteration prefix; failedAddr names the shard
// to exclude when the dispatch died of connection loss or refusal.
func (p *Pool) runGroup(ctx context.Context, group []string, q Query, k int, scale float64, base int64, iters int) (ests []float64, gs groupStats, failedAddr string, err error) {
	ranks := len(group)
	runID := p.nextRun.Add(1)

	conns := make([]net.Conn, ranks)
	brs := make([]*bufio.Reader, ranks)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}

	// Phase 1: dial + hello every shard before any run request goes
	// out, so a dead shard is discovered while aborting is still free.
	type dialOut struct {
		rank int
		conn net.Conn
		br   *bufio.Reader
		err  error
	}
	dialCh := make(chan dialOut, ranks)
	for i, addr := range group {
		go func(i int, addr string) {
			conn, br, derr := p.dialControl(ctx, addr, q)
			dialCh <- dialOut{rank: i, conn: conn, br: br, err: derr}
		}(i, addr)
	}
	var dialErr error
	failedRank := -1
	for range group {
		d := <-dialCh
		conns[d.rank], brs[d.rank] = d.conn, d.br
		if d.err != nil && dialErr == nil {
			dialErr, failedRank = d.err, d.rank
		}
	}
	if dialErr != nil {
		closeAll()
		var we workerError
		if errors.As(dialErr, &we) && !we.excludable() {
			return nil, gs, "", dialErr
		}
		return nil, gs, group[failedRank], dialErr
	}

	// Phase 2: run requests. Peers is the full group so every worker
	// derives the same rank→address map.
	labels := templateLabels(q.Template)
	for i := range group {
		req := runRequest{
			RunID:     runID,
			GraphHash: q.GraphHash,
			Rank:      uint32(i),
			Ranks:     uint32(ranks),
			Colors:    uint32(k),
			Strategy:  uint32(q.Strategy),
			Seed:      base,
			Iters:     uint32(iters),
			TK:        uint32(q.Template.K()),
			Template:  templateSpec(q.Template),
			Labels:    labels,
			Peers:     group,
		}
		conns[i].SetWriteDeadline(time.Now().Add(p.helloTimeout))
		if werr := writeFrame(conns[i], msgRun, encodeRun(req)); werr != nil {
			closeAll()
			return nil, gs, group[i], fmt.Errorf("shard: sending run to %s: %w", group[i], werr)
		}
		conns[i].SetWriteDeadline(time.Time{})
	}

	// Phase 3: collect. Readers demux each conn into one event stream;
	// the buffer holds every possible event so a reader can never block
	// after the aggregation loop bails out early.
	ch := make(chan event, ranks*(iters+2))
	var wg sync.WaitGroup
	for i := range group {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			readControl(i, brs[i], ch)
		}(i)
	}
	unwatch := context.AfterFunc(ctx, closeAll)
	defer unwatch()

	next := make([]int, ranks) // per-rank contiguous iterations received
	totals := make([][]float64, iters)
	for i := range totals {
		totals[i] = make([]float64, ranks)
	}
	pending := ranks
	for pending > 0 && err == nil {
		ev := <-ch
		switch {
		case ev.err != nil:
			err = ev.err
			failedAddr = group[ev.rank]
		case ev.iter != nil:
			if int(ev.iter.Iter) != next[ev.rank] || next[ev.rank] >= iters {
				err = fmt.Errorf("shard: %s sent iteration %d out of order (want %d)", group[ev.rank], ev.iter.Iter, next[ev.rank])
				failedAddr = group[ev.rank]
				break
			}
			totals[next[ev.rank]][ev.rank] = ev.iter.Total
			next[ev.rank]++
		case ev.done != nil:
			if next[ev.rank] != iters {
				err = fmt.Errorf("shard: %s finished after %d of %d iterations", group[ev.rank], next[ev.rank], iters)
				failedAddr = group[ev.rank]
				break
			}
			gs.messages += ev.done.Messages
			gs.commBytes += ev.done.CommBytes
			gs.groups += int64(ev.done.Groups)
			gs.groupedFrames += int64(ev.done.GroupedFrames)
			if int(ev.done.MaxRows) > gs.maxRows {
				gs.maxRows = int(ev.done.MaxRows)
			}
			pending--
		}
	}
	closeAll()
	wg.Wait()

	// The completed prefix: iterations every rank reported. Totals are
	// summed in rank order — the bit-identity contract with the
	// in-process engines.
	prefix := iters
	for _, n := range next {
		if n < prefix {
			prefix = n
		}
	}
	ests = make([]float64, prefix)
	for i := 0; i < prefix; i++ {
		var sum float64
		for r := 0; r < ranks; r++ {
			sum += totals[i][r]
		}
		ests[i] = sum / scale
	}
	if err != nil {
		var we workerError
		if errors.As(err, &we) && !we.excludable() {
			// Deterministic run error: retrying elsewhere would fail the
			// same way, so surface it instead of excluding the shard.
			return ests, gs, "", err
		}
	}
	return ests, gs, failedAddr, err
}

// dialControl opens a control connection and completes the hello,
// cross-checking the shard's graph copy.
func (p *Pool) dialControl(ctx context.Context, addr string, q Query) (net.Conn, *bufio.Reader, error) {
	d := net.Dialer{Timeout: p.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(p.helloTimeout))
	if err := writeFrame(conn, msgHello, encodeHello(hello{Kind: kindControl, GraphHash: q.GraphHash})); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	t, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	switch t {
	case msgHelloOK:
		ok, derr := decodeHelloOK(payload)
		if derr != nil {
			conn.Close()
			return nil, nil, derr
		}
		if int(ok.N) != q.GraphN {
			conn.Close()
			return nil, nil, fmt.Errorf("shard: %s holds a %d-vertex copy, coordinator has %d", addr, ok.N, q.GraphN)
		}
		conn.SetDeadline(time.Time{})
		return conn, br, nil
	case msgErr:
		msg, _ := decodeErr(payload)
		conn.Close()
		return nil, nil, workerError{msg: msg}
	default:
		conn.Close()
		return nil, nil, fmt.Errorf("shard: unexpected frame type %d in control handshake", t)
	}
}

// readControl pumps one shard's control stream into the event channel.
func readControl(rank int, br *bufio.Reader, ch chan<- event) {
	for {
		t, payload, err := readFrame(br)
		if err != nil {
			ch <- event{rank: rank, err: fmt.Errorf("shard: control stream: %w", err)}
			return
		}
		switch t {
		case msgIter:
			m, derr := decodeIter(payload)
			if derr != nil {
				ch <- event{rank: rank, err: derr}
				return
			}
			ch <- event{rank: rank, iter: &m}
		case msgDone:
			m, derr := decodeDone(payload)
			if derr != nil {
				ch <- event{rank: rank, err: derr}
				return
			}
			ch <- event{rank: rank, done: &m}
			return
		case msgErr:
			msg, _ := decodeErr(payload)
			ch <- event{rank: rank, err: workerError{msg: msg}}
			return
		default:
			ch <- event{rank: rank, err: fmt.Errorf("shard: unexpected frame type %d on control stream", t)}
			return
		}
	}
}

// templateLabels extracts a labeled template's label vector (nil for
// unlabeled templates).
func templateLabels(t *tmpl.Template) []int32 {
	if !t.Labeled() {
		return nil
	}
	out := make([]int32, t.K())
	for v := range out {
		out[v] = t.Label(v)
	}
	return out
}
