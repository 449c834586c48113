// Package dist implements the paper's stated future work — "partitioning
// the dynamic programming table for execution on a distributed-memory
// platform" (the PARSE/SAHAD direction) — as a message-passing protocol:
// the vertex set is block-partitioned across P ranks, each rank owns the
// table rows of its vertices for every subtemplate, and before each DP
// step whose passive child is an internal node, ranks exchange that
// child's rows of their boundary ("ghost") vertices with the ranks that
// need them.
//
// The rank-local DP runs on internal/dp's lane kernels (dp.RankPass).
// Every rank derives the full coloring from the seed and holds the whole
// graph and its labels, so leaf children are implicit and steps whose
// passive child is a leaf exchange nothing. This package is the protocol
// driver around that pass: partitioning, needs lists, the step schedule,
// send and receive. Ranks run here as goroutines communicating only
// through typed channels, and internal/shard runs the same protocol over
// TCP (wire version 2). No rank ever reads another rank's table memory
// directly, so the communication volume reported is exactly what a real
// MPI implementation would ship. Rank tables take no arena: free-listed
// slabs count as live memory and the GC target doubles them, which
// paired runs of the shard benchmark showed as a 24–31% higher p90 RSS
// for iterations about 15% shorter (DESIGN.md §7.1).
//
// The distributed run is bit-identical to the shared-memory engine under
// the same seed, which the tests assert exactly.
package dist

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/table"
	"repro/internal/tmpl"
)

// ErrEmptyGraph is returned by New for a graph with no vertices: the
// block partition would divide by zero in the owner lookup (v*p/n with
// n = 0), and there is nothing to count anyway.
var ErrEmptyGraph = errors.New("dist: graph has no vertices")

// Config controls a distributed counting run.
type Config struct {
	// Ranks is the number of simulated distributed-memory ranks.
	Ranks int
	// Colors is the number of colors (0 = template size).
	Colors int
	// Strategy selects the partitioning heuristic (matching dp.Config).
	Strategy part.Strategy
	// Seed drives colorings; iteration i colors with Seed+i, exactly as
	// the shared-memory engine does, so results are comparable.
	Seed int64
}

// Result reports a distributed run.
type Result struct {
	// Estimate is the mean over iterations of the scaled colorful count.
	Estimate float64
	// PerIteration holds each iteration's estimate.
	PerIteration []float64
	// CommBytes is the total payload volume exchanged between ranks
	// across all iterations (row values plus vertex ids).
	CommBytes int64
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// MaxRankRows is the largest number of table rows held by any single
	// rank for any single subtemplate — the per-node memory the
	// partitioning is meant to bound. Implicit leaves hold no rows.
	MaxRankRows int
}

// Engine is a prepared distributed counter: a one-lane dp engine that
// every rank's pass runs on, plus the partition and the step schedule.
type Engine struct {
	dp   *dp.Engine
	tree *part.Tree
	cfg  Config

	// Vertex ownership: rank r owns [bounds[r], bounds[r+1]).
	bounds []int32
	// needs[s][r] lists the vertices owned by rank s that rank r needs
	// as ghosts (s-owned vertices adjacent to at least one r-owned
	// vertex), sorted ascending. Computed once.
	needs [][][]int32

	// exchangeSteps lists the evaluation-order positions that exchange
	// ghost rows (internal nodes whose passive child is internal), and
	// exchanges marks them by position.
	exchangeSteps []int
	exchanges     []bool
	// passiveStep maps every internal node some parent consumes as its
	// passive child to that parent's position, where its boundary rows
	// must arrive.
	passiveStep map[*part.Node]int

	// plans[r] is rank r's ghost-slot layout, built on first use: a
	// shard worker runs one rank and needs only its own.
	plans []rankPlan
}

// rankPlan places the ghost rows one rank receives: the rows from
// source s fill slots off[s], off[s]+1, … in s's needs-list order, and
// slot[u] names remote vertex u's slot (-1 when u is no ghost).
type rankPlan struct {
	once sync.Once
	slot []int32
	off  []int
	n    int
}

// New prepares a distributed engine.
func New(g *graph.Graph, t *tmpl.Template, cfg Config) (*Engine, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("dist: ranks must be >= 1, got %d", cfg.Ranks)
	}
	if g == nil || g.N() < 1 {
		return nil, ErrEmptyGraph
	}
	if !t.IsTree() {
		return nil, fmt.Errorf("dist: template %s is not a tree", t.Name())
	}
	// Vertex ids define ownership, so the engine never relabels; every
	// node feeds one parent (no sharing), and a rank pass is one lane on
	// one worker over Lazy tables, whose rows exist only where owned.
	de, err := dp.New(g, t, dp.Config{
		Colors:         cfg.Colors,
		TableKind:      table.Lazy,
		Strategy:       cfg.Strategy,
		Mode:           dp.Inner,
		Workers:        1,
		Seed:           cfg.Seed,
		RootVertex:     -1,
		Batch:          1,
		MemBudgetBytes: -1,
		Reorder:        dp.ReorderOff,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{dp: de, tree: de.Tree(), cfg: cfg, plans: make([]rankPlan, cfg.Ranks)}
	e.partitionVertices(g)
	order := e.tree.Order
	e.exchanges = make([]bool, len(order))
	e.passiveStep = map[*part.Node]int{}
	for i, n := range order {
		if n.IsLeaf() || n.Passive.IsLeaf() {
			continue
		}
		e.exchangeSteps = append(e.exchangeSteps, i)
		e.exchanges[i] = true
		e.passiveStep[n.Passive] = i
	}
	return e, nil
}

// Ranks returns the configured rank count.
func (e *Engine) Ranks() int { return e.cfg.Ranks }

// Bounds returns rank r's owned vertex block [lo, hi).
func (e *Engine) Bounds(r int) (lo, hi int32) { return e.bounds[r], e.bounds[r+1] }

// NeedList returns the vertices owned by rank src that rank dst needs as
// ghosts, in the canonical wire order. The returned slice is shared and
// must not be mutated.
func (e *Engine) NeedList(src, dst int) []int32 { return e.needs[src][dst] }

// Steps returns the number of positions in the DP evaluation order.
func (e *Engine) Steps() int { return len(e.tree.Order) }

// ExchangeSteps returns the number of positions that exchange boundary
// rows; when it is zero ranks never talk.
func (e *Engine) ExchangeSteps() int { return len(e.exchangeSteps) }

// Scale returns the divisor that turns a summed colorful total into an
// occurrence estimate: the colorful probability times the automorphism
// count. A coordinator merging per-rank totals must compute
// sum / Scale() to stay bit-identical with the in-process runtime.
func (e *Engine) Scale() float64 {
	return e.dp.ColorfulProbability() * float64(e.dp.Automorphisms())
}

// partitionVertices block-partitions the vertex set and precomputes the
// ghost exchange lists.
func (e *Engine) partitionVertices(g *graph.Graph) {
	n := int32(g.N())
	p := e.cfg.Ranks
	e.bounds = make([]int32, p+1)
	for r := 0; r <= p; r++ {
		e.bounds[r] = int32(int64(n) * int64(r) / int64(p))
	}
	e.needs = make([][][]int32, p)
	seen := make([]int32, g.N()) // stamp per (s,r) pass
	stamp := int32(0)
	for s := 0; s < p; s++ {
		e.needs[s] = make([][]int32, p)
	}
	for r := 0; r < p; r++ {
		// Vertices rank r needs: remote neighbors of its owned vertices.
		stamp++
		for v := e.bounds[r]; v < e.bounds[r+1]; v++ {
			for _, u := range g.Adj(v) {
				s := e.owner(u)
				if s == r || seen[u] == stamp {
					continue
				}
				seen[u] = stamp
				e.needs[s][r] = append(e.needs[s][r], u)
			}
		}
		for s := 0; s < p; s++ {
			lst := e.needs[s][r]
			sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		}
	}
}

// owner returns the rank owning vertex v: a proportional guess
// corrected for rounding, with no binary search.
func (e *Engine) owner(v int32) int {
	p := e.cfg.Ranks
	n := e.bounds[p]
	r := int(int64(v) * int64(p) / int64(n))
	for r > 0 && v < e.bounds[r] {
		r--
	}
	for r < p-1 && v >= e.bounds[r+1] {
		r++
	}
	return r
}

// plan returns rank r's ghost-slot layout, building it on first use.
func (e *Engine) plan(r int) *rankPlan {
	pl := &e.plans[r]
	pl.once.Do(func() {
		pl.slot = make([]int32, e.bounds[e.cfg.Ranks])
		for i := range pl.slot {
			pl.slot[i] = -1
		}
		pl.off = make([]int, e.cfg.Ranks)
		for s := range e.needs {
			pl.off[s] = pl.n
			for _, u := range e.needs[s][r] {
				pl.slot[u] = int32(pl.n)
				pl.n++
			}
		}
	})
	return pl
}

// GhostCounts returns, per rank, how many ghost vertices it receives per
// exchanging DP step — diagnostics for partitioning quality.
func (e *Engine) GhostCounts() []int {
	out := make([]int, e.cfg.Ranks)
	for r := range out {
		for s := 0; s < e.cfg.Ranks; s++ {
			out[r] += len(e.needs[s][r])
		}
	}
	return out
}
