package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fascia "repro"
	"repro/internal/dp"
	"repro/internal/shard"
)

// Config sizes a Server. The zero value is usable: GOMAXPROCS workers,
// 2 run slots, a 16-deep wait queue, a 64 MiB cache, 32-iteration
// queries bounded to 30 s.
type Config struct {
	// WorkerBudget is the global worker-goroutine budget shared by all
	// concurrent queries (0 = GOMAXPROCS). divideBudget carves it across
	// the run slots with nothing stranded.
	WorkerBudget int
	// MaxConcurrent is the number of queries that may run DP iterations
	// at once (0 = 2; capped at WorkerBudget).
	MaxConcurrent int
	// QueueDepth bounds queries waiting behind the run slots; beyond it,
	// admission control rejects with 429 + Retry-After (0 = 16, negative
	// = no waiting room).
	QueueDepth int
	// MaxRemoteConcurrent bounds queries dispatched to the shard tier at
	// once (0 = 4). Remote runs are network-bound and do not consume the
	// local worker budget, but each pins O(shards) connections.
	MaxRemoteConcurrent int
	// CacheBytes budgets the seed-keyed result cache (0 = 64 MiB).
	CacheBytes int64
	// MemBudgetBytes is the per-query peak table-memory budget applied
	// to every local DP run (Options.MemBudgetBytes: large table slabs
	// spill to file-backed mappings; 0 = the FASCIA_MEM_BYTES env or
	// unlimited). Execution-only — it never affects estimates or cache
	// keys.
	MemBudgetBytes int64
	// DefaultIterations is used when a query omits iterations (0 = 32).
	DefaultIterations int
	// MaxIterations caps per-query iterations (0 = 100000).
	MaxIterations int
	// DefaultTimeout bounds queries that omit timeout_ms (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps per-query deadlines (0 = 5m).
	MaxTimeout time.Duration
	// MaxUploadBytes caps graph-upload request bodies (0 = 256 MiB).
	MaxUploadBytes int64
	// Logf receives server-side diagnostics that have no client to go to
	// (e.g. a response body that failed to encode because the client hung
	// up mid-write). nil = log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultIterations <= 0 {
		c.DefaultIterations = 32
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 100000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the counting service: registry + scheduler + cache behind an
// http.Handler. Create with New, serve via ServeHTTP, stop with Drain.
type Server struct {
	cfg      Config
	registry *Registry
	cache    *Cache
	sched    *scheduler
	pool     *shard.Pool
	mux      *http.ServeMux

	// drainMu orders query admission against drain: queries join the
	// inflight group under RLock, Drain flips draining under Lock, so no
	// query can slip in after Drain has begun waiting.
	drainMu  sync.RWMutex
	draining bool // guarded by drainMu
	inflight sync.WaitGroup
	// drainCtx is the parent of every query context; Drain cancels it to
	// flush in-flight queries as partial means.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	queries        atomic.Int64
	rejected       atomic.Int64
	partialResults atomic.Int64
	queryErrors    atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		cache:    NewCache(cfg.CacheBytes),
		sched:    newScheduler(cfg.WorkerBudget, cfg.MaxConcurrent, cfg.QueueDepth, cfg.MaxRemoteConcurrent),
		pool:     shard.NewPool(shard.PoolOptions{Logf: cfg.Logf}),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("POST /v1/graphs", s.handleAddGraph)
	s.mux.HandleFunc("POST /v1/count", s.handleCount)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/shards", s.handleListShards)
	s.mux.HandleFunc("POST /v1/shards", s.handleAddShard)
	s.mux.HandleFunc("DELETE /v1/shards", s.handleRemoveShard)
	return s
}

// Registry exposes the graph registry (for preloading graphs at boot).
func (s *Server) Registry() *Registry { return s.registry }

// Pool exposes the shard-tier coordinator pool (for boot-time shard
// registration and tests).
func (s *Server) Pool() *shard.Pool { return s.pool }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain performs graceful shutdown of query processing: stop admitting
// (new queries get 503), cancel every in-flight query via its context —
// each flushes its partial mean to its client with ctx.Err() semantics —
// and wait for them to finish, bounded by ctx. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		mDrains.Add(1)
	}
	s.drainCancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out with queries in flight: %w", ctx.Err())
	}
}

// beginQuery joins the in-flight group unless the server is draining.
func (s *Server) beginQuery() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Queries counts count-queries that produced a response body
	// (including partial results); Rejected counts 429s and 503s.
	Queries        int64 `json:"queries"`
	Rejected       int64 `json:"rejected"`
	PartialResults int64 `json:"partial_results"`
	QueryErrors    int64 `json:"query_errors"`
	Draining       bool  `json:"draining"`
	// Queued and Running gauge scheduler occupancy; Slots and QueueCap
	// are its static limits; WorkerBudgets is the per-slot carve-up.
	Queued        int64 `json:"queued"`
	Running       int64 `json:"running"`
	Slots         int   `json:"slots"`
	QueueCap      int   `json:"queue_cap"`
	WorkerBudgets []int `json:"worker_budgets"`
	// RunningRemote gauges queries currently executing on the shard tier.
	RunningRemote int64 `json:"running_remote"`
	// Shards counts registered shard workers; ShardQueries, Redispatches
	// and Failures are the pool's lifetime dispatch counters.
	Shards            int   `json:"shards"`
	ShardQueries      int64 `json:"shard_queries"`
	ShardRedispatches int64 `json:"shard_redispatches"`
	ShardFailures     int64 `json:"shard_failures"`
	// Graphs counts registered graphs; Cache snapshots the result cache.
	Graphs int        `json:"graphs"`
	Cache  CacheStats `json:"cache"`
}

// Stats returns the server's current counters.
func (s *Server) Stats() Stats {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	ps := s.pool.Stats()
	return Stats{
		Queries:           s.queries.Load(),
		Rejected:          s.rejected.Load(),
		PartialResults:    s.partialResults.Load(),
		QueryErrors:       s.queryErrors.Load(),
		Draining:          draining,
		Queued:            s.sched.queued.Load(),
		Running:           s.sched.running.Load(),
		Slots:             cap(s.sched.slots),
		QueueCap:          cap(s.sched.queue),
		WorkerBudgets:     append([]int(nil), s.sched.budgets...),
		RunningRemote:     s.sched.runningRemote.Load(),
		Shards:            ps.Shards,
		ShardQueries:      ps.Queries,
		ShardRedispatches: ps.Redispatches,
		ShardFailures:     ps.Failures,
		Graphs:            len(s.registry.List()),
		Cache:             s.cache.Stats(),
	}
}

// CountRequest is the body of POST /v1/count.
type CountRequest struct {
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Template is a compact edge-list spec such as "0-1 1-2 1-3".
	Template string `json:"template"`
	// TemplateLabels optionally labels the template's vertices (requires
	// a labeled graph).
	TemplateLabels []int32 `json:"template_labels,omitempty"`
	// Iterations is the number of color-coding iterations (0 = server
	// default). Overlapping queries share work: with the same seed, a
	// larger request on top of a cached smaller one computes only the
	// residual iterations.
	Iterations int `json:"iterations,omitempty"`
	// Adaptive, when positive, replaces the fixed iteration count with
	// variance-targeted stopping: iterations run until the relative
	// standard error of the mean drops below this target, iterations
	// capping the run (0 = the server's iteration cap). The adaptive
	// stream follows the same seed schedule as a fixed run, so adaptive
	// and fixed queries share cache entries, and a converged response is
	// a bit-identical prefix of the fixed response.
	Adaptive float64 `json:"adaptive,omitempty"`
	// Seed bases the coloring seed stream; iteration i colors with
	// Seed+i.
	Seed int64 `json:"seed,omitempty"`
	// Colors overrides the color count (0 = template size).
	Colors int `json:"colors,omitempty"`
	// TimeoutMillis bounds this query; on expiry the partial mean over
	// completed iterations is returned with partial=true (0 = server
	// default; capped at the server max).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this query (it neither reads
	// nor extends entries).
	NoCache bool `json:"no_cache,omitempty"`
	// PerIteration includes the per-iteration estimates in the response.
	PerIteration bool `json:"per_iteration,omitempty"`
}

// CountResponse is the body of a successful (possibly partial) count.
type CountResponse struct {
	Graph    string  `json:"graph"`
	Template string  `json:"template"`
	Count    float64 `json:"count"`
	StdErr   float64 `json:"std_err"`
	// Iterations is the total behind Count; CachedIterations of them
	// came from the seed-keyed cache, the rest were computed now.
	Iterations       int `json:"iterations"`
	CachedIterations int `json:"cached_iterations"`
	// Cache is "hit", "partial", "miss", or "bypass".
	Cache string `json:"cache"`
	// ShardIterations counts the iterations computed by the shard tier
	// (neither cached nor computed locally); Shards is the dispatch group
	// size and ShardRedispatches the number of group rebuilds after shard
	// loss. All zero for queries the shard tier never saw.
	ShardIterations   int `json:"shard_iterations,omitempty"`
	Shards            int `json:"shards,omitempty"`
	ShardRedispatches int `json:"shard_redispatches,omitempty"`
	// Partial marks a query cut short by its deadline or a server drain;
	// Count is then the mean over the iterations that completed and
	// Error carries the context error.
	Partial       bool      `json:"partial,omitempty"`
	Error         string    `json:"error,omitempty"`
	ElapsedMillis float64   `json:"elapsed_ms"`
	PerIteration  []float64 `json:"per_iteration,omitempty"`
}

// writeJSON writes a JSON response body. An Encode failure cannot be
// reported to the client — the status line is already on the wire, and
// the usual cause is the client hanging up mid-write — so it is logged
// and counted (fascia.serve.response_encode_errors) instead of being
// silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		mEncodeErrors.Add(1)
		s.cfg.Logf("serve: encode %d response: %v", code, err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		s.httpError(w, http.StatusBadRequest, "missing ?name=")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	g, err := fascia.ReadGraph(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parse edge list: %v", err)
		return
	}
	info, err := s.registry.Add(name, g)
	if err != nil {
		s.httpError(w, http.StatusConflict, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// handleCount is the query path: validate → cache fast path → admission
// control → run-slot wait → residual DP run → cache extend → respond.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	if !s.beginQuery() {
		s.rejected.Add(1)
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.inflight.Done()
	start := time.Now()

	var req CountRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	g, info, ok := s.registry.Get(req.Graph)
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown graph %q", req.Graph)
		return
	}
	tr, err := fascia.ParseTemplate("query", req.Template)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parse template: %v", err)
		return
	}
	if req.TemplateLabels != nil {
		if g.Labels == nil {
			s.httpError(w, http.StatusBadRequest, "labeled template requires a labeled graph; %q is unlabeled", req.Graph)
			return
		}
		tr, err = tr.WithLabels("query", req.TemplateLabels)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "template labels: %v", err)
			return
		}
	}
	if req.Adaptive < 0 {
		s.httpError(w, http.StatusBadRequest, "adaptive %g must be positive", req.Adaptive)
		return
	}
	iters := req.Iterations
	if iters == 0 {
		if req.Adaptive > 0 {
			// Adaptive queries default to the server cap: the variance
			// target, not DefaultIterations, decides when to stop.
			iters = s.cfg.MaxIterations
		} else {
			iters = s.cfg.DefaultIterations
		}
	}
	if iters < 1 || iters > s.cfg.MaxIterations {
		s.httpError(w, http.StatusBadRequest, "iterations %d out of range [1, %d]", iters, s.cfg.MaxIterations)
		return
	}
	if req.Colors < 0 || req.Colors > 64 || (req.Colors > 0 && req.Colors < tr.K()) {
		s.httpError(w, http.StatusBadRequest, "colors %d invalid for a %d-vertex template (want 0 or %d..64)", req.Colors, tr.K(), tr.K())
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	opt := fascia.DefaultOptions().WithSeed(req.Seed).WithMemBudgetBytes(s.cfg.MemBudgetBytes)
	opt.Colors = req.Colors
	key := CacheKey{
		GraphHash: info.Hash,
		Template:  tr.CanonicalFree(),
		Options:   opt.Fingerprint(),
		Seed:      req.Seed,
	}

	// Cache fast path: a fully covered query is answered without
	// touching the scheduler at all, so hits stay cheap under load.
	kind := HitKind(-1) // bypass
	var prior []float64
	if !req.NoCache {
		prior, kind = s.cache.Lookup(key, iters)
		recordLookup(kind, len(prior))
	}
	// Adaptive fast path: if a prefix of the cached stream already meets
	// the variance target, the bit-identical adaptive answer is that
	// prefix — truncated at the exact stop index a from-scratch adaptive
	// run would have halted at, however much more the cache holds.
	if req.Adaptive > 0 && len(prior) > 0 {
		if idx := dp.StopIndex(prior, req.Adaptive, 2); idx >= 0 {
			res := fascia.MergeIterations(prior[:idx], fascia.Result{})
			s.respondCount(w, req, key, res, Hit, nil, start, shardSummary{})
			return
		}
	}
	if kind == Hit {
		res := fascia.MergeIterations(prior, fascia.Result{})
		s.respondCount(w, req, key, res, kind, nil, start, shardSummary{})
		return
	}

	// Admission control: bounded waiting room, 429 + Retry-After beyond.
	if err := s.sched.admit(); err != nil {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.retryAfter()))
		s.httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer s.sched.release()

	// Query context: client disconnect + server drain + per-query
	// deadline all cancel the DP run, which flushes its partial mean.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopDrainWatch := context.AfterFunc(s.drainCtx, cancel)
	defer stopDrainWatch()
	ctx, cancelTimeout := context.WithTimeout(ctx, timeout)
	defer cancelTimeout()

	// Shard tier: when registered shard workers cover this graph, the
	// residual iterations are dispatched to them first. The tier returns
	// a contiguous prefix of the same per-iteration stream the local
	// engine would compute (iteration i colors with Seed+i on every
	// engine), so whatever it completes splices in bit-identically and
	// any remainder — after shard loss exhausts the group, say — runs
	// locally from the advanced seed base.
	cached := len(prior)
	remaining := iters - cached
	var sh shardSummary
	var runErr error
	if remaining > 0 && s.pool.Covers(info.Hash) > 0 {
		if rerr := s.sched.acquireRemote(ctx); rerr == nil {
			q := shard.Query{
				GraphHash:  info.Hash,
				GraphN:     info.N,
				Template:   tr,
				Colors:     req.Colors,
				Strategy:   partStrategy(opt.Partition),
				Seed:       req.Seed + int64(len(prior)),
				Iterations: remaining,
			}
			if req.Adaptive > 0 {
				// Adaptive dispatch: the pool sends doubling waves and
				// stops (truncating at the exact stop index) once the
				// cached prefix plus its waves meet the target.
				q.Converge = &shard.ConvergeSpec{RelStdErr: req.Adaptive, MinIters: 2, Prior: prior}
			}
			out, serr := s.pool.Count(ctx, q)
			s.sched.releaseRemote()
			sh = shardSummary{iterations: len(out.PerIteration), shards: out.Shards, redispatches: out.Redispatches}
			mShardIterations.Add(int64(sh.iterations))
			prior = append(prior, out.PerIteration...)
			remaining -= sh.iterations
			switch {
			case serr == nil:
			case errors.Is(serr, context.Canceled) || errors.Is(serr, context.DeadlineExceeded):
				// The query context died mid-dispatch: flush the partial
				// mean exactly as a cancelled local run would.
				runErr = serr
				remaining = 0
			default:
				// Shard loss drained the group, or a worker refused the
				// run: keep the completed prefix, finish locally.
				mShardFallbacks.Add(1)
				s.cfg.Logf("serve: shard tier served %d of %d iterations (%v); computing %d locally",
					sh.iterations, sh.iterations+remaining, serr, remaining)
			}
		}
		// acquireRemote fails only when ctx is already done; the local
		// path below reports that as "cancelled while queued".
	}

	// An adaptive query whose stream (cache prefix + shard waves) has
	// met the variance target needs no local residual; the shard tier
	// already truncated its contribution at the exact stop index.
	if req.Adaptive > 0 && dp.StopIndex(prior, req.Adaptive, 2) >= 0 {
		remaining = 0
	}

	// Residual local run: iteration i of a run colors with Seed+i, so a
	// run based at Seed+len(prior) computes exactly the estimates the
	// cache and the shard tier did not provide, and the merge is
	// bit-identical to a from-scratch run. Adaptive queries run the
	// residual under the variance target instead of a fixed count, with
	// the prior stream seeding the convergence accumulator.
	var res fascia.Result
	localMerged := false
	if remaining > 0 && runErr == nil {
		slot, workers, err := s.sched.acquireSlot(ctx)
		if err != nil {
			s.rejected.Add(1)
			s.httpError(w, http.StatusServiceUnavailable, "cancelled while queued: %v", err)
			return
		}
		runOpt := opt.WithSeed(req.Seed + int64(len(prior))).WithThreads(workers)
		if req.Adaptive > 0 {
			res, runErr = fascia.CountConvergedResidualContext(ctx, g, tr, req.Adaptive, iters, runOpt, prior)
			localMerged = true // res already spans prior + fresh
		} else {
			res, runErr = fascia.CountContext(ctx, g, tr, runOpt.WithIterations(remaining))
		}
		s.sched.releaseSlot(slot, time.Since(start))
		if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
			s.queryErrors.Add(1)
			s.httpError(w, http.StatusInternalServerError, "count: %v", runErr)
			return
		}
		fresh := len(res.PerIteration)
		if localMerged {
			fresh -= len(prior)
		}
		mFreshIterations.Add(int64(fresh))
	}
	merged := res
	if !localMerged {
		merged = fascia.MergeIterations(prior, res)
	}
	// MergeIterations attributes all of prior to the cache, but the
	// shard tier's contribution was computed now; restore the true split
	// so CachedIterations stays what the cache actually served.
	merged.Stats.CachedIterations = cached
	if !req.NoCache {
		s.cache.Extend(key, merged.PerIteration)
	}
	s.respondCount(w, req, key, merged, kind, runErr, start, sh)
}

// shardSummary carries one query's shard-tier accounting to the
// response writer.
type shardSummary struct {
	iterations   int
	shards       int
	redispatches int
}

// respondCount writes the 200 response for a served query (complete or
// partial).
func (s *Server) respondCount(w http.ResponseWriter, req CountRequest, key CacheKey, res fascia.Result, kind HitKind, runErr error, start time.Time, sh shardSummary) {
	s.queries.Add(1)
	mQueries.Add(1)
	recordPeakRSS(res.Stats.PeakRSSBytes)
	resp := CountResponse{
		Graph:             req.Graph,
		Template:          key.Template,
		Count:             res.Count,
		StdErr:            res.StdErr,
		Iterations:        res.Iterations,
		CachedIterations:  res.Stats.CachedIterations,
		ShardIterations:   sh.iterations,
		Shards:            sh.shards,
		ShardRedispatches: sh.redispatches,
		Cache:             "bypass",
		ElapsedMillis:     float64(time.Since(start).Microseconds()) / 1000,
	}
	if kind >= Miss {
		resp.Cache = kind.String()
	}
	if runErr != nil {
		resp.Partial = true
		resp.Error = runErr.Error()
		s.partialResults.Add(1)
		mPartialResults.Add(1)
	}
	if req.PerIteration {
		resp.PerIteration = res.PerIteration
	}
	s.writeJSON(w, http.StatusOK, resp)
}
