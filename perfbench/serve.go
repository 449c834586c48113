package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	fascia "repro"
	"repro/internal/serve"
	"repro/internal/tmpl"
)

// serveLoad is in-process fasciad (serve.New, default config) on a
// loopback listener, driven by one closed-loop client on one keep-alive
// connection. Every stream asks for the 5-vertex spider on a fresh seed:
// one miss, a run of hits, then one partial that doubles the iterations.
// The 7-vertex spider's 2.9 MB of tables overflow the 2 MiB L2 of the
// host this was tuned on, and its op times drifted twice as much as the
// 5-vertex spider's under the same host load.
type serveLoad struct {
	tmpl  *tmpl.Template
	spec  string // the template as an edge list, as clients send it
	iters int
	hits  int // hits per stream
	// replays is how many of a traced run's streams are replayed through
	// the library after the timed phase.
	replays int

	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when the HTTP server's Serve returns
	url    string
	client *http.Client
	stats0 serve.Stats // server counters when the timed phase started
	budget int         // worker count of the server's first run slot

	streams []servedStream // the first streams, for the replays
	fresh   int            // iterations computed over the timed phase
	cached  int            // iterations served from the cache
}

// servedStream is one stream's seed and answers, kept for a replay.
type servedStream struct {
	seed          int64
	miss, partial []float64
}

const serveGraph = "scerevisiae"

func newServe() *serveLoad {
	t := mustNamed("U5-2")
	var parts []string
	for _, e := range t.Edges() {
		parts = append(parts, fmt.Sprintf("%d-%d", e[0], e[1]))
	}
	return &serveLoad{tmpl: t, spec: strings.Join(parts, " "), iters: 8, hits: 6, replays: 5}
}

func (w *serveLoad) preset() string { return serveGraph }

func (w *serveLoad) setup(ctx context.Context, b *bench) error {
	var err error
	b.span("graph.load", func() { b.loaded, err = fascia.LoadGraph(b.graphPath) })
	if err != nil {
		return fmt.Errorf("load graph: %w", err)
	}
	b.span("serve.start", func() { err = w.start(b) })
	if err != nil {
		return err
	}
	// The warm-up is one miss on a seed no timed stream uses.
	b.span("dp.warmup", func() { _, err = w.count(ctx, b, w.iters, b.querySeed(0)) })
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.stats0 = w.srv.Stats()
	if len(w.stats0.WorkerBudgets) > 0 {
		w.budget = w.stats0.WorkerBudgets[0]
	}
	return nil
}

// start registers the graph the way fasciad -graph does and serves it
// on a loopback listener.
func (w *serveLoad) start(b *bench) error {
	w.srv = serve.New(serve.Config{})
	if _, err := w.srv.Registry().Add(serveGraph, b.loaded); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return nil
}

func (w *serveLoad) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// No query is in flight between streams, so neither can time out.
	_ = w.srv.Drain(ctx)
	_ = w.hs.Shutdown(ctx)
	<-w.done
	w.client.CloseIdleConnections()
	w.srv, w.hs, w.client = nil, nil, nil
}

// count sends one /v1/count query and decodes the answer.
func (w *serveLoad) count(ctx context.Context, b *bench, iters int, seed int64) (serve.CountResponse, error) {
	var out serve.CountResponse
	body, err := json.Marshal(serve.CountRequest{
		Graph: serveGraph, Template: w.spec, Iterations: iters, Seed: seed, PerIteration: true,
	})
	if err != nil {
		return out, err
	}
	b.span("serve.request", func() {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/count", bytes.NewReader(body))
		if err != nil {
			return
		}
		var resp *http.Response
		resp, err = w.client.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		// Drain the rest so the keep-alive connection is reused; a failed
		// drain only costs a new connection.
		_, _ = io.Copy(io.Discard, resp.Body)
	})
	if err == nil && (out.Partial || out.Error != "") {
		err = fmt.Errorf("partial answer: %s", out.Error)
	}
	return out, err
}

// query runs one timed op and checks the answer's shape.
func (w *serveLoad) query(ctx context.Context, b *bench, traced bool, class string, iters int, seed int64) ([]float64, bool) {
	var resp serve.CountResponse
	rec, err := b.op(class, traced, func() (int, error) {
		var err error
		resp, err = w.count(ctx, b, iters, seed)
		return iters - resp.CachedIterations, err
	})
	if err != nil {
		return nil, false
	}
	rec.handler = resp.ElapsedMillis
	wantCached := map[string]int{classMiss: 0, classHit: iters, classPartial: w.iters}[class]
	if resp.Cache != class || resp.Iterations != iters || resp.CachedIterations != wantCached ||
		len(resp.PerIteration) != iters {
		b.failOp("%s answered as cache %q with %d iterations, %d cached, %d estimates",
			class, resp.Cache, resp.Iterations, resp.CachedIterations, len(resp.PerIteration))
		return nil, false
	}
	w.fresh += iters - resp.CachedIterations
	w.cached += resp.CachedIterations
	return resp.PerIteration, true
}

func (w *serveLoad) stream(ctx context.Context, b *bench, traced bool) {
	// Streams are numbered from 1; query 0 is the warm-up's.
	seed := b.querySeed(b.streams + 1)
	miss, ok := w.query(ctx, b, traced, classMiss, w.iters, seed)
	for i := 0; i < w.hits; i++ {
		hit, hok := w.query(ctx, b, traced, classHit, w.iters, seed)
		if ok && hok && !sameStream(hit, miss) {
			b.failOp("hit differs from the miss that filled the stream")
		}
	}
	partial, pok := w.query(ctx, b, traced, classPartial, 2*w.iters, seed)
	if ok && pok && !sameStream(partial[:w.iters], miss) {
		b.failOp("partial's cached iterations differ from the miss")
	}
	if ok && pok && len(w.streams) < w.replays {
		w.streams = append(w.streams, servedStream{seed: seed, miss: miss, partial: partial[w.iters:]})
	}
}

func (w *serveLoad) finish(ctx context.Context, b *bench) error {
	// Tails kept off the metric lists, recorded for the README's spreads.
	b.info["hit_ms_p90"] = quantile(b.classTimes(classHit), 0.9)
	if misses := b.classTimes(classMiss); len(misses) >= 100 {
		b.info["miss_ms_p90"] = quantile(misses, 0.9)
	}
	if !b.cfg.trace {
		return nil
	}
	st := w.srv.Stats()
	n := float64(b.streams)
	b.layer["serve.fresh_iterations"] = float64(w.fresh) / n
	b.layer["serve.cached_iterations"] = float64(w.cached) / n
	b.layer["serve.cache_hits"] = float64(st.Cache.Hits-w.stats0.Cache.Hits) / n
	b.layer["serve.cache_partials"] = float64(st.Cache.PartialHits-w.stats0.Cache.PartialHits) / n
	b.layer["serve.cache_misses"] = float64(st.Cache.Misses-w.stats0.Cache.Misses) / n
	b.layer["serve.rejected"] = float64(st.Rejected - w.stats0.Rejected)
	for _, class := range []string{classHit, classPartial, classMiss} {
		var handler, transport []float64
		for _, o := range b.ops {
			if o.class == class && !o.failed {
				handler = append(handler, o.handler)
				transport = append(transport, o.ms-o.handler)
			}
		}
		b.layer["serve."+class+"_handler_ms_p50"] = median(handler)
		b.layer["serve."+class+"_transport_ms_p50"] = median(transport)
	}
	b.layer["serve.hit_ms_p50"] = median(b.classTimes(classHit))

	// Replay the first streams' queries through the library with the
	// server's options: the handler's DP share, and a check that the
	// served estimates are the library's.
	var dpMS, leaf, internal []float64
	for i, s := range w.streams {
		for _, part := range []struct {
			class string
			seed  int64
			want  []float64
		}{{classMiss, s.seed, s.miss}, {classPartial, s.seed + int64(w.iters), s.partial}} {
			opt := fascia.DefaultOptions().WithSeed(part.seed).WithThreads(w.budget).WithIterations(w.iters)
			var res fascia.Result
			var err error
			t0 := time.Now()
			b.span("replay."+part.class, func() {
				var e *fascia.Engine
				b.span("dp.build", func() { e, err = fascia.NewEngine(b.loaded, w.tmpl, opt) })
				if err == nil {
					b.span("dp.run", func() { res, err = e.RunContext(ctx, w.iters) })
				}
			})
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			if part.class == classMiss {
				dpMS = append(dpMS, ms(time.Since(t0)))
				n := nodeTimes(res.Stats, w.iters)
				leaf, internal = append(leaf, n.leaf), append(internal, n.internal)
				if i == 0 {
					dpCounters(b, &res.Stats, w.iters)
				}
			}
			if !sameStream(res.PerIteration, part.want) {
				b.failRun("served %s estimates differ from the library's", part.class)
			}
		}
	}
	b.layer["serve.miss_dp_ms_p50"] = median(dpMS)
	b.layer["dp.leaf_ms_per_iter"] = median(leaf)
	b.layer["dp.node_ms_per_iter"] = median(internal)
	return nil
}
