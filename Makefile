# Developer entry points. `make ci` is the tier-1+ verification gate:
# the strict-build matrix (fasciavet's nine analyzers with stale-
# suppression detection, go vet, a checkptr-instrumented build, race
# coverage of the concurrent packages), full tests, the cancellation
# tests (which exercise mid-run aborts in every parallel mode), the
# oracle-differential harness under -race, the metrics-endpoint,
# fasciad serve, and multi-process shard smoke tests, a fuzz smoke pass
# over every fuzz target, a coverage floor on internal/serve, and a
# one-shot smoke run of the kernel benchmarks (compiles and exercises
# the direct/aggregate/auto matrix without timing anything meaningful).

GO ?= go
FUZZTIME ?= 30s

.PHONY: ci lint lint-strict vet build test race race-cancel difftest difftest-nontree fuzz-smoke serve-smoke shard-smoke cover-serve cover-motif metrics-smoke bench-smoke bench-kernel bench-batch bench-batch-full bench-batch-record bench-mem bench-mem-full bench-mem-record bench-adaptive check-bce check-escape check-checkptr

ci: lint-strict build check-bce check-escape test race-cancel difftest difftest-nontree metrics-smoke serve-smoke shard-smoke cover-serve cover-motif fuzz-smoke bench-smoke bench-batch bench-mem bench-adaptive

# The strict-build matrix, first in `make ci`: fasciavet's analyzers
# (any finding or stale suppression fails), go vet, a fresh-cache build
# with the checkptr unsafe-pointer instrumentation, and the race tier.
# Everything here is a *build-time* gate — it runs before the slower
# end-to-end smoke targets get a chance to hide a regression.
lint-strict: lint vet check-checkptr race

# fasciavet, the project-specific static analyzer (determinism-critical
# map iteration, cancellation polling, fingerprint/cache-key coverage,
# CSR immutability, guarded-by mutex discipline, wire-length taint
# tracking, hotpath allocation rules, goroutine-exit reachability,
# float-accumulation ordering — see DESIGN.md §8), plus gofmt
# cleanliness. Any finding fails the build; suppressions require an
# inline reason (//lint:<analyzer> ok — <reason>) and a suppression
# that no longer matches a finding fails too (-unused-suppressions).
lint:
	$(GO) run ./cmd/fasciavet -unused-suppressions ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "lint: gofmt needed on:"; echo "$$fmt"; exit 1; fi

vet:
	$(GO) vet ./...

# Compile the whole tree with checkptr instrumentation in a throwaway
# build cache (mirroring check-bce: diagnostics and instrumentation
# only happen when compilation actually runs). This catches invalid
# unsafe.Pointer alignment/arithmetic at compile time and instruments
# the rest for the race tier, which runs with checkptr enabled.
check-checkptr:
	@tmp=$$(mktemp -d); \
	GOCACHE=$$tmp $(GO) build -gcflags=all=-d=checkptr ./... || { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "check-checkptr: tree compiles under -d=checkptr"

# Escape-analysis gate for //fascia:hotpath functions: fasciavet
# -escape recompiles the kernel packages with -gcflags=-m under a fresh
# GOCACHE and fails if the compiler reports a heap escape inside any
# annotated range (the static hotalloc rules are necessary; the
# compiler's verdict is sufficient).
check-escape:
	$(GO) run ./cmd/fasciavet -escape ./internal/dp ./internal/table

build:
	$(GO) build ./...

# Bounds-check-elimination gate for the hot 8-wide lane loops: recompile
# internal/table and internal/dp with the BCE debug pass in a throwaway
# build cache (diagnostics only print when compilation actually runs)
# and fail if any `Found IsInBounds` lands in the named kernel files.
# `IsSliceInBounds` on the slice-reslicing setup lines is expected and
# allowed; the 8-wide array-pointer loops themselves must stay clean.
check-bce:
	@tmp=$$(mktemp -d); \
	out=$$(GOCACHE=$$tmp $(GO) build -gcflags='-d=ssa/check_bce' ./internal/table ./internal/dp 2>&1); \
	rm -rf $$tmp; \
	bad=$$(echo "$$out" | grep 'Found IsInBounds' | grep -E 'lane8\.go|bulk8\.go' || true); \
	if [ -n "$$bad" ]; then echo "check-bce: bounds checks reappeared in hot kernels:"; echo "$$bad"; exit 1; fi; \
	echo "check-bce: hot kernel lane loops are bounds-check free"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/dp ./internal/table ./internal/dist ./internal/shard ./internal/serve

# Cancellation paths under the race detector: the dp context tests (all
# three parallel modes, goroutine-leak checked) and the public-API
# cancel/timeout tests in the root package.
race-cancel:
	$(GO) test -race -run 'Context|Cancel|Timeout|OnIteration' . ./internal/dp

# Oracle-differential harness under the race detector: every public
# counting entry point against internal/exact, every option combination
# against the reference configuration bit for bit.
difftest:
	$(GO) test -race -run TestOracleDifferential .

# The non-tree three-way matrix under the race detector, runnable on its
# own: tree-decomposition bag DP within 6σ of the closed-form motif
# counters, motif counters exactly equal to backtracking, the bag DP's
# colorful totals exactly equal to rainbow enumeration — across every
# layout × kernel × batch × parallel-mode combination. (Also part of
# `make difftest`, which matches the whole TestOracleDifferential
# prefix.)
difftest-nontree:
	$(GO) test -race -run TestOracleDifferentialNonTree .

# One short fuzzing pass per target (seeds + $(FUZZTIME) of new inputs
# each). Targets run one at a time because `go test -fuzz` requires a
# single match per invocation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/tmpl
	$(GO) test -run='^$$' -fuzz=FuzzParseGraph -fuzztime=$(FUZZTIME) ./internal/tmpl
	$(GO) test -run='^$$' -fuzz=FuzzSuccinctRow -fuzztime=$(FUZZTIME) ./internal/table
	$(GO) test -run='^$$' -fuzz=FuzzRowsFrame -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRun -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzDecodeHello -fuzztime=$(FUZZTIME) ./internal/shard

# fasciad end to end under -race: boot on an ephemeral port, count,
# cache hit, residual overlap, SIGTERM drain, goroutine-leak check.
serve-smoke:
	$(GO) test -race -run TestServeSmoke ./cmd/fasciad

# The sharded tier end to end across real processes: a coordinator and
# three shard workers over TCP, one worker SIGKILLed mid-run (forcing a
# re-dispatch to the survivors), the result asserted bit-identical to
# the single-process engine, SIGTERM drains on both tiers.
shard-smoke:
	$(GO) test -count=1 -run TestShardSmoke ./cmd/fasciad

# Coverage floor for the serving layer: fail CI if internal/serve drops
# below 80% statement coverage.
cover-serve:
	@cov=$$($(GO) test -cover ./internal/serve | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "cover-serve: tests failed or no coverage reported"; exit 1; fi; \
	ok=$$(awk -v c="$$cov" 'BEGIN { print (c >= 80.0) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then echo "cover-serve: internal/serve coverage $$cov% below the 80% floor"; exit 1; fi; \
	echo "cover-serve: internal/serve coverage $$cov% (floor 80%)"

# Coverage floor for the non-tree counting layer: the closed-form motif
# counters (internal/exact/motifs.go) and the tree-decomposition bag DP
# (internal/dp/bag.go) must each stay >= 80% statement-covered by their
# packages' tests. Computed per file from the cover profiles, since the
# package-level numbers would let an untested new file hide behind
# well-covered neighbors.
cover-motif:
	@tmp=$$(mktemp -d); \
	$(GO) test -coverprofile=$$tmp/exact.out ./internal/exact >/dev/null || { rm -rf $$tmp; exit 1; }; \
	$(GO) test -coverprofile=$$tmp/dp.out ./internal/dp >/dev/null || { rm -rf $$tmp; exit 1; }; \
	fail=0; \
	for spec in "internal/exact/motifs.go $$tmp/exact.out" "internal/dp/bag.go $$tmp/dp.out"; do \
	  set -- $$spec; file=$$1; prof=$$2; \
	  cov=$$(awk -v f="$$file:" 'index($$1, f) { total += $$2; if ($$3 > 0) covered += $$2 } END { if (total == 0) print "none"; else printf "%.1f", 100 * covered / total }' $$prof); \
	  if [ "$$cov" = none ]; then echo "cover-motif: no statements for $$file in $$prof"; fail=1; continue; fi; \
	  ok=$$(awk -v c="$$cov" 'BEGIN { print (c >= 80.0) ? 1 : 0 }'); \
	  if [ "$$ok" != 1 ]; then echo "cover-motif: $$file coverage $$cov% below the 80% floor"; fail=1; \
	  else echo "cover-motif: $$file coverage $$cov% (floor 80%)"; fi; \
	done; \
	rm -rf $$tmp; exit $$fail

# The -metrics-addr expvar/pprof endpoint end to end on an ephemeral port.
metrics-smoke:
	$(GO) test -run TestMetricsSmoke ./cmd/fascia

bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkKernel -benchtime=1x ./internal/dp

# Lane-width smoke: one lane vs four lanes per traversal on a small
# graph with an equivalence assertion, so the CI run doubles as an
# end-to-end bit-identity check across lane counts.
bench-batch:
	$(GO) test -run='^$$' -bench=BenchmarkBatchedDPSmall -benchtime=1x ./internal/dp

# Out-of-core smoke: a U7 run with dense tables on a 200k-vertex BA
# graph under a 96 MiB -mem budget and a Go heap limit. The benchmark
# asserts that slabs actually spilled, that whole-process peak RSS
# stayed under its ceiling, and that the budgeted estimates are
# bit-identical to an unbudgeted run.
bench-mem:
	GOMEMLIMIT=256MiB $(GO) test -run='^$$' -bench=BenchmarkMemBudgetSmoke -benchtime=1x ./internal/dp

# Adaptive-stopping smoke: a U7 run on a 50k-vertex BA graph driven to
# a 1% relative-stderr target with a far-higher iteration cap. The
# benchmark asserts the run converges strictly before the cap with the
# target met, and reports the iteration-savings factor.
bench-adaptive:
	$(GO) test -run='^$$' -bench=BenchmarkAdaptiveStopSmoke -benchtime=1x ./internal/dp

# The acceptance-scale out-of-core comparison (U10 on a million-vertex
# BA graph, budgeted vs unbudgeted). Slow and memory-hungry.
bench-mem-full:
	$(GO) test -run='^$$' -bench='BenchmarkMemBudget$$' -benchtime=1x -timeout=2h ./internal/dp

# Record a BENCH_mem.json trajectory entry with the documented noise
# methodology (>= 5 samples after a discarded warmup, MAD outlier drop,
# medians of the survivors); appends, never overwrites. Slow.
bench-mem-record:
	$(GO) run ./cmd/fasciabench bench-mem-record

# Full kernel comparison (the numbers quoted in DESIGN.md "DP kernels").
bench-kernel:
	$(GO) test -run='^$$' -bench=BenchmarkKernelDirectVsAggregate -benchtime=10x -count=3 ./internal/dp

# The acceptance benchmark behind BENCH_batch.json (slow: 100k-vertex
# graphs, k=7, the full lane-width sweep, three samples).
bench-batch-full:
	$(GO) test -run='^$$' -bench='BenchmarkBatchedDP/' -benchtime=1x -count=3 ./internal/dp

# Record a BENCH_batch.json trajectory entry with the documented noise
# methodology (>= 5 samples after a discarded warmup, MAD outlier drop,
# medians of the survivors); appends, never overwrites. Slow.
bench-batch-record:
	$(GO) run ./cmd/fasciabench bench-batch-record
