GO ?= go

.PHONY: build vet test race check bench-build bench-kernels kernels-smoke bench paper-smoke report-smoke converge-smoke chaos-smoke incident-smoke query-smoke mvcc-smoke ingest-smoke proptest fuzz-smoke crash-smoke crashtest cover-store lint-metrics fmt

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The standard verify loop: what CI (and every PR) should run. The race
# leg runs every package's tests once; crash-smoke, incident-smoke,
# query-smoke, mvcc-smoke and ingest-smoke below are subsets of it, kept
# as focused re-runs and left out of check.
check: build vet bench-build kernels-smoke lint-metrics race proptest fuzz-smoke paper-smoke report-smoke converge-smoke chaos-smoke

# benchmark/ is a nested module (its own go.mod, `replace probkb => ../`)
# that imports internal/{ground,mpp,engine,...} by path, so `go build
# ./...` above never compiles it: an internal API change can break the
# driver's benchmark with everything else green. Vet it and run its own
# tests.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Kernel tier (ROADMAP item 1b): the engine's hash and filter kernels,
# ground's fact index, one semi-naive iteration's two-atom Δ legs
# (BenchmarkDeltaLegs: Δ of 1, 64 and 4,096 rows, read through the entity
# index vs. the hash-join form) and one factor phase (BenchmarkFactorsDelta:
# maintained from a Δ of 64 or 4,096 rows vs. Query 2 over all of TΠ) at
# 100K and 300K synthetic TΠ rows, with
# allocations; building the factor graph of the scale 0.25 constrained
# grounding and one Gibbs sweep of each sampler over it; inference by
# connected component on the scale 0.5 graph (BenchmarkComponents: the
# labelling; BenchmarkExactComponents: the whole exact pass), the
# enumeration bound's cost argument (BenchmarkExact16, and
# BenchmarkExactVsChain: enumeration against 600 sweeps at 8, 12 and 16
# variables), ingest-serve's refresh (BenchmarkUnconstrainedRefresh) and
# both samplers on a giant component (BenchmarkGiantComponent); plus the
# library-level SQL point select over the scale 0.25 corpus (relational
# image hit vs. build) and the cache-bypassing point query over the same
# corpus (BenchmarkQueryLocalCold: local grounding plus its metrics), and
# ingest-serve's refresh in the library (BenchmarkRefreshMarginals: four
# 64-fact deferred batches on the unconstrained scale 0.25 expansion).
# EXPERIMENTS.md records the numbers.
bench-kernels:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/engine ./internal/ground ./internal/factor ./internal/infer
	$(GO) test -run '^$$' -bench 'BenchmarkPointSelect|BenchmarkQueryLocalCold|BenchmarkRefreshMarginals' -benchmem .

# Every kernel benchmark compiles and executes once per PR, so none can
# rot between the runs somebody reads.
kernels-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/engine ./internal/ground ./internal/factor ./internal/infer
	$(GO) test -run '^$$' -bench 'BenchmarkPointSelect|BenchmarkQueryLocalCold|BenchmarkRefreshMarginals' -benchtime 1x .

# Metric hygiene: every Counter/Gauge/Histogram name is probkb_-prefixed
# snake_case with the right unit suffix and a Help() string (see
# cmd/lint-metrics for the exact rules and the gauge exemption).
lint-metrics:
	$(GO) run ./cmd/lint-metrics .

# Long-mode differential harness: thousands of random plans, each run
# serial, morsel-parallel, and on 1/2/8-segment clusters, results
# compared (plain `go test ./...` already runs the 500-case short mode).
proptest:
	$(GO) test -tags slow -run TestDifferentialLong ./internal/proptest

# 30 seconds of coverage-guided fuzzing per SQL target: the parser
# round-trip property and the distributed-vs-single-node query
# differential. New interesting inputs stay in the build cache; promote
# crashers into internal/sql/testdata/fuzz to pin them.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSQL -fuzztime 30s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzDistSQL -fuzztime 30s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzIngestBatching -fuzztime 30s ./internal/ingest

# Focused durability run: the store's own tests plus
# the short crash matrix (every write truncated at frame boundaries,
# torn tails, dropped fsyncs — recovered KB compared against the
# prefix-durability oracle), over random scripts and over the records a
# real streamed ingest wrote (TestCrashStreamedIngest).
crash-smoke:
	$(GO) test ./internal/store ./internal/store/crashtest
	@echo "crash-smoke: ok"

# Full crash matrix: exhaustive byte-granularity crash points over the
# snapshot/WAL/checkpoint write schedule, all three corruption modes,
# with shrink-on-failure. Minutes, not seconds — hence behind the slow
# tag like proptest's long mode.
crashtest:
	$(GO) test -tags slow -run TestCrashMatrixLong -v ./internal/store/crashtest

# Coverage gate for the durable-storage engine: fails below 85%
# statement coverage of internal/store.
cover-store:
	@$(GO) test -coverprofile=/tmp/probkb-store-cover.out -coverpkg=./internal/store ./internal/store/... >/dev/null
	@$(GO) tool cover -func=/tmp/probkb-store-cover.out | tail -1
	@$(GO) tool cover -func=/tmp/probkb-store-cover.out | awk '/^total:/ { pct = $$3 + 0; if (pct < 85) { printf "cover-store: %.1f%% < 85%% gate\n", pct; exit 1 } }'

bench:
	$(GO) run ./cmd/probkb-bench -exp all

# Paper-experiment smoke: every probkb-bench experiment runs at a tiny
# scale, so none can rot between the runs EXPERIMENTS.md records. Each
# experiment's banner must appear, and an unknown experiment must still
# exit 2.
paper-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/probkb-bench" ./cmd/probkb-bench && \
	"$$tmp/probkb-bench" -exp all -scale 0.002 -json "" > "$$tmp/out.txt" && \
	for e in table2 table3 table4 fig4 fig6a fig6b fig6c fig7a fig7b growth feedback workers; do \
		grep -q "^==================== $$e ====================$$" "$$tmp/out.txt" || \
			{ echo "paper-smoke: no $$e banner" >&2; exit 1; }; \
	done && \
	{ "$$tmp/probkb-bench" -exp no-such-experiment -json "" 2>/dev/null; test $$? -eq 2; } && \
	echo "paper-smoke: ok"

# End-to-end smoke test of the run journal: expand a tiny KB with
# journaling on a 2-segment MPP cluster, then assert the report renders
# its key sections (phase breakdown, skew table, the inference pass's
# component split — at this scale every component is enumerated, so there
# is no convergence timeline to render).
report-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kbgen -out "$$tmp/kb" -scale 0.002 >/dev/null && \
	$(GO) run ./cmd/probkb expand -kb "$$tmp/kb" -engine probkb-p -segments 2 \
		-burnin 50 -samples 100 -journal "$$tmp/run.jsonl" >/dev/null && \
	$(GO) run ./cmd/probkb report "$$tmp/run.jsonl" > "$$tmp/report.txt" && \
	grep -q "Phase breakdown" "$$tmp/report.txt" && \
	grep -q "Per-segment skew" "$$tmp/report.txt" && \
	grep -Eq "^[0-9]+ components exact, 0 sampled" "$$tmp/report.txt" && \
	grep -q "Top operators" "$$tmp/report.txt" && \
	echo "report-smoke: ok"

# Convergence smoke test: constrained grounding of a generated corpus
# ends at its own fixpoint, inside the default 15-iteration bound, and a
# larger bound changes nothing — the expanded KB written for -iters 15
# and for -iters 30 is the same, byte for byte.
converge-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kbgen -out "$$tmp/kb" -scale 0.05 >/dev/null && \
	$(GO) run ./cmd/probkb expand -kb "$$tmp/kb" -no-inference -iters 15 -out "$$tmp/o15" > "$$tmp/15.txt" && \
	$(GO) run ./cmd/probkb expand -kb "$$tmp/kb" -no-inference -iters 30 -out "$$tmp/o30" > "$$tmp/30.txt" && \
	grep -Eq '^iterations +([1-9]|1[0-4]) \(converged=true\)' "$$tmp/15.txt" && \
	grep -Eq '^iterations +([1-9]|1[0-4]) \(converged=true\)' "$$tmp/30.txt" && \
	diff -r "$$tmp/o15" "$$tmp/o30" >/dev/null && \
	echo "converge-smoke: ok"

# Chaos smoke test: the same tiny journaled MPP expand, under -race
# with a seeded fault plan injecting segment failures, worker panics,
# and stragglers. Segment retries must absorb every fault: the run has
# to complete cleanly and the rendered report must show the fault-
# injection section. (The in-process chaos tests run in the race leg.)
chaos-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/kbgen -out "$$tmp/kb" -scale 0.002 >/dev/null && \
	$(GO) run -race ./cmd/probkb expand -kb "$$tmp/kb" -engine probkb-p -segments 2 \
		-burnin 50 -samples 100 -journal "$$tmp/run.jsonl" \
		-chaos-seed 1 -chaos-fail 0.15 -chaos-panic 0.05 -chaos-straggle 0.05 \
		-chaos-delay 1ms -retries 5 -retry-backoff 1ms >/dev/null && \
	$(GO) run ./cmd/probkb report "$$tmp/run.jsonl" > "$$tmp/report.txt" && \
	grep -q "Fault injection" "$$tmp/report.txt" && \
	grep -q "injected faults:" "$$tmp/report.txt" && \
	grep -q "segment retries:" "$$tmp/report.txt" && \
	$(GO) test -race -count=1 -run 'TestChaosFaultedExpandNeverSwaps|TestChaosCancelledExpandKeepsReaders' . >/dev/null && \
	echo "chaos-smoke: ok"

# Watchdog/incident smoke test: the end-to-end stuck-query path — a
# live /admin/expand flagged by a watchdog tick (injected clock, no
# sleeps), the incident served from GET /debug/incidents/{id} with its
# goroutine dump and flight-recorder timeline, and the observed query
# left running.
incident-smoke:
	$(GO) test -race -count=1 -run 'TestIncident|TestDebugContentType' ./internal/server
	@echo "incident-smoke: ok"

# Point-query smoke test: server up → GET /query (local grounding +
# neighborhood Gibbs) → cached re-query → /admin/expand invalidates →
# fresh re-query, plus concurrent readers racing the swap, all under
# -race. The library-level differential (local marginals vs the
# full-closure answer) rides along from the root package. So does the
# SQL surface's per-generation relational image: /sql readers sharing it
# beside a streamed ingest (every answer equal to the library's for the
# generation it names), DELETE refused on both routes, no image built
# without SQL traffic, and the invalidation differential against a
# catalog built from scratch.
query-smoke:
	$(GO) test -race -count=1 -run 'TestQuerySmoke|TestQueryConcurrentInvalidation|TestQueryMarginalNull|TestQueryObservedAtom|TestQueryBadRequests|TestSQLReadersShareImageUnderIngest|TestSQLDeleteRefused|TestNoSQLTrafficBuildsNoImage' ./internal/server
	$(GO) test -race -count=1 -run 'TestQueryLocal|TestKBPointQuery|TestParseAtom|TestSQLImage' .
	@echo "query-smoke: ok"

# MVCC serving-tier smoke: the epoch manager's unit battery, the
# snapshot-isolation property test (randomized interleavings over the
# epoch manager + COW fork, shrink on failure), the API-level
# differential oracle (pinned-generation answers byte-identical to a
# serial replay while ExtendWith races), and the server's
# read-while-write surface (POST /facts publish, batch point queries,
# admission control, cancelled rebuilds never publishing) — all under
# -race, where a torn read is also a reported data race.
mvcc-smoke:
	$(GO) test -race -count=1 ./internal/epoch
	$(GO) test -race -count=1 -run 'TestSnapshotIsolation|TestReplayMVCCDeterministic|TestShrinkMVCCReduces' ./internal/proptest
	$(GO) test -race -count=1 -run 'TestMVCC' .
	$(GO) test -race -count=1 -run 'TestAdmissionControl|TestFactsPost|TestQueryBatch|TestCancelledExpandDoesNotPublish|TestQueryCancelPinnedReader' ./internal/server
	@echo "mvcc-smoke: ok"

# Streaming-ingest smoke: the pipeline's unit battery (batching
# triggers, error latch, cancellation, concurrent submitters), the
# split-invariance property test with shrinking, the API-level
# differential battery (every batch split of the firehose vs the t=0
# oracle, marginals included), the chaos leg (cancelled absorb
# publishes nothing, WAL recovery + idempotent re-streaming converges),
# the server's streaming POST /facts contract — including the property
# cases over HTTP (TestFactsStreamSplitInvariance: same acks and closure
# as the library leg) and every kind of writer racing on the one writer
# lock — and the two binaries' own legs: `probkb ingest` transcripts,
# one validator for CLI and HTTP, and probkb-server's shutdown
# checkpoint mid-stream — all under -race.
ingest-smoke:
	$(GO) test -race -count=1 ./internal/ingest
	$(GO) test -race -count=1 -run 'TestIngestSplitInvariance|TestReplayIngestDeterministic|TestShrinkIngestReduces' ./internal/proptest
	$(GO) test -race -count=1 -run 'TestIngest|TestExtendWithSplitDifferential' .
	$(GO) test -race -count=1 -run 'TestFactsStream|TestFactsPostAdmission|TestWritersRaceOneLock' ./internal/server
	$(GO) test -race -count=1 ./cmd/probkb ./cmd/probkb-server
	@echo "ingest-smoke: ok"

fmt:
	gofmt -l -w .
