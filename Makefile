GO ?= go

.PHONY: build vet test race check bench-build bench-kernels kernels-smoke bench paper-smoke report-smoke converge-smoke chaos-smoke incident-smoke query-smoke mvcc-smoke ingest-smoke proptest fuzz-smoke crash-smoke crashtest cover-store loc fmt

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
# as focused re-runs and left out of check. Metric naming needs no leg of
# its own: every metric is declared once, and the declaration checks the
# rules at package init, so each test binary that links a metric enforces
# them (the rules' own tests: TestDeclarationRules in internal/obs).
check: build vet bench-build kernels-smoke race proptest fuzz-smoke paper-smoke report-smoke converge-smoke chaos-smoke

# benchmark/ is a nested module (its own go.mod, `replace probkb => ../`)
# that imports internal/{ground,mpp,engine,...} by path, so `go build
# ./...` above never compiles it: an internal API change can break the
# driver's benchmark with everything else green. Vet it and run its own
# tests.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# ROADMAP item 1's kernel tier: the engine's hash and filter kernels,
# ground's fact index, one semi-naive iteration's two-atom Δ legs
# (BenchmarkDeltaLegs: Δ of 1, 64 and 4,096 rows, read through the entity
# index vs. the hash-join form) and one factor phase (BenchmarkFactorsDelta:
# maintained from a Δ of 64 or 4,096 rows vs. from the empty TΦ, as a fresh run does) at
# 100K and 300K synthetic TΠ rows, with
# allocations; one constraint pass over a Δ that makes a new violator,
# and the fact index following its deletion, over TΠ of the constrained
# scale 0.05 and 0.25 groundings (BenchmarkConstraintPass); building the factor graph of the scale 0.25 constrained
# grounding and one Gibbs sweep of each sampler over it; inference by
# connected component on the scale 0.5 graph (BenchmarkComponents: the
# labelling; BenchmarkExactComponents: the whole exact pass), the
# enumeration bound's cost argument (BenchmarkExact16, and
# BenchmarkExactVsChain: enumeration against 600 sweeps at 8, 12 and 16
# variables), the whole-graph inference kernel on the unconstrained scale
# 0.25 graph (BenchmarkUnconstrainedRefresh; a refresh infers only the
# components holding a pending marginal, see BenchmarkRefreshMarginals) and
# both samplers on a giant component (BenchmarkGiantComponent); plus the
# library-level SQL point select over the scale 0.25 corpus (relational
# image hit vs. build) and the cache-bypassing point query over the same
# corpus (BenchmarkQueryLocalCold: local grounding plus its metrics), and
# ingest-serve's refresh and absorb in the library, each op continuing
# the lineage the op before extended (BenchmarkRefreshMarginals: four
# 64-fact deferred batches outside the timer, then a refresh, on the
# unconstrained scale 0.25 expansion; BenchmarkExtendWithDeferred: one
# 64-fact batch per op at scales 0.05 and 0.25; record both at a fixed
# count, -benchtime 100x, since the lineage grows with b.N).
# EXPERIMENTS.md records the numbers.
bench-kernels:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/engine ./internal/ground ./internal/factor ./internal/infer
	$(GO) test -run '^$$' -bench 'BenchmarkPointSelect|BenchmarkQueryLocalCold|BenchmarkRefreshMarginals|BenchmarkExtendWithDeferred' -benchmem .

# Every kernel benchmark compiles and executes once per PR, so none can
# rot between the runs somebody reads. TestPointSelectCostFlat is the
# deterministic gate beside them: a point select's allocations and the
# rows its plan produces beyond the answer may not grow from the scale
# 0.05 corpus to the scale 0.25 one (an index read, not a scan of T).
# TestTPhiRowOrderIsNotAnInput guards the factor graph build beside
# BenchmarkFromResult: a random permutation of TΦ's rows moves no
# marginal and no Explain text. TestDeferredExtendBytesFlat is the gate
# beside BenchmarkExtendWithDeferred: the bytes one deferred extend of a
# 64-fact batch allocates on a lineage may grow at most 2.5× from the
# scale 0.05 corpus to the scale 0.25 one (1.92–1.94× measured; copying TΠ
# every round, as before TΠ grew in place, is ~3.7×). Beside
# BenchmarkConstraintPass (in the ./internal/ground run above), two gates:
# TestConstrainedExpandFollowsDeletions, a constrained grounding of the
# scale 0.05 corpus that deletes in several iterations and never rebuilds
# its fact index from scratch; TestMPPExpandDistributesOnce, the same
# grounding on a 2-segment cluster with views, which deletes in 3 of its 7
# iterations and distributes TΠ to the cluster once, at load (the copies
# follow each deletion); and TestConstraintPassBytesFlat, the bytes
# one deleting pass and the index's upkeep allocate may grow at most 2.5×
# from the scale 0.05 grounding to the scale 0.25 one (1.7× measured; a
# compaction that lists every row past the first deleted one is ~4–5×),
# the fewest of 16 runs, each after a pass over a twin of its state, so
# that refilling the joins' scratch pool (which a GC, or the race
# detector, empties) does not count. Beside them, the two proofs that
# every grounding run is a Δ round: TestFreshFactorsMatchQuery2, the TΦ
# of every fresh single-node, MPP and local run is Query 2 over its TΠ
# as a multiset, and TestFactIDsNeverRepeatAlongALineage, no fact ID
# names two facts along a lineage whose hook frees the top IDs.
# TestExpandLoadBytesFlat gates loading Π, which is a table: FactsTable
# of an unforked KB allocates no more at scale 0.25 than at 0.05 (×1.5
# bound, ×1.00 measured; a copy of Π is ×4.7), and PreClean keeps the
# KB's identity set and allocates at most 8 B a fact beside its own
# Query 3 (3.7–5.9 B measured, with and without -race; a new identity
# set is 18–21 B, a copy of Π 31–32 B), each the median of 5 runs that
# start with the joins' scratch pools empty.
# TestForkAllocs pins KB.Fork of the scale 0.05 KB at 8 allocations: an
# identity set builds its tail at the first row appended past its base.
# TestGenerationKeepsTheKBItWasHanded holds Π to one copy per generation
# and "derived" to one test: on the constrained scale 0.05 corpus, whose
# up-front Query 3 deletes, Expand's and ExtendWith's KB() share the
# handed KB's fact arrays, Stats(), run_end and the Inferred flags count
# the facts past the fact-ID watermark and add up, and a test server's
# SELECT COUNT(*) FROM T is the same before and after one streamed batch.
kernels-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/engine ./internal/ground ./internal/factor ./internal/infer
	$(GO) test -run '^$$' -bench 'BenchmarkPointSelect|BenchmarkQueryLocalCold|BenchmarkRefreshMarginals|BenchmarkExtendWithDeferred' -benchtime 1x .
	$(GO) test -short -count=1 -run 'TestPointSelectCostFlat|TestDeferredExtendBytesFlat|TestGenerationKeepsTheKBItWasHanded' .
	$(GO) test -short -count=1 -run 'TestConstrainedExpandFollowsDeletions|TestMPPExpandDistributesOnce|TestConstraintPassBytesFlat|TestFreshFactorsMatchQuery2|TestFactIDsNeverRepeatAlongALineage' ./internal/ground
	$(GO) test -short -count=1 -run 'TestExpandLoadBytesFlat|TestForkAllocs' ./internal/kb
	$(GO) test -count=1 -run 'TestTPhiRowOrderIsNotAnInput' .

# Long-mode differential harness: thousands of random plans, each run
# serial, morsel-parallel, and on 1/2/8-segment clusters, results
# compared (plain `go test ./...` already runs the 500-case short mode).
# On a 7 GB machine this leg is OOM-killed: seed 4188 alone passes
# 4.5 GB RSS (one 125-row table with one int and one float column; the
# plan joins two self-joins), while the first 2,500 seeds peak at 2.0 GB.
# It reproduces the engine's unbounded join (ROADMAP item 14). Run it
# alone with
#   go test -tags slow -run TestDifferentialLong ./internal/proptest \
#     -proptest.seed 4188 -proptest.n 1
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
# injection section. Then, under -race, the in-process chaos tests and
# the cancellation regressions for the Tuffy-T and MPP engines: a
# cancelled baseline grounding stops with a PartialError, and a
# cancelled persisted run on MPP or Tuffy-T leaves its completed
# iteration in the store.
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
	$(GO) test -race -count=1 -run 'TestChaosFaultedExpandNeverSwaps|TestChaosCancelledExpandKeepsReaders|TestCancelMidGroundingBaseline|TestCancelledMPPExpandLeavesResumableStore' . >/dev/null && \
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
# catalog built from scratch; and the paper's Query 3 violator subquery,
# run verbatim over the image of the synthetic corpus at scales 0.05 and
# 0.25, naming exactly quality.Checker's violators (TestPaperQuery3).
# GET /facts?limit=1 must allocate the same at scale 0.05 and 0.25
# (TestFactsPageCostFlat). GET /explain and
# Explain answer any depth with text bounded by the target's component
# on cyclic derivations (TestExplainDepthBounded,
# TestExplainBoundedByLineage).
query-smoke:
	$(GO) test -race -count=1 -run 'TestQuerySmoke|TestQueryConcurrentInvalidation|TestQueryMarginalNull|TestQueryObservedAtom|TestQueryBadRequests|TestSQLReadersShareImageUnderIngest|TestSQLDeleteRefused|TestNoSQLTrafficBuildsNoImage|TestFactsPageCostFlat|TestExplainDepthBounded' ./internal/server
	$(GO) test -race -count=1 -run 'TestQueryLocal|TestKBPointQuery|TestParseAtom|TestSQLImage|TestSQLPointSelects|TestExplainBoundedByLineage' .
	$(GO) test -race -count=1 -run 'TestPaperQuery3' ./internal/sql
	@echo "query-smoke: ok"

# MVCC serving-tier smoke: the epoch manager's unit battery, the
# snapshot-isolation property test (randomized interleavings over the
# epoch manager + COW fork, shrink on failure), the API-level
# differential oracle (pinned-generation answers byte-identical to a
# serial replay while ExtendWith races), concurrent lineage readers
# sharing one generation's lazily built factor graph, every published
# generation's TΠ and TΦ bit-identical after later rounds of every kind
# grew the columns it shares (TestMVCCPublishedGenerationsNeverChange),
# and the server's
# read-while-write surface (POST /facts publish, batch point queries,
# admission control, cancelled rebuilds and extends answering 499 and
# never publishing) — all under
# -race, where a torn read is also a reported data race.
mvcc-smoke:
	$(GO) test -race -count=1 ./internal/epoch
	$(GO) test -race -count=1 -run 'TestSnapshotIsolation|TestReplayMVCCDeterministic|TestShrinkMVCCReduces' ./internal/proptest
	$(GO) test -race -count=1 -run 'TestMVCC' .
	$(GO) test -race -count=1 -run 'TestAdmissionControl|TestFactsPost|TestQueryBatch|TestCancelledExpandDoesNotPublish|TestCancelledExtendAnswers499|TestQueryCancelPinnedReader' ./internal/server
	@echo "mvcc-smoke: ok"

# Streaming-ingest smoke: the pipeline's unit battery (batching
# triggers, error latch, cancellation, concurrent submitters), the
# split-invariance property test with shrinking, the API-level
# differential battery (every batch split of the firehose vs the t=0
# oracle, marginals included), the chaos leg (cancelled absorb
# publishes nothing, WAL recovery + idempotent re-streaming converges),
# every round's PartialError under cancellation, a streamed fact staying
# observed after a constraint pass left holes in the fact IDs, ExtendWith
# refusing the facts the ingest validator refuses,
# the server's streaming POST /facts contract — including the property
# cases over HTTP (TestFactsStreamSplitInvariance: same acks and closure
# as the library leg) and every kind of writer racing on the one writer
# lock — and the two binaries' own legs: `probkb ingest` transcripts,
# one validator for CLI and HTTP, and probkb-server's shutdown
# checkpoint mid-stream; plus the fact index and the MLN partitions an
# extend round hands the next: rounds forking the index equal to rounds
# building their own, and the partitions built once per lineage
# (TestLineage),
# and sibling extends, point queries and Explain sharing one
# extend-produced generation's index (TestExtendedGeneration); and the
# TΦ each round maintains from its Δ, on lineages started on every
# backend, equal to Query 2's as a multiset and in its marginals
# (TestMaintained); and each round's inference, built over the
# components holding a pending marginal only, writing what a pass over
# the whole graph writes, bit for bit, on Expand, ExtendWith, a deferred
# stream's refresh and a refresh with nothing pending
# (TestPendingPassMatchesWholeGraph) — all under -race.
ingest-smoke:
	$(GO) test -race -count=1 ./internal/ingest
	$(GO) test -race -count=1 -run 'TestIngestSplitInvariance|TestReplayIngestDeterministic|TestShrinkIngestReduces' ./internal/proptest
	$(GO) test -race -count=1 -run 'TestLineage|TestMaintained' ./internal/ground
	$(GO) test -race -count=1 -run 'TestIngest|TestExtendWithSplitDifferential|TestCancelledRoundsReturnPartialError|TestExtendWithAfterConstraintHoles|TestExtendWithRejectsInvalidFacts|TestExtendedGeneration|TestPendingPassMatchesWholeGraph' .
	$(GO) test -race -count=1 -run 'TestFactsStream|TestFactsPostAdmission|TestWritersRaceOneLock' ./internal/server
	$(GO) test -race -count=1 ./cmd/probkb ./cmd/probkb-server
	@echo "ingest-smoke: ok"

# Non-test Go lines: one line per package directory (wc -l over its
# non-test .go files), then the total outside benchmark/, the figure
# ROADMAP aim 2 and CHANGES.md report.
loc:
	@find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + | awk ' \
		$$2 != "total" { \
			d = $$2; sub(/\/[^\/]*$$/, "", d); lines[d] += $$1; \
			if (d !~ /^\.\/benchmark(\/|$$)/) total += $$1 \
		} \
		END { \
			for (d in lines) printf "%6d %s\n", lines[d], d | "sort -k2"; \
			close("sort -k2"); \
			printf "%6d total outside benchmark/\n", total \
		}'

fmt:
	gofmt -l -w .
