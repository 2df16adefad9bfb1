package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// decl declares one metric the benchmark emits. BENCHMARK.json repeats
// these lists (and adds the end-to-end bounds); TestDeclaredNames keeps
// the two in step.
type decl struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the system sees. Every workload emits all
// of them with tracing off, so the list holds only what means something
// on every workload: what "the operation" is for each one is fixed in
// workloads (main.go) and tabulated in README.md. Tails and rates exist
// on the serving workloads only and are per-layer metrics (server.*).
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"latency_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer is what the traced run attributes to single modules of this
// repository (the prefix before the dot is the module). A workload that
// bypasses a layer reports 0 for it.
var perLayer = []decl{
	{"kb.fork_us", "us", "lower"},
	{"quality.preclean_s", "s", "lower"},
	{"quality.hook_s", "s", "lower"},
	{"quality.deleted", "count", "lower"},
	{"ground.load_s", "s", "lower"},
	{"ground.atoms_s", "s", "lower"},
	{"ground.factors_s", "s", "lower"},
	{"ground.iter_p50_ms", "ms", "lower"},
	{"ground.queries", "count", "lower"},
	{"ground.facts_out", "count", "higher"},
	{"ground.factors_out", "count", "higher"},
	{"ground.iterations", "count", "lower"},
	{"engine.join_mrows_per_s", "Mrows/s", "higher"},
	{"engine.distinct_mrows_per_s", "Mrows/s", "higher"},
	{"engine.groupby_mrows_per_s", "Mrows/s", "higher"},
	{"engine.filter_mrows_per_s", "Mrows/s", "higher"},
	{"engine.join_allocs", "count", "lower"},
	{"mpp.load_s", "s", "lower"},
	{"mpp.atoms_s", "s", "lower"},
	{"mpp.factors_s", "s", "lower"},
	{"mpp.vs_single_ratio", "ratio", "lower"},
	{"factor.build_s", "s", "lower"},
	{"factor.vars", "count", "higher"},
	{"factor.factors", "count", "higher"},
	{"infer.gibbs_s", "s", "lower"},
	{"infer.mvar_sweeps_per_s", "Mvar/s", "higher"},
	{"infer.gibbs_allocs", "count", "lower"},
	{"infer.chromatic_s", "s", "lower"},
	{"infer.apply_s", "s", "lower"},
	{"obs.expand_residual_s", "s", "lower"},
	{"probkb.querylocal_cached_us", "us", "lower"},
	{"probkb.querylocal_cold_us", "us", "lower"},
	{"probkb.querylocal_cold_allocs", "count", "lower"},
	{"ground.local_us", "us", "lower"},
	{"factor.subgraph_us", "us", "lower"},
	{"infer.local_us", "us", "lower"},
	{"server.healthz_p50_us", "us", "lower"},
	{"server.stats_p50_us", "us", "lower"},
	{"server.http_overhead_cached_us", "us", "lower"},
	{"epoch.pin_ns", "ns", "lower"},
	{"sql.plan_us", "us", "lower"},
	{"sql.exec_us", "us", "lower"},
	{"probkb.extend_deferred_ms", "ms", "lower"},
	{"probkb.extend_allocs", "count", "lower"},
	{"ground.extend_ms", "ms", "lower"},
	{"ingest.absorb_ms", "ms", "lower"},
	{"probkb.refresh_s", "s", "lower"},
	{"server.latency_p50_ms", "ms", "lower"},
	{"server.latency_tail_ms", "ms", "lower"},
	{"server.requests_per_s", "1/s", "higher"},
	{"server.ingest_facts_per_s", "facts/s", "higher"},
	{"server.absorb_p25_ms", "ms", "lower"},
	{"server.absorb_p50_ms", "ms", "lower"},
	{"server.read_underwrite_p50_ms", "ms", "lower"},
	{"server.read_underwrite_p99_ms", "ms", "lower"},
	{"server.read_underwrite_miss_ratio", "ratio", "lower"},
	{"store.create_s", "s", "lower"},
	{"store.checkpoint_s", "s", "lower"},
	{"store.open_s", "s", "lower"},
	{"store.snapshot_bytes_per_fact", "B/fact", "lower"},
	{"store.wal_records", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metric is one measured value; Samples says how many observations the
// value summarises (1 for a single reading).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one run of one workload produced.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// problems lists every failed output check; empty means correct.
	problems []string
	// notes are printed for the reader (reference numbers, pool sizes).
	notes []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// set records a metric under its declared unit.
func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, list := range [][]decl{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// setQuietest reports latency_ms from a serving workload's timed window
// cut into slices: the median request of the slice whose median is
// lowest. (The batch workloads do the same with one repetition per
// slice.) Other tenants of the machine slow a run down
// for seconds at a time and never speed it up, so the quietest slice
// says most about the program, and a change that makes the typical
// operation slower moves every slice's median. That does not hold for
// a tail, which exists to catch what happens in only some slices, so
// tails are taken over the whole window and never filtered (setWindow).
func (r *result) setQuietest(slices [][]time.Duration) {
	var best time.Duration
	n := 0
	for _, durs := range slices {
		if len(durs) == 0 {
			continue
		}
		if p50 := median(durs); n == 0 || p50 < best {
			best, n = p50, len(durs)
		}
	}
	r.set("latency_ms", ms(best), n)
}

// window is what the whole timed window of a serving workload looked
// like, nothing filtered: the median, the tail percentile the sample
// count supports, and answered requests per second.
type window struct {
	p50, tail time.Duration
	tailQ     float64
	rate      float64
	n         int
}

func wholeWindow(slices [][]time.Duration, length time.Duration) window {
	var all []time.Duration
	for _, durs := range slices {
		all = append(all, durs...)
	}
	sorted := sortedCopy(all)
	q := tailQuantile(len(sorted))
	return window{percentile(sorted, 0.50), percentile(sorted, q), q, float64(len(sorted)) / length.Seconds(), len(sorted)}
}

func (w window) String() string {
	return fmt.Sprintf("p50 %.4f ms, p%g %.4f ms, %.0f requests/s", ms(w.p50), 100*w.tailQ, ms(w.tail), w.rate)
}

func (r *result) setWindow(w window) {
	r.set("server.latency_p50_ms", ms(w.p50), w.n)
	r.set("server.latency_tail_ms", ms(w.tail), w.n)
	r.set("server.requests_per_s", w.rate, w.n)
}

// tailQuantile applies the reporting rule "the median plus the highest
// percentile with at least ten samples beyond it": of p75, p90, p95 and
// p99 it returns the highest one that still leaves ten samples above it,
// and the median itself when the sample supports none of them (fewer
// than 40 samples).
func tailQuantile(n int) float64 {
	tail := 0.50
	for _, permille := range []int{750, 900, 950, 990} {
		if n*(1000-permille) >= 10*1000 {
			tail = float64(permille) / 1000
		}
	}
	return tail
}

func sortedCopy(durs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), durs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func median(durs []time.Duration) time.Duration { return percentile(sortedCopy(durs), 0.50) }

func sum(durs []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range durs {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// exclusive method), which is what the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(k int) float64 {
		n := len(v)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}
