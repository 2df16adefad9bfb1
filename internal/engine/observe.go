package engine

import (
	"sync"

	"probkb/internal/obs"
)

// Bridge from per-plan NodeStats to the obs metrics registry: one Run's
// operator timings are ephemeral (overwritten by the next Run), so this
// walks a just-executed plan and accumulates its numbers into counters
// and histograms, letting plan timings aggregate across queries the way
// a DBMS's cumulative statistics views do.

func init() {
	obs.Default.Help("probkb_engine_plan_seconds", "Total self time of executed query plans, by query site.")
	obs.Default.Help("probkb_engine_operator_seconds", "Per-operator self time of executed plan nodes.")
	obs.Default.Help("probkb_engine_operator_rows_total", "Rows produced by executed plan nodes, by operator kind.")
	obs.Default.Help("probkb_engine_morsels_total", "Morsels processed by parallel operator regions, by region kind.")
	obs.Default.Help("probkb_engine_worker_utilization_ratio", "Fraction of worker-pool time spent busy per parallel region (0-1).")
}

// kindTable holds one metric handle per bounded kind (an operator kind,
// a morsel region), resolved from the default registry the first time
// the kind is observed: a plan walk or morsel loop makes no by-name
// lookup, and a kind never observed exposes no series.
type kindTable[H any] struct {
	mu      sync.RWMutex
	m       map[string]*H
	resolve func(kind string) *H
}

func (t *kindTable[H]) get(kind string) *H {
	t.mu.RLock()
	h := t.m[kind]
	t.mu.RUnlock()
	if h != nil {
		return h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h = t.m[kind]; h == nil {
		if t.m == nil {
			t.m = make(map[string]*H)
		}
		h = t.resolve(kind)
		t.m[kind] = h
	}
	return h
}

// opHandles are one operator kind's probkb_engine_operator_* series.
type opHandles struct {
	seconds *obs.Histogram
	rows    *obs.Counter
}

var (
	opMetrics = kindTable[opHandles]{resolve: func(op string) *opHandles {
		return &opHandles{
			seconds: obs.Default.Histogram("probkb_engine_operator_seconds", nil, obs.L("op", op)),
			rows:    obs.Default.Counter("probkb_engine_operator_rows_total", obs.L("op", op)),
		}
	}}
	morselMetrics = kindTable[obs.Counter]{resolve: func(op string) *obs.Counter {
		return obs.Default.Counter("probkb_engine_morsels_total", obs.L("op", op))
	}}
	utilizationMetrics = kindTable[obs.Histogram]{resolve: func(op string) *obs.Histogram {
		return obs.Default.Histogram("probkb_engine_worker_utilization_ratio", nil, obs.L("op", op))
	}}
)

// observeMorsels and observeUtilization feed the morsel-execution metrics
// from runMorsels; op is the bounded region kind ("filter", "join-probe",
// ...), not a free-form label.
func observeMorsels(op string, nm int) {
	morselMetrics.get(op).Add(int64(nm))
}

func observeUtilization(op string, u float64) {
	utilizationMetrics.get(op).Observe(u)
}

// PlanLike is the shape ObserveTree needs from a plan node; both
// engine.Node and mpp.Node satisfy it.
type PlanLike[N any] interface {
	Stats() *NodeStats
	Label() string
	OpKind() string
	Children() []N
}

// ObservePlan records a just-run single-node plan into the default
// registry under the given query site label (e.g. "ground-atoms").
func ObservePlan(query string, root Node) {
	obs.Default.Histogram("probkb_engine_plan_seconds", nil, obs.L("query", query)).
		Observe(TotalTime(root).Seconds())
	ObserveTree[Node](root)
}

// ObserveTree walks any plan tree (single-node or distributed) and
// accumulates per-operator self times and row counts under each node's
// OpKind.
func ObserveTree[N PlanLike[N]](root N) {
	st := root.Stats()
	h := opMetrics.get(root.OpKind())
	h.seconds.Observe(st.Elapsed.Seconds())
	h.rows.Add(int64(st.Rows))
	for _, k := range root.Children() {
		ObserveTree(k)
	}
}
