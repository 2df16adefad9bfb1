package engine

import "probkb/internal/obs"

// Bridge from per-plan NodeStats to the obs metrics registry: one Run's
// operator timings are ephemeral (overwritten by the next Run), so this
// walks a just-executed plan and accumulates its numbers into counters
// and histograms, letting plan timings aggregate across queries the way
// a DBMS's cumulative statistics views do.

var (
	planSeconds = obs.NewHistogramVec("probkb_engine_plan_seconds",
		"Total self time of executed query plans, by query site.", nil, "query")
	operatorSeconds = obs.NewHistogramVec("probkb_engine_operator_seconds",
		"Per-operator self time of executed plan nodes.", nil, "op")
	operatorRows = obs.NewCounterVec("probkb_engine_operator_rows_total",
		"Rows produced by executed plan nodes, by operator kind.", "op")
	morsels = obs.NewCounterVec("probkb_engine_morsels_total",
		"Morsels processed by parallel operator regions, by region kind.", "op")
	utilization = obs.NewHistogramVec("probkb_engine_worker_utilization_ratio",
		"Fraction of worker-pool time spent busy per parallel region (0-1).", nil, "op")
)

// PlanLike is the shape ObservePlan needs from a plan node; both
// engine.Node and mpp.Node satisfy it.
type PlanLike[N any] interface {
	Stats() *NodeStats
	Label() string
	OpKind() string
	Children() []N
}

// ObservePlan records a just-run plan — single-node or distributed —
// into the default registry under the given query site label (e.g.
// "ground-atoms"): its total time, and each node's self time and row
// count under the node's OpKind.
func ObservePlan[N PlanLike[N]](query string, root N) {
	planSeconds.With(query).Observe(TotalTimeOf(root).Seconds())
	observeTree(root)
}

func observeTree[N PlanLike[N]](root N) {
	st := root.Stats()
	op := root.OpKind()
	operatorSeconds.With(op).Observe(st.Elapsed.Seconds())
	operatorRows.With(op).Add(int64(st.Rows))
	for _, k := range root.Children() {
		observeTree(k)
	}
}
