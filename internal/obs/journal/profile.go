package journal

import (
	"strings"

	"probkb/internal/engine"
)

// Capture snapshots a just-run plan tree — single-node or distributed —
// into the journal's PlanNode form. Like engine.ObservePlan it is
// generic over the plan shape, so this package never imports mpp.
func Capture[N engine.PlanLike[N]](root N) PlanNode {
	st := root.Stats()
	pn := PlanNode{
		Label:      root.Label(),
		Rows:       st.Rows,
		EstRows:    st.EstRows,
		Seconds:    st.Elapsed.Seconds(),
		Extra:      st.Extra,
		Bytes:      st.OutBytes,
		SegRows:    append([]int(nil), st.SegRows...),
		SegSeconds: append([]float64(nil), st.SegSeconds...),
		MovedRows:  st.MovedRows,
		MovedBytes: st.MovedBytes,
		Workers:    st.Workers,
		Morsels:    st.Morsels,
		Retries:    st.Retries,
	}
	for _, k := range root.Children() {
		pn.Children = append(pn.Children, Capture(k))
	}
	return pn
}

// EmitProfile records one executed query's plan tree and, for each
// motion operator in it, a standalone motion event carrying its shipped
// volume. A profile naming no query is not recorded: it stands for a
// query whose runner journals no plans.
func (w *Writer) EmitProfile(p QueryProfile) {
	if w == nil || p.Query == "" {
		return
	}
	w.Emit(TypeQueryProfile, p)
	emitMotions(w, p, p.Plan)
}

func emitMotions(w *Writer, p QueryProfile, n PlanNode) {
	if kind := motionKind(n.Label); kind != "" {
		w.Emit(TypeMotion, Motion{
			Kind:      kind,
			Query:     p.Query,
			Partition: p.Partition,
			Iteration: p.Iteration,
			Rows:      n.MovedRows,
			Bytes:     n.MovedBytes,
		})
	}
	for _, k := range n.Children {
		emitMotions(w, p, k)
	}
}

// motionKind classifies a plan-node label as a data-moving motion, or
// "" for everything else (Gather collects results rather than reshaping
// placement, so it is not flagged as a shipping motion).
func motionKind(label string) string {
	switch {
	case strings.HasPrefix(label, "Redistribute Motion"):
		return "redistribute"
	case strings.HasPrefix(label, "Broadcast Motion"):
		return "broadcast"
	default:
		return ""
	}
}
