package mpp

import (
	"fmt"

	"probkb/internal/engine"
)

// Lower turns a single-node engine plan into the distributed plan that
// computes the same relation on a cluster. The engine tree is the one
// statement of a query; this pass is the only place that decides data
// placement, the way Greenplum's optimizer — not the query's author —
// inserts the motions of Figure 4:
//
//   - A scan reads place(table), the cluster copy of its base table.
//   - Filter and Project run segment-local and carry the input's
//     distribution through (a projection that drops a distribution-key
//     column degrades to random).
//   - A hash join needs its inputs collocated: one side replicated, or
//     both hashed on exactly the join keys (the paper's Example 5).
//     Inputs already placed that way join directly. A misplaced
//     base-table scan is swapped for the view of that table distributed
//     by the join keys, if views holds one — no motion, the optimized
//     plan of Figure 4. Failing that, if one input is placed the other
//     is redistributed; if neither is, the build side is broadcast. By
//     convention the build side is the smaller input (rule table or
//     intermediate result), so this reproduces the expensive Broadcast
//     Motion of Figure 4's unoptimized plan.
//   - Distinct and GroupBy need equal keys collocated: the input
//     replicated, or hashed on a subset of the keys. Otherwise it is
//     redistributed by the full key tuple.
//   - Sort, Limit and anything else cannot run segment-local
//     and lower to a node that fails at Run.
//
// With motions false no motion is ever inserted: tables stay where they
// were placed, and an operator whose inputs are not collocated carries a
// deferred error that surfaces at Run — it never panics and never
// silently ships rows. That is the ad-hoc SQL mode (POST /sql). views
// may be nil to disable substitution (the ProbKB-pn configuration of
// Figure 6(c)). Optimizer estimates stamped on the engine nodes carry
// over; inserted motions have none.
func Lower(root engine.Node, place func(*engine.Table) *DistTable, views *Views, motions bool) Node {
	return lowering{place: place, views: views, motions: motions}.node(root)
}

type lowering struct {
	place   func(*engine.Table) *DistTable
	views   *Views
	motions bool
}

func (l lowering) node(n engine.Node) Node {
	kids := make([]Node, len(n.Children()))
	for i, k := range n.Children() {
		kids[i] = l.node(k)
	}
	switch op := n.(type) {
	case *engine.ScanNode:
		d := l.place(op.Table())
		if d == nil {
			return failed(op, fmt.Errorf("mpp: table %s has no copy on the cluster", op.Table().Name()))
		}
		return scanWithEst(d, op.Stats().EstRows)
	case *engine.FilterNode:
		return newSegLocal(op, "filter", kids[0].OutDist(), kids[0])
	case *engine.ProjectNode:
		return newSegLocal(op, "project", remapDist(kids[0].OutDist(), op.Exprs()), kids[0])
	case *engine.HashJoinNode:
		return l.join(op, kids[0], kids[1])
	case *engine.DistinctNode:
		child, err := l.together(kids[0], op.Keys(), "Distinct")
		return newSegLocal(op, "distinct", child.OutDist(), child).deferErr(err)
	case *engine.GroupByNode:
		child, err := l.together(kids[0], op.Keys(), "GroupBy")
		return newSegLocal(op, "groupby", groupDist(child.OutDist(), op.Keys()), child).deferErr(err)
	}
	return failed(n, fmt.Errorf("mpp: %s cannot run distributed", n.Label()), kids...)
}

// join places the two inputs of a hash join and builds the segment-local
// join over them.
func (l lowering) join(op *engine.HashJoinNode, build, probe Node) Node {
	buildKeys, probeKeys := op.Keys()
	build, buildOK := l.placedFor(build, buildKeys)
	probe, probeOK := l.placedFor(probe, probeKeys)
	if l.motions {
		switch {
		case buildOK && probeOK:
		case buildOK:
			probe = NewRedistribute(probe, probeKeys)
		case probeOK:
			build = NewRedistribute(build, buildKeys)
		default:
			build = NewBroadcast(build)
		}
	}
	bd, pd := build.OutDist(), probe.OutDist()
	var err error
	if !bd.Replicated && !pd.Replicated && !(keysEqual(bd.Key, buildKeys) && keysEqual(pd.Key, probeKeys)) {
		// Joining anyway would silently drop the matches that live on
		// different segments.
		err = fmt.Errorf("mpp: HashJoin inputs not collocated: build %s on %v, probe %s on %v",
			bd, buildKeys, pd, probeKeys)
	}
	return newSegLocal(op, "join", joinOutputDist(bd, pd, op.Outs()), build, probe).deferErr(err)
}

// placedFor reports whether n's output is placed for a join keyed on
// keys — replicated, or hashed on exactly those columns — after swapping
// a misplaced base-table scan for the view distributed that way, when
// one is registered.
func (l lowering) placedFor(n Node, keys []int) (Node, bool) {
	d := n.OutDist()
	if d.Replicated || keysEqual(d.Key, keys) {
		return n, true
	}
	if s, ok := n.(*ScanNode); ok && l.views != nil {
		if view, found := l.views.Lookup(s.d.Name(), keys); found {
			return scanWithEst(view, s.stats.EstRows), true
		}
	}
	return n, false
}

// together returns child placed so that rows equal on keys share a
// segment, redistributing it when motions allow; otherwise the returned
// error is the operator's deferred collocation violation.
func (l lowering) together(child Node, keys []int, what string) (Node, error) {
	d := child.OutDist()
	switch {
	case d.Replicated || subsetOf(d.Key, keys):
		return child, nil
	case l.motions && len(keys) > 0:
		return NewRedistribute(child, keys), nil
	}
	return child, fmt.Errorf("mpp: %s on %v over input distributed %s: equal keys not collocated", what, keys, d)
}

func scanWithEst(d *DistTable, est float64) *ScanNode {
	s := NewScan(d)
	s.stats.EstRows = est
	return s
}

// failed is the lowering of an operator that cannot run on the cluster:
// it keeps the operator's label and lowered inputs, so the plan still
// renders, and fails with err at Run.
func failed(op engine.Node, err error, kids ...Node) Node {
	return &segLocal{dbase: dbase{schema: op.OutSchema(), err: err}, op: op, kids: kids}
}

// deferErr records a lowering-time violation on the node unless an
// earlier error (an invalid cluster, a failed input) already claimed it.
func (n *segLocal) deferErr(err error) *segLocal {
	if n.err == nil {
		n.err = err
	}
	return n
}
