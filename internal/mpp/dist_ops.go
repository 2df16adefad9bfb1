package mpp

import (
	"fmt"

	"probkb/internal/engine"
)

// segLocal runs one engine operator — Filter, Project, HashJoin,
// Distinct or GroupBy — independently on every segment: segment i
// re-instantiates the operator over its slices of the inputs
// (engine.Rebind) and keeps the output local. That is only correct when
// the rows an operator must see together already share a segment; Lower
// establishes that placement (or records the deferred error) before it
// builds the node, and derives the output distribution.
type segLocal struct {
	dbase
	op   engine.Node
	kind string // names the output tables: "filter", "join", ...
	kids []Node
}

func newSegLocal(op engine.Node, kind string, dist Distribution, kids ...Node) *segLocal {
	n := &segLocal{dbase: childBase(kids[0], op.OutSchema(), dist), op: op, kind: kind, kids: kids}
	n.stats.EstRows = op.Stats().EstRows
	return n
}

func (n *segLocal) Children() []Node { return n.kids }
func (n *segLocal) Label() string    { return n.op.Label() }
func (n *segLocal) OpKind() string   { return n.op.OpKind() }

// Run executes the operator on every segment in parallel. Each segment
// task builds a fresh local plan and assigns its output last, so a
// retried attempt cannot leave partial rows (or stats) behind.
func (n *segLocal) Run() (*DistTable, error) {
	if n.err != nil {
		return nil, n.err
	}
	ins, err := runChildrenD(n)
	if err != nil {
		return nil, err
	}
	return timeRunD(&n.stats, func() (*DistTable, error) {
		out := n.cluster.newDistTable(n.kind, n.schema, n.dist)
		opts := n.cluster.engineOpts()
		segStats := make([]engine.NodeStats, n.cluster.nseg)
		segSecs, retries, err := n.cluster.forEachSegment(func(i int) error {
			local := make([]*engine.Table, len(ins))
			for j, in := range ins {
				local[j] = in.segs[i]
			}
			op := engine.Rebind(n.op, local...)
			engine.Configure(op, opts)
			t, err := op.Run()
			if err != nil {
				return err
			}
			t.SetName(fmt.Sprintf("%s.seg%d", n.kind, i))
			out.segs[i] = t
			segStats[i] = *op.Stats()
			return nil
		})
		n.stats.SegSeconds = segSecs
		n.stats.Retries = retries
		mergeExecStats(&n.stats, segStats)
		if err != nil {
			return nil, err
		}
		return out, nil
	})
}

// ---------------------------------------------------------------------------
// Output-distribution derivation

// remapDist maps a distribution through a projection list: if every
// distribution-key column of the input survives as a plain column
// reference, the output stays hashed on the mapped columns; otherwise
// it degrades to random (replicated stays replicated).
func remapDist(d Distribution, exprs []engine.OutExpr) Distribution {
	if d.Replicated {
		return d
	}
	return mapKey(d.Key, len(exprs), func(j, k int) bool { return exprs[j].Col == k })
}

// groupDist maps the input's hash key onto the group-by output, whose
// leading columns are the group keys in order.
func groupDist(d Distribution, keys []int) Distribution {
	if d.Replicated {
		return d
	}
	return mapKey(d.Key, len(keys), func(j, k int) bool { return keys[j] == k })
}

// mapKey relocates every column of a hash key to the first of n output
// positions that carries it; a key column with no such position (or a
// nil key) leaves the output randomly distributed.
func mapKey(key []int, n int, carries func(out, col int) bool) Distribution {
	if key == nil {
		return RandomDist()
	}
	mapped := make([]int, len(key))
	for i, k := range key {
		found := -1
		for j := 0; j < n; j++ {
			if carries(j, k) {
				found = j
				break
			}
		}
		if found < 0 {
			return RandomDist()
		}
		mapped[i] = found
	}
	return HashedBy(mapped...)
}

// joinOutputDist derives the output distribution of a collocated join.
func joinOutputDist(bd, pd Distribution, outs []engine.JoinOut) Distribution {
	if bd.Replicated && pd.Replicated {
		// Identical output on every segment: exactly the replicated
		// invariant, keep it.
		return ReplicatedDist()
	}
	// Rows land on the segment of the non-replicated side (or either, if
	// both hashed on the join keys). Map that side's distribution key
	// through the output spec.
	for side, d := range [2]Distribution{engine.BuildSide: bd, engine.ProbeSide: pd} {
		if d.Replicated {
			continue
		}
		out := mapKey(d.Key, len(outs), func(j, k int) bool { return outs[j].Side == side && outs[j].Col == k })
		if !out.Random() {
			return out
		}
	}
	return RandomDist()
}

// subsetOf reports whether every element of sub appears in super; a nil
// sub (random distribution) is not a subset of anything.
func subsetOf(sub, super []int) bool {
	if sub == nil {
		return false
	}
	for _, s := range sub {
		found := false
		for _, t := range super {
			if s == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
