package engine

// A plan tree is pure data until Run, so a second executor can read it:
// the MPP lowering (internal/mpp.Lower) walks an engine plan, decides
// data placement from the accessors below, and runs each operator once
// per segment through Rebind.

// Table returns the base table the scan reads.
func (n *ScanNode) Table() *Table { return n.t }

// Exprs returns the projection list (column types resolved).
func (n *ProjectNode) Exprs() []OutExpr { return n.exprs }

// Keys returns the parallel build-side and probe-side join key columns.
func (n *HashJoinNode) Keys() (build, probe []int) { return n.buildKeys, n.probeKeys }

// Outs returns the join's output column spec.
func (n *HashJoinNode) Outs() []JoinOut { return n.outs }

// Keys returns the columns duplicates are judged by.
func (n *DistinctNode) Keys() []int { return n.keys }

// Keys returns the grouping columns.
func (n *GroupByNode) Keys() []int { return n.keys }

// Rebind re-instantiates operator op — same predicate, keys, output
// spec and label — over scans of the given input tables instead of op's
// own children. It is how a distributed executor runs one logical
// operator independently on each segment's slice of the inputs. Only
// the operators that can run segment-locally rebind (Filter, Project,
// HashJoin, Distinct, GroupBy); any other operator yields nil.
func Rebind(op Node, inputs ...*Table) Node {
	switch n := op.(type) {
	case *FilterNode:
		f := NewFilter(NewScan(inputs[0]), n.desc, n.pred)
		f.cmp = n.cmp
		return f
	case *ProjectNode:
		return NewProject(NewScan(inputs[0]), n.exprs...)
	case *HashJoinNode:
		return NewHashJoin(NewScan(inputs[0]), NewScan(inputs[1]), n.buildKeys, n.probeKeys, n.outs, n.desc).
			WithResidual(n.residualDesc, n.residual)
	case *DistinctNode:
		return NewDistinct(NewScan(inputs[0]), n.keys)
	case *GroupByNode:
		return NewGroupBy(NewScan(inputs[0]), n.keys, n.aggs)
	}
	return nil
}
