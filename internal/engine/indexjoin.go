package engine

import "slices"

// IndexJoinNode is the hash join HashJoin(outer, Scan(inner)) computed
// from the outer side: each outer row reads its inner partners through
// an EntityIndex on the inner table instead of the join hashing the whole
// inner table. Its cost follows the outer input and the partners it
// reads, not the inner table's size — the shape of a semi-naive delta
// joined to the full facts table.
//
// The output is the hash join's, row for row: pairs ordered by inner row,
// then outer row, with outs selecting columns of the outer input
// (BuildSide) and the inner table (ProbeSide). With a group column the
// outer input is cut into runs of consecutive rows with equal values in
// it, and the output is each run's hash join in turn — what a hash join
// over a delta's rows, one at a time, would emit.
type IndexJoinNode struct {
	base
	outer                Node
	ix                   *EntityIndex
	outerKeys, innerKeys []int
	group                int
	outs                 []JoinOut
	desc                 string
}

// NewIndexJoin constructs an index join. outerKeys and innerKeys are
// parallel lists of Int32 column indices, as for NewHashJoin; the first
// inner key must be the one column ix indexes, and the first outer key is
// the value each outer row looks up. group is an outer column, or -1 for
// none.
func NewIndexJoin(outer Node, ix *EntityIndex, outerKeys, innerKeys []int, group int, outs []JoinOut, desc string) *IndexJoinNode {
	if len(outerKeys) != len(innerKeys) || len(innerKeys) == 0 {
		panic("engine: IndexJoin key lists differ in length or are empty")
	}
	if len(ix.Cols()) != 1 || ix.Cols()[0] != innerKeys[0] {
		panic("engine: IndexJoin index is not on its first inner key")
	}
	return &IndexJoinNode{
		base:      base{schema: JoinSchema(outer.OutSchema(), ix.Table().Schema(), outs)},
		outer:     outer,
		ix:        ix,
		outerKeys: outerKeys,
		innerKeys: innerKeys,
		group:     group,
		outs:      outs,
		desc:      desc,
	}
}

func (n *IndexJoinNode) Children() []Node { return []Node{n.outer} }

func (n *IndexJoinNode) Label() string {
	t := n.ix.Table()
	return "Index Join on " + t.Name() + "." + t.Schema().Cols[n.innerKeys[0]].Name + " (" + n.desc + ")"
}

func (n *IndexJoinNode) OpKind() string { return "Index Join" }

// Run executes the join.
func (n *IndexJoinNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	ot := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		return indexJoinTables(ot, n.ix, n.outerKeys, n.innerKeys, n.group, n.outs, n.schema), nil
	})
}

// indexJoinTables is the index-join kernel. Each outer row's partners come
// out of the index ascending, but a run's pairs must be ordered by inner
// row first, so they are collected packed as (inner row, outer row) words
// and each run sorted once: the sort is over the output, never the inner
// table.
func indexJoinTables(ot *Table, ix *EntityIndex, outerKeys, innerKeys []int, group int, outs []JoinOut, schema Schema) *Table {
	it := ix.Table()
	look := ot.cols[outerKeys[0]].i32
	var runOf []int32
	if group >= 0 {
		runOf = ot.cols[group].i32
	}
	var (
		packed   []uint64
		partners []int32
		runStart int
	)
	for or, v := range look {
		if runOf != nil && or > 0 && runOf[or] != runOf[or-1] {
			slices.Sort(packed[runStart:])
			runStart = len(packed)
		}
		partners = ix.Lookup(v, partners[:0])
		for _, ir := range partners {
			if rowsEqualOn(ot, or, outerKeys[1:], it, int(ir), innerKeys[1:]) {
				packed = append(packed, uint64(ir)<<32|uint64(or))
			}
		}
	}
	slices.Sort(packed[runStart:])

	pairs := make([]joinPair, len(packed))
	for k, p := range packed {
		pairs[k] = joinPair{BuildSide: int32(uint32(p)), ProbeSide: int32(p >> 32)}
	}
	out := NewTable("join", schema)
	out.setLen(len(pairs))
	gatherJoin(out, 0, outs, ot, it, pairs)
	return out
}
