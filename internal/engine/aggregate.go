package engine

import "fmt"

// AggKind enumerates the aggregate functions GroupByNode supports. They
// are exactly the ones ProbKB's quality-control queries need (Query 3 in
// the paper groups by (R, x, C1, C2) and filters on COUNT(*) > MIN(deg)).
type AggKind int

const (
	// AggCount counts rows per group; Col is ignored.
	AggCount AggKind = iota
	// AggCountDistinct counts distinct values of an Int32 column per group.
	AggCountDistinct
	// AggMinF64 takes the minimum of a Float64 column per group.
	AggMinF64
	// AggMaxF64 takes the maximum of a Float64 column per group.
	AggMaxF64
	// AggSumF64 sums a Float64 column per group.
	AggSumF64
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count(*)"
	case AggCountDistinct:
		return "count(distinct)"
	case AggMinF64:
		return "min"
	case AggMaxF64:
		return "max"
	case AggSumF64:
		return "sum"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggSpec requests one aggregate output column.
type AggSpec struct {
	Kind AggKind
	Col  int // input column; ignored for AggCount
	Name string
}

// GroupByNode groups its input on a tuple of Int32 key columns and emits
// one row per group: the key columns followed by the aggregates.
type GroupByNode struct {
	base
	child Node
	keys  []int
	aggs  []AggSpec
}

// NewGroupBy constructs a hash aggregation over child.
func NewGroupBy(child Node, keyCols []int, aggs []AggSpec) *GroupByNode {
	sch := GroupBySchema(child.OutSchema(), keyCols, aggs)
	return &GroupByNode{base: base{schema: sch}, child: child, keys: keyCols, aggs: aggs}
}

func (n *GroupByNode) Children() []Node { return []Node{n.child} }

func (n *GroupByNode) Label() string {
	return fmt.Sprintf("GroupAggregate (%d keys, %d aggs)", len(n.keys), len(n.aggs))
}

func (n *GroupByNode) OpKind() string { return "GroupAggregate" }

// Run executes the aggregation.
func (n *GroupByNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		return groupByTable(in, n.keys, n.aggs, n.schema, n.exec, &n.stats)
	})
}

// GroupBySchema derives the output schema of a grouping over the given
// input schema.
func GroupBySchema(in Schema, keys []int, aggs []AggSpec) Schema {
	sch := Schema{Cols: make([]ColDef, 0, len(keys)+len(aggs))}
	for _, k := range keys {
		sch.Cols = append(sch.Cols, in.Cols[k])
	}
	for _, a := range aggs {
		switch a.Kind {
		case AggCount, AggCountDistinct:
			sch.Cols = append(sch.Cols, ColDef{Name: a.Name, Type: Int32})
		case AggMinF64, AggMaxF64, AggSumF64:
			sch.Cols = append(sch.Cols, ColDef{Name: a.Name, Type: Float64})
		}
	}
	return sch
}

// GroupByTableOpts runs the aggregation kernel under the given execution
// options, recording worker/morsel counts into st when non-nil. The MPP
// layer calls it once per segment.
func GroupByTableOpts(in *Table, keys []int, aggs []AggSpec, o Opts, st *NodeStats) (*Table, error) {
	return groupByTable(in, keys, aggs, GroupBySchema(in.Schema(), keys, aggs), o, st)
}

// aggPartial is a partial aggregation — one morsel's, or the merge of
// them all. Group g is index row g, in first-occurrence order, and every
// per-group value is element g of a flat slice: firstRow (the group's
// first input row), and per aggregate a (aggs[a]) the COUNT(*) or
// COUNT(DISTINCT) in cnt[a] (the latter's values, for all groups, in
// seen[a]), or the MIN, MAX or SUM in val[a]. An aggregate's other slots
// stay empty; its slice is its output column.
type aggPartial struct {
	ix       *rowIndex
	firstRow []int32
	cnt      [][]int32
	val      [][]float64
	seen     []distinctSet
}

// newAggPartial returns an empty partial whose indexes hold groups groups
// and, for each COUNT(DISTINCT) a, pairs(a) (group, value) pairs without
// growing.
func newAggPartial(aggs []AggSpec, groups int, pairs func(a int) int) aggPartial {
	p := aggPartial{
		ix:  newRowIndexFor(groups),
		cnt: make([][]int32, len(aggs)), val: make([][]float64, len(aggs)), seen: make([]distinctSet, len(aggs)),
	}
	for a, s := range aggs {
		if s.Kind == AggCountDistinct {
			p.seen[a].ix = newRowIndexFor(pairs(a))
		}
	}
	return p
}

// addGroup starts the next group, under hash h, whose first input row is
// r: no rows, every aggregate empty.
func (p *aggPartial) addGroup(h uint64, r int, aggs []AggSpec) int32 {
	p.ix.add(h)
	p.firstRow = append(p.firstRow, int32(r))
	for a, s := range aggs {
		switch s.Kind {
		case AggCount, AggCountDistinct:
			p.cnt[a] = append(p.cnt[a], 0)
		case AggMinF64, AggMaxF64:
			p.val[a] = append(p.val[a], NullFloat64())
		case AggSumF64:
			p.val[a] = append(p.val[a], 0)
		}
	}
	return int32(len(p.firstRow) - 1)
}

// find returns the number of the group whose key is that of input row r
// (hash h), or -1.
func (p *aggPartial) find(h uint64, in *Table, keys []int, r int) int32 {
	for c := p.ix.first(h); c >= 0; c = p.ix.after(h, c) {
		if rowsEqualOn(in, int(p.firstRow[c]), keys, in, r, keys) {
			return c
		}
	}
	return -1
}

// accumulateRow folds input row r into the partial's group g.
func (p *aggPartial) accumulateRow(g int32, in *Table, aggs []AggSpec, r int) {
	for a, s := range aggs {
		switch s.Kind {
		case AggCount:
			p.cnt[a][g]++
		case AggCountDistinct:
			if p.seen[a].insert(g, in.cols[s.Col].i32[r]) {
				p.cnt[a][g]++
			}
		case AggMinF64:
			if v := in.cols[s.Col].f64[r]; IsNullFloat64(p.val[a][g]) || v < p.val[a][g] {
				p.val[a][g] = v
			}
		case AggMaxF64:
			if v := in.cols[s.Col].f64[r]; IsNullFloat64(p.val[a][g]) || v > p.val[a][g] {
				p.val[a][g] = v
			}
		case AggSumF64:
			p.val[a][g] += in.cols[s.Col].f64[r]
		}
	}
}

// mergeGroup folds src's group i into p's group g. Merges happen in
// morsel-index order, which is what makes float sums identical for every
// worker count. Distinct counts merge with the partials' distinctSets
// (mergeDistinct).
func (p *aggPartial) mergeGroup(g int32, src *aggPartial, i int32, aggs []AggSpec) {
	for a, s := range aggs {
		switch s.Kind {
		case AggCount:
			p.cnt[a][g] += src.cnt[a][i]
		case AggMinF64:
			if v, dst := src.val[a][i], p.val[a]; !IsNullFloat64(v) && (IsNullFloat64(dst[g]) || v < dst[g]) {
				dst[g] = v
			}
		case AggMaxF64:
			if v, dst := src.val[a][i], p.val[a]; !IsNullFloat64(v) && (IsNullFloat64(dst[g]) || v > dst[g]) {
				dst[g] = v
			}
		case AggSumF64:
			p.val[a][g] += src.val[a][i]
		}
	}
}

// copyGroup starts p's next group, under hash h, as src's group i: its
// counts and values, but its distinct counts at zero, for they are
// counted again as src's values merge.
func (p *aggPartial) copyGroup(h uint64, src *aggPartial, i int32, aggs []AggSpec) int32 {
	g := p.addGroup(h, int(src.firstRow[i]), aggs)
	for a, s := range aggs {
		switch s.Kind {
		case AggCount:
			p.cnt[a][g] = src.cnt[a][i]
		case AggMinF64, AggMaxF64, AggSumF64:
			p.val[a][g] = src.val[a][i]
		}
	}
	return g
}

// mergeDistinct folds src's distinct values into p, where src's group i
// is p's group to[i], and counts each value new to its group.
func (p *aggPartial) mergeDistinct(src *aggPartial, to []int32) {
	for a := range src.seen {
		if src.seen[a].ix == nil {
			continue
		}
		for _, pair := range src.seen[a].ix.hash {
			g := to[pair>>32]
			if p.seen[a].insert(g, int32(uint32(pair))) {
				p.cnt[a][g]++
			}
		}
	}
}

// distinctSet is one COUNT(DISTINCT)'s values for all the groups of a
// partial: a set of (group, value) pairs on one rowIndex, instead of a
// map per group. A pair is its own hash, so an equal hash is a match.
type distinctSet struct{ ix *rowIndex }

// insert adds value v to group g's values and reports whether it was new.
func (s *distinctSet) insert(g int32, v int32) bool {
	pair := uint64(g)<<32 | uint64(uint32(v))
	if s.ix.first(pair) >= 0 {
		return false
	}
	s.ix.add(pair)
	return true
}

// groupByTable is the aggregation kernel, shared with the MPP layer.
//
// Every worker count uses the same morsel path: each morsel aggregates
// its rows into a partial (group order = first occurrence within the
// morsel, firstRow = global row index), and partials merge sequentially
// in morsel-index order. Group output order is therefore first occurrence
// by (morsel index, row index) = global row order, and float sums add in
// a fixed order — both independent of the worker count. A single-morsel
// input skips the merge and is bitwise-identical to the historical serial
// kernel.
func groupByTable(in *Table, keys []int, aggs []AggSpec, schema Schema, o Opts, st *NodeStats) (*Table, error) {
	parts := make([]aggPartial, morselCount(in.NumRows(), o.morsel()))
	runMorsels("groupby", in.NumRows(), o, st, func(m, lo, hi int) {
		p := newAggPartial(aggs, hi-lo, func(int) int { return hi - lo })
		hs := make([]uint64, hi-lo)
		hashRange(hs, in, keys, lo)
		for i, h := range hs {
			r := lo + i
			g := p.find(h, in, keys, r)
			if g < 0 {
				g = p.addGroup(h, r, aggs)
			}
			p.accumulateRow(g, in, aggs, r)
		}
		parts[m] = p
	})

	var all aggPartial
	if len(parts) == 1 {
		all = parts[0]
	} else {
		// The partials' groups and (group, value) pairs bound the merged
		// ones, so the merge's indexes never grow.
		groups := 0
		for pi := range parts {
			groups += len(parts[pi].firstRow)
		}
		all = newAggPartial(aggs, groups, func(a int) int {
			pairs := 0
			for pi := range parts {
				pairs += len(parts[pi].seen[a].ix.hash)
			}
			return pairs
		})
		for pi := range parts {
			p := &parts[pi]
			to := make([]int32, len(p.firstRow))
			for i := range to {
				i := int32(i)
				h := p.ix.hash[i]
				if g := all.find(h, in, keys, int(p.firstRow[i])); g >= 0 {
					all.mergeGroup(g, p, i, aggs)
					to[i] = g
				} else {
					to[i] = all.copyGroup(h, p, i, aggs)
				}
			}
			all.mergeDistinct(p, to)
		}
	}

	// The aggregates' slices are the output columns; the keys are
	// gathered from each group's first row.
	out := NewTable("groupby", schema)
	n := len(all.firstRow)
	for k, c := range keys {
		oc, ic := out.cols[k], in.cols[c]
		switch ic.typ {
		case Int32:
			oc.i32 = make([]int32, n)
			for g, r := range all.firstRow {
				oc.i32[g] = ic.i32[r]
			}
		case Float64:
			oc.f64 = make([]float64, n)
			for g, r := range all.firstRow {
				oc.f64[g] = ic.f64[r]
			}
		case String:
			oc.str = make([]string, n)
			for g, r := range all.firstRow {
				oc.str[g] = ic.str[r]
			}
		}
	}
	for a, s := range aggs {
		oc := out.cols[len(keys)+a]
		switch s.Kind {
		case AggCount, AggCountDistinct:
			oc.i32 = all.cnt[a]
		case AggMinF64, AggMaxF64, AggSumF64:
			oc.f64 = all.val[a]
		}
	}
	out.nrows = n
	return out, nil
}
