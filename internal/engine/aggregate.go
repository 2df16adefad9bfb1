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

// groupState accumulates one group's aggregates.
type groupState struct {
	firstRow int
	count    int32
	distinct []map[int32]struct{} // one per AggCountDistinct
	minv     []float64
	maxv     []float64
	sumv     []float64
}

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

// aggSlots counts per-kind aggregate slots so group states size their
// slices once.
type aggSlots struct{ nDistinct, nMin, nMax, nSum int }

func countAggSlots(aggs []AggSpec) aggSlots {
	var s aggSlots
	for _, a := range aggs {
		switch a.Kind {
		case AggCountDistinct:
			s.nDistinct++
		case AggMinF64:
			s.nMin++
		case AggMaxF64:
			s.nMax++
		case AggSumF64:
			s.nSum++
		}
	}
	return s
}

func newGroupState(r int, s aggSlots) *groupState {
	g := &groupState{firstRow: r}
	if s.nDistinct > 0 {
		g.distinct = make([]map[int32]struct{}, s.nDistinct)
		for i := range g.distinct {
			g.distinct[i] = make(map[int32]struct{})
		}
	}
	if s.nMin > 0 {
		g.minv = make([]float64, s.nMin)
		for i := range g.minv {
			g.minv[i] = NullFloat64()
		}
	}
	if s.nMax > 0 {
		g.maxv = make([]float64, s.nMax)
		for i := range g.maxv {
			g.maxv[i] = NullFloat64()
		}
	}
	if s.nSum > 0 {
		g.sumv = make([]float64, s.nSum)
	}
	return g
}

// accumulateRow folds input row r into group g.
func accumulateRow(g *groupState, in *Table, aggs []AggSpec, r int) {
	g.count++
	di, mi, xi, si := 0, 0, 0, 0
	for _, a := range aggs {
		switch a.Kind {
		case AggCountDistinct:
			g.distinct[di][in.cols[a.Col].i32[r]] = struct{}{}
			di++
		case AggMinF64:
			v := in.cols[a.Col].f64[r]
			if IsNullFloat64(g.minv[mi]) || v < g.minv[mi] {
				g.minv[mi] = v
			}
			mi++
		case AggMaxF64:
			v := in.cols[a.Col].f64[r]
			if IsNullFloat64(g.maxv[xi]) || v > g.maxv[xi] {
				g.maxv[xi] = v
			}
			xi++
		case AggSumF64:
			g.sumv[si] += in.cols[a.Col].f64[r]
			si++
		}
	}
}

// mergeGroup folds one morsel's partial state for a group into the
// global state. Merges happen in morsel-index order, which is what makes
// float sums identical for every worker count.
func mergeGroup(dst, src *groupState) {
	dst.count += src.count
	for i, set := range src.distinct {
		for v := range set {
			dst.distinct[i][v] = struct{}{}
		}
	}
	for i, v := range src.minv {
		if IsNullFloat64(v) {
			continue
		}
		if IsNullFloat64(dst.minv[i]) || v < dst.minv[i] {
			dst.minv[i] = v
		}
	}
	for i, v := range src.maxv {
		if IsNullFloat64(v) {
			continue
		}
		if IsNullFloat64(dst.maxv[i]) || v > dst.maxv[i] {
			dst.maxv[i] = v
		}
	}
	for i, v := range src.sumv {
		dst.sumv[i] += v
	}
}

// aggPartial is a partial aggregation — one morsel's, or the merge of
// them all: index row i is group order[i], in first-occurrence order.
type aggPartial struct {
	ix    *rowIndex
	order []*groupState
}

// find returns the group whose key is that of input row r (hash h), or nil.
func (p *aggPartial) find(h uint64, in *Table, keys []int, r int) *groupState {
	for c := p.ix.first(h); c >= 0; c = p.ix.after(h, c) {
		if g := p.order[c]; rowsEqualOn(in, g.firstRow, keys, in, r, keys) {
			return g
		}
	}
	return nil
}

func (p *aggPartial) add(h uint64, g *groupState) {
	p.ix.add(h)
	p.order = append(p.order, g)
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
	slots := countAggSlots(aggs)

	parts := make([]aggPartial, morselCount(in.NumRows(), o.morsel()))
	runMorsels("groupby", in.NumRows(), o, st, func(m, lo, hi int) {
		p := aggPartial{ix: newRowIndex(nil)}
		hs := make([]uint64, hi-lo)
		hashRange(hs, in, keys, lo)
		for i, h := range hs {
			r := lo + i
			g := p.find(h, in, keys, r)
			if g == nil {
				g = newGroupState(r, slots)
				p.add(h, g)
			}
			accumulateRow(g, in, aggs, r)
		}
		parts[m] = p
	})

	var all aggPartial
	if len(parts) == 1 {
		all = parts[0]
	} else {
		all.ix = newRowIndex(nil)
		for _, p := range parts {
			for i, src := range p.order {
				h := p.ix.hash[i]
				if g := all.find(h, in, keys, src.firstRow); g != nil {
					mergeGroup(g, src)
				} else {
					all.add(h, src)
				}
			}
		}
	}

	out := NewTable("groupby", schema)
	out.Reserve(len(all.order))
	for _, g := range all.order {
		col := 0
		for _, k := range keys {
			oc := out.cols[col]
			ic := in.cols[k]
			switch ic.typ {
			case Int32:
				oc.i32 = append(oc.i32, ic.i32[g.firstRow])
			case Float64:
				oc.f64 = append(oc.f64, ic.f64[g.firstRow])
			case String:
				oc.str = append(oc.str, ic.str[g.firstRow])
			}
			col++
		}
		di, mi, xi, si := 0, 0, 0, 0
		for _, a := range aggs {
			oc := out.cols[col]
			switch a.Kind {
			case AggCount:
				oc.i32 = append(oc.i32, g.count)
			case AggCountDistinct:
				oc.i32 = append(oc.i32, int32(len(g.distinct[di])))
				di++
			case AggMinF64:
				oc.f64 = append(oc.f64, g.minv[mi])
				mi++
			case AggMaxF64:
				oc.f64 = append(oc.f64, g.maxv[xi])
				xi++
			case AggSumF64:
				oc.f64 = append(oc.f64, g.sumv[si])
				si++
			}
			col++
		}
		out.nrows++
	}
	return out, nil
}
