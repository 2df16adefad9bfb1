package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// JoinOut selects one output column of a hash join: column Col of the
// build side (Side == BuildSide) or probe side (Side == ProbeSide),
// renamed to Name.
type JoinOut struct {
	Name string
	Side int
	Col  int
}

// Side constants for JoinOut.
const (
	BuildSide = 0
	ProbeSide = 1
)

// BuildCol selects column col of the build input.
func BuildCol(name string, col int) JoinOut { return JoinOut{Name: name, Side: BuildSide, Col: col} }

// ProbeCol selects column col of the probe input.
func ProbeCol(name string, col int) JoinOut { return JoinOut{Name: name, Side: ProbeSide, Col: col} }

// HashJoinNode is an equi-join on tuples of Int32 columns. The build input
// is hashed; the probe input streams. An optional residual predicate
// filters matched pairs (used for the extra equality checks of Queries 1-3
// and 2-3, e.g. T2.x = T3.x).
//
// Batch rule application (the paper's core idea) is expressed as hash
// joins between the MLN partition tables and the facts table, so this
// operator carries most of the grounding work.
type HashJoinNode struct {
	base
	build, probe         Node
	buildKeys, probeKeys []int
	residual             func(b *Table, br int, p *Table, pr int) bool
	residualDesc         string
	outs                 []JoinOut
	desc                 string
}

// NewHashJoin constructs a hash equi-join.
//
// buildKeys and probeKeys are parallel lists of Int32 column indices; a
// build row and probe row match when the key tuples are equal and the
// residual predicate (if any) accepts the pair. outs selects and renames
// the output columns. desc is a human-readable join condition for Explain.
func NewHashJoin(build, probe Node, buildKeys, probeKeys []int, outs []JoinOut, desc string) *HashJoinNode {
	if len(buildKeys) != len(probeKeys) {
		panic("engine: HashJoin key lists differ in length")
	}
	sch := JoinSchema(build.OutSchema(), probe.OutSchema(), outs)
	return &HashJoinNode{
		base:      base{schema: sch},
		build:     build,
		probe:     probe,
		buildKeys: buildKeys,
		probeKeys: probeKeys,
		outs:      outs,
		desc:      desc,
	}
}

// WithResidual attaches a residual predicate evaluated on each key-matched
// (build, probe) row pair; desc describes it for Explain.
func (n *HashJoinNode) WithResidual(desc string, pred func(b *Table, br int, p *Table, pr int) bool) *HashJoinNode {
	n.residual = pred
	n.residualDesc = desc
	return n
}

func (n *HashJoinNode) Children() []Node { return []Node{n.build, n.probe} }

func (n *HashJoinNode) Label() string {
	l := "Hash Join (" + n.desc + ")"
	if n.residualDesc != "" {
		l += " Residual (" + n.residualDesc + ")"
	}
	return l
}

func (n *HashJoinNode) OpKind() string { return "Hash Join" }

// Run executes the join.
func (n *HashJoinNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	bt, pt := ins[0], ins[1]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		return hashJoinTables(bt, pt, n.buildKeys, n.probeKeys, n.residual, n.outs, n.schema, n.exec, &n.stats)
	})
}

// JoinSchema derives the output schema a join with the given output spec
// produces.
func JoinSchema(buildSchema, probeSchema Schema, outs []JoinOut) Schema {
	sch := Schema{Cols: make([]ColDef, len(outs))}
	for i, o := range outs {
		src := buildSchema
		if o.Side == ProbeSide {
			src = probeSchema
		}
		sch.Cols[i] = ColDef{Name: o.Name, Type: src.Cols[o.Col].Type}
	}
	return sch
}

// HashJoinTablesOpts runs the hash-join kernel under the given execution
// options, recording worker/morsel counts into st when non-nil. The MPP
// layer calls it once per segment.
func HashJoinTablesOpts(bt, pt *Table, buildKeys, probeKeys []int,
	residual func(b *Table, br int, p *Table, pr int) bool,
	outs []JoinOut, o Opts, st *NodeStats) (*Table, error) {
	return hashJoinTables(bt, pt, buildKeys, probeKeys, residual, outs,
		JoinSchema(bt.Schema(), pt.Schema(), outs), o, st)
}

// joinPair is one matched row pair, indexed by JoinOut.Side.
type joinPair [2]int32

// probeScratch is one probe morsel's working memory: the rows that
// passed the probe filter (a filtered morsel), the probe rows' hashes,
// and the pairs matched so far. Most grounding
// probes match nothing, so the morsels recycle it and keep only an
// exact-size copy of the pairs.
type probeScratch struct {
	hs    []uint64
	sel   []int32
	pairs []joinPair
}

var probeScratches = sync.Pool{New: func() any { return new(probeScratch) }}

// probeFilter is a bitmap over the value span [min, min+span) of the
// build side's first key column. A probe row whose first key is not in
// it cannot match any build row, so the probe neither hashes it nor
// looks it up; a row that passes is only a candidate, and costs what
// every row costs without the filter.
type probeFilter struct {
	min  int32
	span uint32
	bits []uint64
}

// newProbeFilter returns the filter for probing pt's probeKeys against
// bt's buildKeys, or nil where the join probes every row.
//
// The cost argument: building the bitmap reads the build's first key
// column once and allocates span bits; filtering reads the probe's
// first key column once, instead of hashing every probe row's whole key
// and seeking it in the index. The filter applies only where both costs
// are bounded by the probe: the probe has more rows than the build, and
// the span is at most the probe's row count, so the bitmap takes at most
// one byte per eight probe rows. A small probe — an Extend's Mi ⋈ Δ, the
// local grounder's joins — keeps the plain path, where a bitmap would
// grow with the relation count rather than the batch. A cross join has
// no key to filter on.
func newProbeFilter(bt, pt *Table, buildKeys []int) *probeFilter {
	if len(buildKeys) == 0 || bt.NumRows() == 0 || pt.NumRows() <= bt.NumRows() {
		return nil
	}
	col := bt.cols[buildKeys[0]].i32
	lo, hi := col[0], col[0]
	for _, v := range col[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(uint32(hi)-uint32(lo)) + 1
	if span > uint64(pt.NumRows()) {
		return nil
	}
	f := &probeFilter{min: lo, span: uint32(span), bits: make([]uint64, (span+63)/64)}
	for _, v := range col {
		off := uint32(v) - uint32(lo)
		f.bits[off>>6] |= 1 << (off & 63)
	}
	return f
}

// selectRows appends to sel the rows lo+i whose first key col[i] is in
// the filter.
func (f *probeFilter) selectRows(sel []int32, col []int32, lo int) []int32 {
	for i, v := range col {
		if off := uint32(v) - uint32(f.min); off < f.span && f.bits[off>>6]&(1<<(off&63)) != 0 {
			sel = append(sel, int32(lo+i))
		}
	}
	return sel
}

// gatherJoin fills rows [off, off+len(pairs)) of out, a column at a time,
// from the matched pairs.
func gatherJoin(out *Table, off int, outs []JoinOut, bt, pt *Table, pairs []joinPair) {
	srcs := [2]*Table{BuildSide: bt, ProbeSide: pt}
	for i, o := range outs {
		oc, ic := out.cols[i], srcs[o.Side].cols[o.Col]
		switch oc.typ {
		case Int32:
			for k, p := range pairs {
				oc.i32[off+k] = ic.i32[p[o.Side]]
			}
		case Float64:
			for k, p := range pairs {
				oc.f64[off+k] = ic.f64[p[o.Side]]
			}
		case String:
			for k, p := range pairs {
				oc.str[off+k] = ic.str[p[o.Side]]
			}
		}
	}
}

// hashJoinTables is the join kernel, shared with the MPP layer (which runs
// it once per segment).
//
// One build, one probe: the build rows hash into a rowIndex whose chains
// list candidates in increasing build-row order, and each morsel of probe
// rows, visited in order, collects its matched pairs; the pairs of all
// morsels, in morsel-index order, are the output rows, gathered into
// columns allocated once at their final size. That order is the same
// whether the morsels run in a plain loop (serial) or on the worker pool.
// A probe filter (newProbeFilter) or an empty build only drops probe rows
// that cannot match, so neither changes the output or the morsels.
func hashJoinTables(bt, pt *Table, buildKeys, probeKeys []int,
	residual func(b *Table, br int, p *Table, pr int) bool,
	outs []JoinOut, schema Schema, o Opts, st *NodeStats) (*Table, error) {

	parallel := o.workers() > 1
	ix := newRowIndex(hashRows(bt, buildKeys, parallel, "join-build", o, st))
	f := newProbeFilter(bt, pt, buildKeys)
	chunks := make([][]joinPair, morselCount(pt.NumRows(), o.morsel()))
	forMorsels(parallel, "join-probe", pt.NumRows(), o, st, func(m, lo, hi int) {
		if bt.NumRows() == 0 {
			return // nothing can match: no probe row is hashed
		}
		sc := probeScratches.Get().(*probeScratch)
		defer probeScratches.Put(sc)
		// The rows to probe: those the filter selects, or all of the
		// morsel's, the i-th hashing to sc.hs[i].
		if f != nil {
			sc.sel = f.selectRows(sc.sel[:0], pt.cols[probeKeys[0]].i32[lo:hi], lo)
			sc.hs = slices.Grow(sc.hs[:0], len(sc.sel))[:len(sc.sel)]
			for i, pr := range sc.sel {
				sc.hs[i] = HashRow(pt, int(pr), probeKeys)
			}
		} else {
			sc.hs = slices.Grow(sc.hs[:0], hi-lo)[:hi-lo]
			hashRange(sc.hs, pt, probeKeys, lo)
		}
		pairs := sc.pairs[:0]
		for i, h := range sc.hs {
			pr := lo + i
			if f != nil {
				pr = int(sc.sel[i])
			}
			for c := ix.first(h); c >= 0; c = ix.after(h, c) {
				br := int(c)
				if !rowsEqualOn(bt, br, buildKeys, pt, pr, probeKeys) {
					continue
				}
				if residual != nil && !residual(bt, br, pt, pr) {
					continue
				}
				pairs = append(pairs, joinPair{BuildSide: c, ProbeSide: int32(pr)})
			}
		}
		sc.pairs = pairs
		chunks[m] = slices.Clone(pairs)
	})

	offs := make([]int, len(chunks)+1)
	for m, pairs := range chunks {
		offs[m+1] = offs[m] + len(pairs)
	}
	out := NewTable("join", schema)
	out.setLen(offs[len(chunks)])
	// Not accounted to st: EXPLAIN's morsels= counts build and probe only.
	forMorsels(parallel, "join-emit", pt.NumRows(), o, nil, func(m, _, _ int) {
		gatherJoin(out, offs[m], outs, bt, pt, chunks[m])
	})
	return out, nil
}

// NestedLoopJoin joins two tables by exhaustive pairing; it exists only as
// a correctness oracle for tests (hash join must agree with it).
func NestedLoopJoin(bt, pt *Table, buildKeys, probeKeys []int,
	residual func(b *Table, br int, p *Table, pr int) bool,
	outs []JoinOut) *Table {

	sch := JoinSchema(bt.Schema(), pt.Schema(), outs)
	out := NewTable("nljoin", sch)
	for br := 0; br < bt.NumRows(); br++ {
		for pr := 0; pr < pt.NumRows(); pr++ {
			if !rowsEqualOn(bt, br, buildKeys, pt, pr, probeKeys) {
				continue
			}
			if residual != nil && !residual(bt, br, pt, pr) {
				continue
			}
			for i, o := range outs {
				oc := out.cols[i]
				src, row := bt, br
				if o.Side == ProbeSide {
					src, row = pt, pr
				}
				ic := src.cols[o.Col]
				switch sch.Cols[i].Type {
				case Int32:
					oc.i32 = append(oc.i32, ic.i32[row])
				case Float64:
					oc.f64 = append(oc.f64, ic.f64[row])
				case String:
					oc.str = append(oc.str, ic.str[row])
				}
			}
			out.nrows++
		}
	}
	return out
}

// JoinDesc formats a join condition like "T.R = M.R2 AND T.C1 = M.C1" from
// column names, for Explain labels.
func JoinDesc(buildName string, buildSchema Schema, buildKeys []int, probeName string, probeSchema Schema, probeKeys []int) string {
	parts := make([]string, len(buildKeys))
	for i := range buildKeys {
		parts[i] = fmt.Sprintf("%s.%s = %s.%s",
			buildName, buildSchema.Cols[buildKeys[i]].Name,
			probeName, probeSchema.Cols[probeKeys[i]].Name)
	}
	return strings.Join(parts, " AND ")
}
