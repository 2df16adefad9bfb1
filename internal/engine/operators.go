package engine

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Seq Scan

// ScanNode produces the rows of a base table. The output aliases the
// table's storage (zero copy); downstream operators never mutate inputs.
type ScanNode struct {
	base
	t *Table
}

// NewScan returns a sequential scan over t.
func NewScan(t *Table) *ScanNode {
	return &ScanNode{base: base{schema: t.Schema()}, t: t}
}

func (n *ScanNode) Children() []Node { return nil }
func (n *ScanNode) Label() string    { return "Seq Scan on " + n.t.Name() }

// Run returns the scanned table.
func (n *ScanNode) Run() (*Table, error) {
	return timeRun(&n.stats, n.exec, func() (*Table, error) { return n.t, nil })
}

// ---------------------------------------------------------------------------
// Filter

// FilterNode keeps the rows for which Pred returns true.
type FilterNode struct {
	base
	child Node
	pred  func(t *Table, row int) bool
	desc  string
}

// NewFilter returns a filter over child; desc is used in Explain output.
func NewFilter(child Node, desc string, pred func(t *Table, row int) bool) *FilterNode {
	return &FilterNode{base: base{schema: child.OutSchema()}, child: child, pred: pred, desc: desc}
}

func (n *FilterNode) Children() []Node { return []Node{n.child} }
func (n *FilterNode) Label() string    { return "Filter (" + n.desc + ")" }

// Run materializes the filtered rows.
func (n *FilterNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		return FilterTableOpts(in, n.pred, n.exec, &n.stats), nil
	})
}

// FilterTableOpts runs the filter kernel directly on a materialized
// table under the given execution options; the MPP layer calls it once
// per segment. Each morsel evaluates the predicate into a keep-list, and
// the lists append in morsel order, reproducing the serial row order.
func FilterTableOpts(in *Table, pred func(t *Table, row int) bool, o Opts, st *NodeStats) *Table {
	out := NewTable("filter", in.Schema())
	nr := in.NumRows()
	keep := make([][]int32, morselCount(nr, o.morsel()))
	runMorsels("filter", nr, o, st, func(m, lo, hi int) {
		var rows []int32
		for r := lo; r < hi; r++ {
			if pred(in, r) {
				rows = append(rows, int32(r))
			}
		}
		keep[m] = rows
	})
	for _, rows := range keep {
		out.AppendRowsFrom(in, rows)
	}
	return out
}

// ---------------------------------------------------------------------------
// Project

// OutExpr describes one output column of a projection: either a source
// column, or a constant (including NULL).
type OutExpr struct {
	Name string
	Type ColType
	// Col is the source column index when >= 0.
	Col int
	// Constant payloads, used when Col < 0.
	I32   int32
	F64   float64
	Str   string
	IsNul bool
}

// ColExpr projects source column col under a new name (type inferred at
// plan construction).
func ColExpr(name string, col int) OutExpr { return OutExpr{Name: name, Col: col} }

// NullF64Expr emits a NULL float column (inferred fact weights).
func NullF64Expr(name string) OutExpr {
	return OutExpr{Name: name, Type: Float64, Col: -1, IsNul: true}
}

// ConstF64Expr emits a constant float column.
func ConstF64Expr(name string, v float64) OutExpr {
	return OutExpr{Name: name, Type: Float64, Col: -1, F64: v}
}

// ConstI32Expr emits a constant int column.
func ConstI32Expr(name string, v int32) OutExpr {
	return OutExpr{Name: name, Type: Int32, Col: -1, I32: v}
}

// ProjectNode computes a new row layout from its child.
type ProjectNode struct {
	base
	child Node
	exprs []OutExpr
}

// NewProject returns a projection of child through exprs.
func NewProject(child Node, exprs ...OutExpr) *ProjectNode {
	cs := child.OutSchema()
	// Copy before resolving column types below: callers (e.g. the MPP
	// project, once per segment in parallel) may share one exprs slice
	// across concurrent NewProject calls.
	exprs = append([]OutExpr(nil), exprs...)
	sch := Schema{Cols: make([]ColDef, len(exprs))}
	for i, e := range exprs {
		typ := e.Type
		if e.Col >= 0 {
			typ = cs.Cols[e.Col].Type
			exprs[i].Type = typ
		}
		sch.Cols[i] = ColDef{Name: e.Name, Type: typ}
	}
	return &ProjectNode{base: base{schema: sch}, child: child, exprs: exprs}
}

func (n *ProjectNode) Children() []Node { return []Node{n.child} }

func (n *ProjectNode) Label() string {
	names := make([]string, len(n.exprs))
	for i, e := range n.exprs {
		names[i] = e.Name
	}
	return "Project (" + strings.Join(names, ", ") + ")"
}

// Run materializes the projection.
func (n *ProjectNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		return projectTable(in, n.exprs, n.schema, n.exec, &n.stats), nil
	})
}

// projectTable is the projection kernel: output columns are allocated at
// full length up front so each morsel fills a disjoint row range
// concurrently — the merge is implicit and the row order trivially
// matches serial execution.
func projectTable(in *Table, exprs []OutExpr, schema Schema, o Opts, st *NodeStats) *Table {
	out := NewTable("project", schema)
	nr := in.NumRows()
	out.setLen(nr)
	runMorsels("project", nr, o, st, func(m, lo, hi int) {
		for c, e := range exprs {
			oc := out.cols[c]
			if e.Col >= 0 {
				ic := in.cols[e.Col]
				switch e.Type {
				case Int32:
					copy(oc.i32[lo:hi], ic.i32[lo:hi])
				case Float64:
					copy(oc.f64[lo:hi], ic.f64[lo:hi])
				case String:
					copy(oc.str[lo:hi], ic.str[lo:hi])
				}
				continue
			}
			switch e.Type {
			case Int32:
				v := e.I32
				if e.IsNul {
					v = NullInt32
				}
				for i := lo; i < hi; i++ {
					oc.i32[i] = v
				}
			case Float64:
				v := e.F64
				if e.IsNul {
					v = NullFloat64()
				}
				for i := lo; i < hi; i++ {
					oc.f64[i] = v
				}
			case String:
				for i := lo; i < hi; i++ {
					oc.str[i] = e.Str
				}
			}
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// Distinct

// DistinctNode removes duplicate rows, judging duplicates by the given
// Int32 key columns. The first occurrence of each key survives.
type DistinctNode struct {
	base
	child Node
	keys  []int
}

// NewDistinct returns a duplicate-eliminating operator over child.
func NewDistinct(child Node, keyCols []int) *DistinctNode {
	return &DistinctNode{base: base{schema: child.OutSchema()}, child: child, keys: keyCols}
}

func (n *DistinctNode) Children() []Node { return []Node{n.child} }
func (n *DistinctNode) Label() string {
	return fmt.Sprintf("HashAggregate (distinct on %d cols)", len(n.keys))
}

// Run materializes the distinct rows.
func (n *DistinctNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		return distinctTable(in, n.keys, n.schema, n.exec, &n.stats), nil
	})
}

// distinctTable is the duplicate-elimination kernel: rows hash (in
// morsels when parallel), then one pass in row order keeps each key's
// first occurrence, so the output is identical for every worker count.
func distinctTable(in *Table, keys []int, schema Schema, o Opts, st *NodeStats) *Table {
	parallel := o.workers() > 1 && morselCount(in.NumRows(), o.morsel()) > 1
	hashes := hashRows(in, keys, parallel, "distinct", o, st)
	ix := newRowIndex(nil)
	var surv []int32 // index row i is input row surv[i]
rows:
	for r, h := range hashes {
		for c := ix.first(h); c >= 0; c = ix.after(h, c) {
			if rowsEqualOn(in, int(surv[c]), keys, in, r, keys) {
				continue rows
			}
		}
		ix.add(h)
		surv = append(surv, int32(r))
	}
	out := NewTable("distinct", schema)
	out.Reserve(len(surv))
	out.AppendRowsFrom(in, surv)
	return out
}

// ---------------------------------------------------------------------------
// Union All

// UnionAllNode concatenates the outputs of its children (bag union, the
// ∪B of Algorithm 1 lines 9–10).
type UnionAllNode struct {
	base
	children []Node
}

// NewUnionAll returns the bag union of the children, whose schemas must be
// type-compatible.
func NewUnionAll(children ...Node) *UnionAllNode {
	if len(children) == 0 {
		panic("engine: UnionAll needs at least one input")
	}
	return &UnionAllNode{base: base{schema: children[0].OutSchema()}, children: children}
}

func (n *UnionAllNode) Children() []Node { return n.children }
func (n *UnionAllNode) Label() string    { return fmt.Sprintf("Append (%d inputs)", len(n.children)) }

// Run materializes the concatenation.
func (n *UnionAllNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		out := NewTable("union_all", n.schema)
		for _, in := range ins {
			out.AppendTable(in)
		}
		return out, nil
	})
}

// ---------------------------------------------------------------------------
// Sort and Limit

// SortKey orders by one column; Desc flips the direction. Int32 and
// Float64 columns sort numerically (NULLs last), String columns
// lexicographically.
type SortKey struct {
	Col  int
	Desc bool
}

// SortNode orders its input by a list of keys (stable).
type SortNode struct {
	base
	child Node
	keys  []SortKey
}

// NewSort returns a sorting operator over child.
func NewSort(child Node, keys ...SortKey) *SortNode {
	return &SortNode{base: base{schema: child.OutSchema()}, child: child, keys: keys}
}

func (n *SortNode) Children() []Node { return []Node{n.child} }
func (n *SortNode) Label() string    { return fmt.Sprintf("Sort (%d keys)", len(n.keys)) }

// Run materializes the sorted rows.
func (n *SortNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		out := in.Clone()
		out.SortBy(n.keys)
		return out, nil
	})
}

// LimitNode keeps the first N input rows.
type LimitNode struct {
	base
	child Node
	n     int
}

// NewLimit returns a row-count limiter over child.
func NewLimit(child Node, limit int) *LimitNode {
	return &LimitNode{base: base{schema: child.OutSchema()}, child: child, n: limit}
}

func (n *LimitNode) Children() []Node { return []Node{n.child} }
func (n *LimitNode) Label() string    { return fmt.Sprintf("Limit %d", n.n) }

// Run materializes the first N rows.
func (n *LimitNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		if in.NumRows() <= n.n {
			return in, nil
		}
		keep := make([]int32, n.n)
		for i := range keep {
			keep[i] = int32(i)
		}
		out := NewTable("limit", n.schema)
		out.AppendRowsFrom(in, keep)
		return out, nil
	})
}

// ---------------------------------------------------------------------------
// Materialize helper

// Run executes a plan and names its result.
func Run(root Node, name string) (*Table, error) {
	t, err := root.Run()
	if err != nil {
		return nil, err
	}
	out := t
	if out.Name() != name {
		out = t.Clone()
		out.SetName(name)
	}
	return out, nil
}
