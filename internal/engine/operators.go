package engine

import (
	"fmt"
	"strconv"
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
func (n *ScanNode) OpKind() string   { return "Seq Scan" }

// Run returns the scanned table.
func (n *ScanNode) Run() (*Table, error) {
	return timeRun(&n.stats, n.exec, func() (*Table, error) { return n.t, nil })
}

// ---------------------------------------------------------------------------
// Filter

// FilterNode keeps the rows for which Pred returns true, or — built by
// NewFilterInt32 — the rows whose column compares true to a literal.
type FilterNode struct {
	base
	child Node
	pred  func(t *Table, row int) bool
	cmp   *int32Cmp // set instead of pred by NewFilterInt32
	desc  string
}

// NewFilter returns a filter over child; desc is used in Explain output.
func NewFilter(child Node, desc string, pred func(t *Table, row int) bool) *FilterNode {
	return &FilterNode{base: base{schema: child.OutSchema()}, child: child, pred: pred, desc: desc}
}

// CmpOp is a comparison operator of the typed filter.
type CmpOp uint8

// Comparison operators; each is the set of orderings (column below,
// equal to, above the literal) it accepts.
const (
	CmpLt CmpOp = 1 << iota
	CmpEq
	CmpGt
	CmpLe = CmpLt | CmpEq
	CmpGe = CmpGt | CmpEq
	CmpNe = CmpLt | CmpGt
)

// int32Cmp is the predicate `column <op> literal` over an Int32 column.
type int32Cmp struct {
	col int
	op  CmpOp
	lit int32
}

// NewFilterInt32 returns the filter `col <op> lit` over an Int32 column
// of child: the same rows, row order, morsels and label as NewFilter
// with the equivalent predicate, evaluated as one typed loop per morsel
// instead of a closure call per row. A NULL cell compares true to
// nothing; lit itself must not be NullInt32.
func NewFilterInt32(child Node, desc string, col int, op CmpOp, lit int32) *FilterNode {
	if child.OutSchema().Cols[col].Type != Int32 || lit == NullInt32 {
		panic(fmt.Sprintf("engine: NewFilterInt32 (%s): column %d must be INT and the literal non-NULL", desc, col))
	}
	return &FilterNode{base: base{schema: child.OutSchema()}, child: child, cmp: &int32Cmp{col: col, op: op, lit: lit}, desc: desc}
}

func (n *FilterNode) Children() []Node { return []Node{n.child} }
func (n *FilterNode) Label() string    { return "Filter (" + n.desc + ")" }
func (n *FilterNode) OpKind() string   { return "Filter" }

// Run materializes the filtered rows.
func (n *FilterNode) Run() (*Table, error) {
	ins, err := runChildren(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRun(&n.stats, n.exec, func() (*Table, error) {
		if n.cmp != nil {
			return filterRows(in, n.exec, &n.stats, n.cmp.keep(in)), nil
		}
		return FilterTableOpts(in, n.pred, n.exec, &n.stats), nil
	})
}

// FilterTableOpts runs the filter kernel directly on a materialized
// table under the given execution options, outside any plan.
func FilterTableOpts(in *Table, pred func(t *Table, row int) bool, o Opts, st *NodeStats) *Table {
	return filterRows(in, o, st, func(lo, hi int, rows []int32) []int32 {
		for r := lo; r < hi; r++ {
			if pred(in, r) {
				rows = append(rows, int32(r))
			}
		}
		return rows
	})
}

// filterRows is the filter kernel: each morsel appends the rows of
// [lo, hi) it keeps to a keep-list, and the lists append in morsel
// order, reproducing the serial row order.
func filterRows(in *Table, o Opts, st *NodeStats, keep func(lo, hi int, rows []int32) []int32) *Table {
	out := NewTable("filter", in.Schema())
	nr := in.NumRows()
	kept := make([][]int32, morselCount(nr, o.morsel()))
	runMorsels("filter", nr, o, st, func(m, lo, hi int) {
		kept[m] = keep(lo, hi, nil)
	})
	for _, rows := range kept {
		out.AppendRowsFrom(in, rows)
	}
	return out
}

// keep returns the per-morsel loop of the comparison over in's column.
// Equality, the point select, gets its own loop: one compare per row,
// and a NULL cell can never equal a non-NULL literal.
func (c *int32Cmp) keep(in *Table) func(lo, hi int, rows []int32) []int32 {
	col, lit := in.Int32Col(c.col), c.lit
	if c.op == CmpEq {
		return func(lo, hi int, rows []int32) []int32 {
			for i, v := range col[lo:hi] {
				if v == lit {
					rows = append(rows, int32(lo+i))
				}
			}
			return rows
		}
	}
	lt, eq, gt := c.op&CmpLt != 0, c.op&CmpEq != 0, c.op&CmpGt != 0
	return func(lo, hi int, rows []int32) []int32 {
		for i, v := range col[lo:hi] {
			if v == NullInt32 {
				continue
			}
			if (v < lit && lt) || (v == lit && eq) || (v > lit && gt) {
				rows = append(rows, int32(lo+i))
			}
		}
		return rows
	}
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

func (n *ProjectNode) OpKind() string { return "Project" }

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

func (n *DistinctNode) OpKind() string { return "HashAggregate" }

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
func (n *SortNode) OpKind() string   { return "Sort" }

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

// OpKind keeps the limit: the whole label has always been the kind.
func (n *LimitNode) OpKind() string { return "Limit " + strconv.Itoa(n.n) }

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
