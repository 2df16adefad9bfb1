package sql

import (
	"fmt"
	"strings"
)

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Table string // alias or table name; empty if unqualified
	Col   string
}

// String renders the reference.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// aggKind mirrors engine.AggKind at the syntax level.
type aggKind int

const (
	aggNone aggKind = iota
	aggCount
	aggCountDistinct
	aggMin
	aggMax
	aggSum
)

// Expr is a select-list expression: a column, a literal, or an aggregate.
type Expr struct {
	// Col is set for plain references and for aggregate arguments.
	Col ColRef
	// Agg marks aggregate expressions.
	Agg aggKind
	// Literal forms (IsNull / IsNumber / IsString exclusive).
	IsNull   bool
	IsNumber bool
	Number   float64
	IsString bool
	Str      string
}

func (e Expr) isLiteral() bool { return e.IsNull || e.IsNumber || e.IsString }

// String renders the expression.
func (e Expr) String() string {
	switch {
	case e.Agg == aggCount:
		return "COUNT(*)"
	case e.Agg == aggCountDistinct:
		return fmt.Sprintf("COUNT(DISTINCT %s)", e.Col)
	case e.Agg == aggMin:
		return fmt.Sprintf("MIN(%s)", e.Col)
	case e.Agg == aggMax:
		return fmt.Sprintf("MAX(%s)", e.Col)
	case e.Agg == aggSum:
		return fmt.Sprintf("SUM(%s)", e.Col)
	case e.IsNull:
		return "NULL"
	case e.IsNumber:
		return fmt.Sprintf("%g", e.Number)
	case e.IsString:
		return "'" + e.Str + "'"
	default:
		return e.Col.String()
	}
}

// SelectItem is one output column.
type SelectItem struct {
	Expr  Expr
	Alias string // empty: derive from the expression
}

// OutName returns the output column name.
func (s SelectItem) OutName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Expr.Agg == aggNone && !s.Expr.isLiteral() {
		return s.Expr.Col.Col
	}
	return s.Expr.String()
}

// CmpOp is a comparison operator.
type CmpOp string

// Condition is one conjunct: left op right, or "left IS [NOT] NULL".
type Condition struct {
	Left   Expr
	Op     CmpOp
	Right  Expr
	IsNull bool // left IS NULL
	NotNul bool // left IS NOT NULL
}

// String renders the condition.
func (c Condition) String() string {
	if c.IsNull {
		return c.Left.String() + " IS NULL"
	}
	if c.NotNul {
		return c.Left.String() + " IS NOT NULL"
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// TableRef is FROM/JOIN source with optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the query refers to this table by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN ... ON ... step.
type JoinClause struct {
	Table TableRef
	On    []Condition
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    []Condition
	GroupBy  []ColRef
	Having   []Condition
	OrderBy  []OrderItem
	// Limit is -1 when absent.
	Limit int
}

// String round-trips the statement to SQL text (normalized). Printing a
// parsed statement and re-parsing it yields the same normalized text —
// the fuzz targets in fuzz_test.go enforce this as a fixed point.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM " + s.From.Name)
	if s.From.Alias != "" {
		b.WriteString(" " + s.From.Alias)
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + j.Table.Name)
		if j.Table.Alias != "" {
			b.WriteString(" " + j.Table.Alias)
		}
		b.WriteString(" ON " + condList(j.On))
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE " + condList(s.Where))
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if len(s.Having) > 0 {
		b.WriteString(" HAVING " + condList(s.Having))
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Col.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

func condList(cs []Condition) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}
