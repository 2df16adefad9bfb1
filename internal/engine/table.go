package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// column is the physical storage for one column. Exactly one of the three
// slices is non-nil, matching the declared ColType.
type column struct {
	typ ColType
	i32 []int32
	f64 []float64
	str []string
}

func newColumn(t ColType) *column {
	return &column{typ: t}
}

func (c *column) grow(capacity int) {
	switch c.typ {
	case Int32:
		if cap(c.i32) < capacity {
			n := make([]int32, len(c.i32), capacity)
			copy(n, c.i32)
			c.i32 = n
		}
	case Float64:
		if cap(c.f64) < capacity {
			n := make([]float64, len(c.f64), capacity)
			copy(n, c.f64)
			c.f64 = n
		}
	case String:
		if cap(c.str) < capacity {
			n := make([]string, len(c.str), capacity)
			copy(n, c.str)
			c.str = n
		}
	}
}

// Table is a named, schema-typed, column-oriented relation.
//
// Tables are not safe for concurrent mutation; the MPP layer gives each
// segment its own Table and parallelizes across segments, never within one.
type Table struct {
	name   string
	schema Schema
	cols   []*column
	nrows  int
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{name: name, schema: schema}
	t.cols = make([]*column, schema.NumCols())
	for i, c := range schema.Cols {
		t.cols[i] = newColumn(c.Type)
	}
	return t
}

// TableFromColumns builds a table directly from column slices ([]int32,
// []float64, or []string matching the schema). The table takes ownership
// of the slices. This is the fast bulkload path — no per-row boxing.
func TableFromColumns(name string, schema Schema, cols ...any) *Table {
	if len(cols) != schema.NumCols() {
		panic(fmt.Sprintf("engine: TableFromColumns %s: %d columns for schema %s", name, len(cols), schema))
	}
	t := &Table{name: name, schema: schema}
	t.cols = make([]*column, schema.NumCols())
	n := -1
	check := func(l int) {
		if n == -1 {
			n = l
		} else if n != l {
			panic(fmt.Sprintf("engine: TableFromColumns %s: ragged columns (%d vs %d)", name, n, l))
		}
	}
	for i, cd := range schema.Cols {
		col := newColumn(cd.Type)
		switch cd.Type {
		case Int32:
			v, ok := cols[i].([]int32)
			if !ok {
				panic(fmt.Sprintf("engine: TableFromColumns %s col %d: got %T, want []int32", name, i, cols[i]))
			}
			check(len(v))
			col.i32 = v
		case Float64:
			v, ok := cols[i].([]float64)
			if !ok {
				panic(fmt.Sprintf("engine: TableFromColumns %s col %d: got %T, want []float64", name, i, cols[i]))
			}
			check(len(v))
			col.f64 = v
		case String:
			v, ok := cols[i].([]string)
			if !ok {
				panic(fmt.Sprintf("engine: TableFromColumns %s col %d: got %T, want []string", name, i, cols[i]))
			}
			check(len(v))
			col.str = v
		}
		t.cols[i] = col
	}
	if n < 0 {
		n = 0
	}
	t.nrows = n
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetName renames the table (used when materializing views and results).
func (t *Table) SetName(n string) { t.name = n }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// Reserve pre-allocates capacity for n rows.
func (t *Table) Reserve(n int) {
	for _, c := range t.cols {
		c.grow(n)
	}
}

// setLen gives every column of an empty table n zero rows, for kernels
// that fill disjoint row ranges concurrently.
func (t *Table) setLen(n int) {
	for _, c := range t.cols {
		switch c.typ {
		case Int32:
			c.i32 = make([]int32, n)
		case Float64:
			c.f64 = make([]float64, n)
		case String:
			c.str = make([]string, n)
		}
	}
	t.nrows = n
}

// Int32Col returns the backing slice of an Int32 column. The caller must
// not resize it; reading and element assignment are fine.
func (t *Table) Int32Col(i int) []int32 {
	c := t.cols[i]
	if c.typ != Int32 {
		panic(fmt.Sprintf("engine: column %d of %s is %s, not int", i, t.name, c.typ))
	}
	return c.i32
}

// Float64Col returns the backing slice of a Float64 column.
func (t *Table) Float64Col(i int) []float64 {
	c := t.cols[i]
	if c.typ != Float64 {
		panic(fmt.Sprintf("engine: column %d of %s is %s, not float", i, t.name, c.typ))
	}
	return c.f64
}

// StringCol returns the backing slice of a String column.
func (t *Table) StringCol(i int) []string {
	c := t.cols[i]
	if c.typ != String {
		panic(fmt.Sprintf("engine: column %d of %s is %s, not text", i, t.name, c.typ))
	}
	return c.str
}

// AppendRow appends one row. vals must match the schema: int32 for Int32
// columns, float64 for Float64 columns, string for String columns. Plain
// int is accepted for Int32 columns as a convenience for literals.
func (t *Table) AppendRow(vals ...any) {
	if len(vals) != t.schema.NumCols() {
		panic(fmt.Sprintf("engine: AppendRow to %s: got %d values, want %d", t.name, len(vals), t.schema.NumCols()))
	}
	for i, v := range vals {
		c := t.cols[i]
		switch c.typ {
		case Int32:
			switch x := v.(type) {
			case int32:
				c.i32 = append(c.i32, x)
			case int:
				c.i32 = append(c.i32, int32(x))
			default:
				panic(fmt.Sprintf("engine: AppendRow to %s col %d: got %T, want int32", t.name, i, v))
			}
		case Float64:
			x, ok := v.(float64)
			if !ok {
				panic(fmt.Sprintf("engine: AppendRow to %s col %d: got %T, want float64", t.name, i, v))
			}
			c.f64 = append(c.f64, x)
		case String:
			x, ok := v.(string)
			if !ok {
				panic(fmt.Sprintf("engine: AppendRow to %s col %d: got %T, want string", t.name, i, v))
			}
			c.str = append(c.str, x)
		}
	}
	t.nrows++
}

// AppendRowsFrom appends the rows of o whose indices appear in rows, in
// that order. Column types must match. This is the bulk row-movement
// primitive the MPP motions use.
func (t *Table) AppendRowsFrom(o *Table, rows []int32) {
	if len(t.cols) != len(o.cols) {
		panic(fmt.Sprintf("engine: AppendRowsFrom %s += %s: column count mismatch", t.name, o.name))
	}
	for i, c := range t.cols {
		oc := o.cols[i]
		switch c.typ {
		case Int32:
			for _, r := range rows {
				c.i32 = append(c.i32, oc.i32[r])
			}
		case Float64:
			for _, r := range rows {
				c.f64 = append(c.f64, oc.f64[r])
			}
		case String:
			for _, r := range rows {
				c.str = append(c.str, oc.str[r])
			}
		}
	}
	t.nrows += len(rows)
}

// AppendTable appends all rows of o (same column types required).
func (t *Table) AppendTable(o *Table) {
	if len(t.cols) != len(o.cols) {
		panic(fmt.Sprintf("engine: AppendTable %s += %s: column count mismatch", t.name, o.name))
	}
	for i, c := range t.cols {
		oc := o.cols[i]
		if c.typ != oc.typ {
			panic(fmt.Sprintf("engine: AppendTable %s += %s: column %d type mismatch", t.name, o.name, i))
		}
		switch c.typ {
		case Int32:
			c.i32 = append(c.i32, oc.i32...)
		case Float64:
			c.f64 = append(c.f64, oc.f64...)
		case String:
			c.str = append(c.str, oc.str...)
		}
	}
	t.nrows += o.nrows
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	n := NewTable(t.name, t.schema)
	n.AppendTable(t)
	return n
}

// Truncate removes all rows but keeps the schema and allocated capacity.
func (t *Table) Truncate() {
	for _, c := range t.cols {
		c.i32 = c.i32[:0]
		c.f64 = c.f64[:0]
		c.str = c.str[:0]
	}
	t.nrows = 0
}

// KeepRows replaces the table contents with the rows whose indices appear
// in keep, in that order. keep may be any permutation or subset, so this
// doubles as the row-reorder primitive behind SortByInt32Cols.
func (t *Table) KeepRows(keep []int32) {
	for _, c := range t.cols {
		switch c.typ {
		case Int32:
			dst := make([]int32, len(keep))
			for i, r := range keep {
				dst[i] = c.i32[r]
			}
			c.i32 = dst
		case Float64:
			dst := make([]float64, len(keep))
			for i, r := range keep {
				dst[i] = c.f64[r]
			}
			c.f64 = dst
		case String:
			dst := make([]string, len(keep))
			for i, r := range keep {
				dst[i] = c.str[r]
			}
			c.str = dst
		}
	}
	t.nrows = len(keep)
}

// DeleteWhere removes rows for which pred returns true and reports how
// many were deleted. This is the engine primitive behind Query 3
// (applyConstraints) in the paper.
//
// The survivors close up in place, in order, from the first deleted row
// on: rows before it are not touched, nothing is allocated when nothing
// is deleted, and the columns keep their capacity — a deletion costs what
// it moves, not a copy of the table.
func (t *Table) DeleteWhere(pred func(row int) bool) int {
	first := -1
	var keep []int32 // survivors after row first
	for r := 0; r < t.nrows; r++ {
		switch {
		case pred(r):
			if first < 0 {
				first = r
			}
		case first >= 0:
			keep = append(keep, int32(r))
		}
	}
	if first < 0 {
		return 0
	}
	n := first + len(keep)
	for _, c := range t.cols {
		switch c.typ {
		case Int32:
			for i, r := range keep {
				c.i32[first+i] = c.i32[r]
			}
			c.i32 = c.i32[:n]
		case Float64:
			for i, r := range keep {
				c.f64[first+i] = c.f64[r]
			}
			c.f64 = c.f64[:n]
		case String:
			for i, r := range keep {
				c.str[first+i] = c.str[r]
			}
			clear(c.str[n:]) // let the dropped strings go
			c.str = c.str[:n]
		}
	}
	deleted := t.nrows - n
	t.nrows = n
	return deleted
}

// SortBy orders the rows by the given keys (stable). NULLs sort last
// within ascending order.
func (t *Table) SortBy(keys []SortKey) {
	idx := make([]int32, t.nrows)
	for i := range idx {
		idx[i] = int32(i)
	}
	// cmp returns -1/0/+1 for rows a, b under key k (ascending sense).
	cmp := func(k SortKey, a, b int32) int {
		c := t.cols[k.Col]
		switch c.typ {
		case Int32:
			va, vb := c.i32[a], c.i32[b]
			na, nb := va == NullInt32, vb == NullInt32
			switch {
			case na && nb:
				return 0
			case na:
				return 1
			case nb:
				return -1
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return 0
		case Float64:
			va, vb := c.f64[a], c.f64[b]
			na, nb := IsNullFloat64(va), IsNullFloat64(vb)
			switch {
			case na && nb:
				return 0
			case na:
				return 1
			case nb:
				return -1
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return 0
		default:
			va, vb := c.str[a], c.str[b]
			switch {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return 0
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range keys {
			c := cmp(k, idx[a], idx[b])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	t.KeepRows(idx)
}

// SortByInt32Cols sorts the table rows lexicographically by the given
// Int32 columns. Used by tests and pretty printing for deterministic
// output; operators never rely on ordering.
func (t *Table) SortByInt32Cols(cols ...int) {
	idx := make([]int32, t.nrows)
	for i := range idx {
		idx[i] = int32(i)
	}
	keyCols := make([][]int32, len(cols))
	for i, c := range cols {
		keyCols[i] = t.Int32Col(c)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for _, kc := range keyCols {
			if kc[ra] != kc[rb] {
				return kc[ra] < kc[rb]
			}
		}
		return false
	})
	t.KeepRows(idx)
}

// ValueString renders cell (row, col) for debugging output.
func (t *Table) ValueString(row, col int) string {
	c := t.cols[col]
	switch c.typ {
	case Int32:
		v := c.i32[row]
		if v == NullInt32 {
			return "NULL"
		}
		return strconv.Itoa(int(v))
	case Float64:
		v := c.f64[row]
		if IsNullFloat64(v) {
			return "NULL"
		}
		return strconv.FormatFloat(v, 'g', 4, 64)
	case String:
		return c.str[row]
	}
	return "?"
}

// String renders the whole table; intended for tests and small tables.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d rows]\n", t.name, t.schema, t.nrows)
	for r := 0; r < t.nrows; r++ {
		for c := range t.cols {
			if c > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(t.ValueString(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ByteSize estimates the memory footprint of the table payload in bytes.
// The MPP layer uses it to account for data shipped by motions.
func (t *Table) ByteSize() int64 {
	var n int64
	for _, c := range t.cols {
		switch c.typ {
		case Int32:
			n += int64(len(c.i32)) * 4
		case Float64:
			n += int64(len(c.f64)) * 8
		case String:
			for _, s := range c.str {
				n += int64(len(s)) + 16
			}
		}
	}
	return n
}
