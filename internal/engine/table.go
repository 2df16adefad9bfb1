package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// column is the physical storage for one column. Exactly one of the three
// slices is non-nil, matching the declared ColType.
type column struct {
	typ ColType
	i32 []int32
	f64 []float64
	str []string
}

// copyOut gives the column an array of its own holding its rows.
func (c *column) copyOut() {
	c.i32, c.f64, c.str = slices.Clone(c.i32), slices.Clone(c.f64), slices.Clone(c.str)
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
// A table may be forked (Fork) while others read it: the fork may then
// write and append while they go on reading.
type Table struct {
	name   string
	schema Schema
	cols   []*column
	nrows  int
	// forked is set by the Fork that took the columns' spare capacity:
	// the rows that fork appends lie past this table's, in the same
	// arrays, and it reads this table's rows as its own. Before this
	// table writes or appends, it copies its columns away.
	forked atomic.Bool
	// shared counts the leading rows this table, a Fork, may still share
	// with the table it was forked from: they are read here and never
	// written, so a write below it copies the column first.
	shared int32
	// capped is set on a Fork that did not take its table's tail: its
	// columns end at the shared rows, so its first append copies them.
	capped bool
	// deletion is the record of t's latest DeleteRows, nil before its
	// first: what an index over t follows (LastDeletion).
	deletion *Deletion
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
// not resize it; reading is fine, and so is element assignment at rows
// Writable made t's alone.
func (t *Table) Int32Col(i int) []int32 {
	c := t.cols[i]
	if c.typ != Int32 {
		panic(fmt.Sprintf("engine: column %d of %s is %s, not int", i, t.name, c.typ))
	}
	return c.i32
}

// Float64Col returns the backing slice of a Float64 column, on the terms
// of Int32Col; MutableFloat64Col is the one for writing a forked table.
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

// Fork returns a table holding t's rows that the caller may append to
// and write while others keep reading t, without copying them. The
// first Fork of t takes t's tail: the fork aliases t's columns and
// appends into their spare capacity, past every row t holds, so t's
// readers never see its rows. Every later Fork of t aliases t's rows
// with no spare capacity, so its first append copies them. Either kind
// copies its columns before its first write below t's row count
// (Writable, MutableFloat64Col, DeleteRows), and t copies its own
// before it next writes or appends. The claim is atomic, so concurrent
// Forks of one table are safe, and at most one of them takes the tail.
func (t *Table) Fork() *Table {
	first := t.forked.CompareAndSwap(false, true)
	n := t.nrows
	f := &Table{name: t.name, schema: t.schema, cols: make([]*column, len(t.cols)), nrows: n, shared: int32(n), capped: !first}
	cols := make([]column, len(t.cols)) // one allocation for all of them
	for i, c := range t.cols {
		cols[i] = column{typ: c.typ, i32: c.i32, f64: c.f64, str: c.str}
		if !first {
			cols[i].i32, cols[i].f64, cols[i].str = slices.Clip(c.i32), slices.Clip(c.f64), slices.Clip(c.str)
		}
		f.cols[i] = &cols[i]
	}
	return f
}

// sharesFrom reports whether t's rows at row and above are not t's
// alone to write: a fork reads them, or they belong to the table t was
// forked from.
func (t *Table) sharesFrom(row int) bool {
	return t.forked.Load() || row < int(t.shared)
}

// own gives t's columns arrays of their own, copying its rows: the
// barrier before a write below its shared rows, and before an append
// once a fork has taken its tail or when t is a capped Fork.
func (t *Table) own() {
	for _, c := range t.cols {
		c.copyOut()
	}
	t.owned()
}

// owned records that t's columns are arrays of its own.
func (t *Table) owned() {
	t.forked.Store(false)
	t.shared = 0
	t.capped = false
}

// detach is the barrier before t appends.
func (t *Table) detach() {
	if t.forked.Load() || t.capped {
		t.own()
	}
}

// Writable makes t's rows at from and above t's alone to assign in
// place (Int32Col, Float64Col): when a Fork shares them, it first copies
// t's columns. After it, such writes are free until t is forked again.
func (t *Table) Writable(from int) {
	if t.sharesFrom(from) {
		t.own()
	}
}

// MutableFloat64Col is Float64Col for a caller that assigns elements at
// row from and above: it first copies the column when those rows are
// shared with the table t was forked from, or with a fork of t.
func (t *Table) MutableFloat64Col(i, from int) []float64 {
	c := t.cols[i]
	if c.typ != Float64 {
		panic(fmt.Sprintf("engine: column %d of %s is %s, not float", i, t.name, c.typ))
	}
	if t.sharesFrom(from) {
		c.copyOut()
	}
	return c.f64
}

// AppendRowOf appends one row of a table with no String column: the
// Int32 columns' values in schema order in ints, the Float64 columns'
// in floats. It is AppendRow without boxing a value per cell.
func (t *Table) AppendRowOf(ints []int32, floats []float64) {
	t.detach()
	for _, c := range t.cols {
		switch c.typ {
		case Int32:
			c.i32 = append(c.i32, ints[0])
			ints = ints[1:]
		case Float64:
			c.f64 = append(c.f64, floats[0])
			floats = floats[1:]
		default:
			panic(fmt.Sprintf("engine: AppendRowOf to %s: a %s column", t.name, c.typ))
		}
	}
	if len(ints) != 0 || len(floats) != 0 {
		panic(fmt.Sprintf("engine: AppendRowOf to %s: %d values left over", t.name, len(ints)+len(floats)))
	}
	t.nrows++
}

// AppendRow appends one row. vals must match the schema: int32 for Int32
// columns, float64 for Float64 columns, string for String columns. Plain
// int is accepted for Int32 columns as a convenience for literals.
func (t *Table) AppendRow(vals ...any) {
	if len(vals) != t.schema.NumCols() {
		panic(fmt.Sprintf("engine: AppendRow to %s: got %d values, want %d", t.name, len(vals), t.schema.NumCols()))
	}
	t.detach()
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
	t.detach()
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
	t.detach()
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
	if t.sharesFrom(0) {
		t.own()
	}
	for _, c := range t.cols {
		c.i32 = c.i32[:0]
		c.f64 = c.f64[:0]
		c.str = c.str[:0]
	}
	t.nrows = 0
}

// KeepRows replaces the table contents with the rows whose indices appear
// in keep, in that order. keep may be any permutation or subset.
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
// many were deleted: DeleteRows over the rows pred picks.
func (t *Table) DeleteWhere(pred func(row int) bool) int {
	var rows []int32
	for r := 0; r < t.nrows; r++ {
		if pred(r) {
			rows = append(rows, int32(r))
		}
	}
	return t.DeleteRows(rows)
}

// DeleteRows removes the given rows, which must be ascending and
// distinct, and reports how many it removed. This is the engine
// primitive behind Query 3 (applyConstraints) in the paper.
//
// The survivors close up in place, in order, from the first deleted row
// on, one copy per run between two deleted rows: rows before the first
// are not touched, nothing is allocated but the deletion's record, and
// the columns keep their capacity — a deletion costs what it moves, not
// a copy of the table. The exception is a deletion among rows t shares
// (Fork): each column's survivors are copied into an array of their
// own, of their length. t keeps rows as the record of its latest
// deletion (LastDeletion); the caller must not write it afterwards.
func (t *Table) DeleteRows(rows []int32) int {
	if len(rows) == 0 {
		return 0
	}
	for i, r := range rows {
		if r < 0 || int(r) >= t.nrows || (i > 0 && r <= rows[i-1]) {
			panic(fmt.Sprintf("engine: DeleteRows from %s: row %d out of order or range (%d rows)", t.name, r, t.nrows))
		}
	}
	shared := t.sharesFrom(int(rows[0]))
	for _, c := range t.cols {
		switch c.typ {
		case Int32:
			c.i32 = cut(c.i32, rows, shared)
		case Float64:
			c.f64 = cut(c.f64, rows, shared)
		case String:
			c.str = cut(c.str, rows, shared)
		}
	}
	if shared {
		t.owned()
	}
	t.deletion = &Deletion{Rows: rows, seq: t.Deletions() + 1, before: t.nrows}
	t.nrows -= len(rows)
	return len(rows)
}

// cut removes the ascending positions rows from s: in place (closeUp),
// or, when s is shared, into a new array holding the survivors.
func cut[T any](s []T, rows []int32, shared bool) []T {
	if !shared {
		return closeUp(s, rows)
	}
	out := make([]T, 0, len(s)-len(rows))
	from := 0
	for _, r := range rows {
		out = append(out, s[from:r]...)
		from = int(r) + 1
	}
	return append(out, s[from:]...)
}

// closeUp removes the ascending positions rows from s, moving each run of
// survivors down with one copy, and zeroes the vacated tail (it lets the
// dropped strings go).
func closeUp[T any](s []T, rows []int32) []T {
	w := int(rows[0])
	for i, r := range rows {
		end := len(s)
		if i+1 < len(rows) {
			end = int(rows[i+1])
		}
		w += copy(s[w:], s[r+1:end])
	}
	clear(s[w:])
	return s[:w]
}

// Deletion is what a table's latest deletion removed: Rows, ascending
// and numbered as they were before it. An index over the table that saw
// every deletion before this one, and every row before it, follows it
// by dropping Rows and renumbering the rest (Renumbering,
// RowSet.FollowDeletion, EntityIndex.FollowDeletion).
type Deletion struct {
	Rows []int32
	// seq is the table's Deletions() with this one; before, its row
	// count before it.
	seq, before int
}

// Renumbering returns the map from the rows d's table held before the
// deletion to their numbers after it, which every structure following
// the deletion reads.
func (d *Deletion) Renumbering() *Renumbering { return newRenumbering(d.Rows, d.before) }

// LastDeletion returns the record of t's latest deletion; nil before its
// first. A Fork or Clone starts with none.
func (t *Table) LastDeletion() *Deletion { return t.deletion }

// Deletions returns how many deletions t has seen.
func (t *Table) Deletions() int {
	if t.deletion == nil {
		return 0
	}
	return t.deletion.seq
}

// Renumbering maps the rows of a table before an order-preserving
// deletion to their numbers after it: a surviving row moves down by the
// number of deleted rows before it. A lookup is O(1) and all but
// branch-free — the followers call it once per entry of an index — from
// a bitmap of the deleted rows and a running count per 64-row word, both
// over every row the table held.
type Renumbering struct {
	rows   []int32  // the deleted rows, ascending
	gone   []uint64 // bit r%64 of word r/64: row r was deleted
	before []int32  // per word: deleted rows below its first row
}

// newRenumbering maps the n rows a table held before deleting rows.
func newRenumbering(rows []int32, n int) *Renumbering {
	m := &Renumbering{rows: rows, gone: make([]uint64, n>>6+1)}
	for _, r := range rows {
		m.gone[r>>6] |= 1 << (r & 63)
	}
	m.before = make([]int32, len(m.gone))
	c := int32(0)
	for w, g := range m.gone {
		m.before[w] = c
		c += int32(bits.OnesCount64(g))
	}
	return m
}

// renumber returns row r's number after the deletion, and false when r
// was deleted.
func (m *Renumbering) renumber(r int32) (int32, bool) {
	return r - m.below(r), m.gone[r>>6]&(1<<(r&63)) == 0
}

// below returns how many of the deleted rows lie below row n, for n up
// to the table's row count before the deletion.
func (m *Renumbering) below(n int32) int32 {
	return m.before[n>>6] + int32(bits.OnesCount64(m.gone[n>>6]&(1<<(n&63)-1)))
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
