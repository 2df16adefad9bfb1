package engine

import (
	"math"
	"strings"
	"testing"
)

func factsSchema() Schema {
	return NewSchema(C("R", Int32), C("x", Int32), C("y", Int32), C("w", Float64))
}

func TestSchemaBasics(t *testing.T) {
	s := factsSchema()
	if got := s.NumCols(); got != 4 {
		t.Fatalf("NumCols = %d, want 4", got)
	}
	if got := s.ColIndex("y"); got != 2 {
		t.Fatalf("ColIndex(y) = %d, want 2", got)
	}
	if got := s.ColIndex("nope"); got != -1 {
		t.Fatalf("ColIndex(nope) = %d, want -1", got)
	}
	if got := s.MustColIndex("w"); got != 3 {
		t.Fatalf("MustColIndex(w) = %d, want 3", got)
	}
	if !s.Equal(factsSchema()) {
		t.Fatal("identical schemas not Equal")
	}
	if s.Equal(NewSchema(C("R", Int32))) {
		t.Fatal("different schemas reported Equal")
	}
	want := "(R int, x int, y int, w float)"
	if s.String() != want {
		t.Fatalf("String = %q, want %q", s.String(), want)
	}
	p := s.Project([]int{3, 0})
	if p.String() != "(w float, R int)" {
		t.Fatalf("Project = %q", p.String())
	}
}

func TestSchemaMustColIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustColIndex on missing column did not panic")
		}
	}()
	factsSchema().MustColIndex("missing")
}

func TestColTypeString(t *testing.T) {
	cases := map[ColType]string{Int32: "int", Float64: "float", String: "text", ColType(9): "ColType(9)"}
	for ct, want := range cases {
		if got := ct.String(); got != want {
			t.Errorf("ColType(%d).String() = %q, want %q", int(ct), got, want)
		}
	}
}

func TestAppendAndAccess(t *testing.T) {
	tab := NewTable("T", factsSchema())
	tab.AppendRow(int32(1), int32(10), int32(20), 0.5)
	tab.AppendRow(2, 11, 21, NullFloat64()) // plain ints accepted
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tab.NumRows())
	}
	if got := tab.Int32Col(0)[1]; got != 2 {
		t.Fatalf("R[1] = %d, want 2", got)
	}
	if got := tab.Float64Col(3)[0]; got != 0.5 {
		t.Fatalf("w[0] = %v, want 0.5", got)
	}
	if !IsNullFloat64(tab.Float64Col(3)[1]) {
		t.Fatal("w[1] should be NULL")
	}
	if got := tab.ValueString(1, 3); got != "NULL" {
		t.Fatalf("ValueString NULL float = %q", got)
	}
}

func TestAppendRowArityPanics(t *testing.T) {
	tab := NewTable("T", factsSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRow with wrong arity did not panic")
		}
	}()
	tab.AppendRow(int32(1))
}

func TestAppendRowTypePanics(t *testing.T) {
	tab := NewTable("T", factsSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRow with wrong type did not panic")
		}
	}()
	tab.AppendRow("oops", int32(1), int32(2), 0.1)
}

func TestWrongColumnTypeAccessPanics(t *testing.T) {
	tab := NewTable("T", factsSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("Float64Col on Int32 column did not panic")
		}
	}()
	tab.Float64Col(0)
}

func TestAppendTableAndClone(t *testing.T) {
	a := NewTable("A", factsSchema())
	a.AppendRow(1, 2, 3, 1.0)
	b := NewTable("B", factsSchema())
	b.AppendRow(4, 5, 6, 2.0)
	b.AppendRow(7, 8, 9, 3.0)
	a.AppendTable(b)
	if a.NumRows() != 3 {
		t.Fatalf("NumRows after AppendTable = %d, want 3", a.NumRows())
	}
	c := a.Clone()
	c.Int32Col(0)[0] = 99
	if a.Int32Col(0)[0] == 99 {
		t.Fatal("Clone shares storage with the original")
	}
	a.Truncate()
	if a.NumRows() != 0 {
		t.Fatal("Truncate left rows behind")
	}
	if c.NumRows() != 3 {
		t.Fatal("Truncate of original affected clone")
	}
}

func TestDeleteWhere(t *testing.T) {
	tab := NewTable("T", factsSchema())
	for i := 0; i < 10; i++ {
		tab.AppendRow(i, i*10, i*100, float64(i))
	}
	n := tab.DeleteWhere(func(r int) bool { return tab.Int32Col(0)[r]%2 == 0 })
	if n != 5 {
		t.Fatalf("deleted %d rows, want 5", n)
	}
	if tab.NumRows() != 5 {
		t.Fatalf("NumRows = %d, want 5", tab.NumRows())
	}
	for r := 0; r < tab.NumRows(); r++ {
		if tab.Int32Col(0)[r]%2 == 0 {
			t.Fatalf("even row %d survived delete", tab.Int32Col(0)[r])
		}
	}
	// Deleting nothing is a no-op.
	if n := tab.DeleteWhere(func(int) bool { return false }); n != 0 {
		t.Fatalf("no-op delete removed %d rows", n)
	}
	// The survivors keep their order and every column moves with them,
	// in the arrays the table already had: a deletion in the tail leaves
	// the rows before it where they were.
	for r, want := range []int32{1, 3, 5, 7, 9} {
		if tab.Int32Col(0)[r] != want || tab.Int32Col(1)[r] != want*10 || tab.Float64Col(3)[r] != float64(want) {
			t.Fatalf("row %d = %s, want fact %d", r, tab.ValueString(r, 0), want)
		}
	}
	col := tab.Int32Col(0)
	if n := tab.DeleteWhere(func(r int) bool { return r == 3 }); n != 1 || tab.NumRows() != 4 {
		t.Fatalf("tail delete removed %d rows, left %d", n, tab.NumRows())
	}
	if got := tab.Int32Col(0); &got[0] != &col[0] || got[2] != 5 || got[3] != 9 {
		t.Fatalf("tail delete left %v; want 1 3 5 9 in place", got)
	}
	tab.AppendRow(11, 110, 1100, 11.0)
	if tab.NumRows() != 5 || tab.Int32Col(1)[4] != 110 {
		t.Fatal("append after an in-place delete landed wrong")
	}
}

func TestTableStringAndByteSize(t *testing.T) {
	tab := NewTable("D", NewSchema(C("id", Int32), C("name", String)))
	tab.AppendRow(1, "kale")
	tab.AppendRow(NullInt32, "calcium")
	s := tab.String()
	if !strings.Contains(s, "kale") || !strings.Contains(s, "NULL") {
		t.Fatalf("String output missing content:\n%s", s)
	}
	if tab.ByteSize() <= 0 {
		t.Fatal("ByteSize should be positive")
	}
}

func TestReserveKeepsData(t *testing.T) {
	tab := NewTable("T", factsSchema())
	tab.AppendRow(1, 2, 3, 4.0)
	tab.Reserve(1000)
	if tab.NumRows() != 1 || tab.Int32Col(0)[0] != 1 {
		t.Fatal("Reserve lost existing rows")
	}
}

func TestNullSentinels(t *testing.T) {
	if !IsNullFloat64(NullFloat64()) {
		t.Fatal("NullFloat64 not recognized as NULL")
	}
	if IsNullFloat64(0) || IsNullFloat64(math.Inf(1)) {
		t.Fatal("non-NULL values reported as NULL")
	}
}

func TestCatalog(t *testing.T) {
	a := NewTable("TPi", factsSchema())
	c := NewCatalog([]*Table{a, NewTable("M1", factsSchema())}, nil)
	got, err := c.Get("TPi")
	if err != nil || got != a {
		t.Fatalf("Get(TPi) = %v, %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Fatal("Get of missing table should error")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "M1" || names[1] != "TPi" || c.Len() != 2 {
		t.Fatalf("Names = %v, Len = %d", names, c.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a name given twice did not panic")
			}
		}()
		NewCatalog([]*Table{a}, map[string]func() (*Table, error){"TPi": nil})
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing table did not panic")
		}
	}()
	c.MustGet("nope")
}

// TestForkAppendsInPlaceOnlyOnTheFirstFork: every Fork of a table
// shares its columns, the first appends into their spare capacity, a
// later one copies on its first append, and no write of either fork —
// appends, weight writes, deletions — nor an append to the forked table
// itself changes what the others hold.
func TestForkAppendsInPlaceOnlyOnTheFirstFork(t *testing.T) {
	parent := NewTable("T", factsSchema())
	parent.Reserve(16)
	for i := 0; i < 4; i++ {
		parent.AppendRow(int32(i), int32(10+i), int32(20+i), float64(i))
	}
	want := parent.String()

	first, second := parent.Fork(), parent.Fork()
	if &first.Int32Col(0)[0] != &parent.Int32Col(0)[0] {
		t.Fatal("the first fork copied its parent's columns")
	}
	if &second.Int32Col(0)[0] != &parent.Int32Col(0)[0] {
		t.Fatal("a second fork copied its parent's columns")
	}
	first.AppendRowOf([]int32{4, 14, 24}, []float64{4})
	second.AppendRowOf([]int32{5, 15, 25}, []float64{5})
	if &first.Int32Col(0)[0] != &parent.Int32Col(0)[0] {
		t.Fatal("an append within capacity moved the first fork off its parent's columns")
	}
	if &second.Int32Col(0)[0] == &parent.Int32Col(0)[0] {
		t.Fatal("a second fork appended into its parent's columns")
	}
	// Once its append copied them, the second fork's rows are its own.
	cols := &second.Float64Col(3)[0]
	second.Writable(0)
	if &second.Float64Col(3)[0] != cols {
		t.Fatal("a write after the copying append copied again")
	}
	firstWant := first.String()

	// The forked table's own append must not land on the fork's row.
	parent.AppendRow(int32(6), int32(16), int32(26), 6.0)
	if got := first.String(); got != firstWant {
		t.Fatalf("an append to the forked table changed its fork:\n%s", got)
	}
	parent.DeleteWhere(func(r int) bool { return r == 4 })
	if got := parent.String(); got != want {
		t.Fatalf("parent after its own append and delete = \n%s\nwant\n%s", got, want)
	}

	// Writes below the shared rows copy first; writes past them do not.
	grand := first.Fork()
	ws := grand.MutableFloat64Col(3, 5)
	if &ws[0] != &first.Float64Col(3)[0] {
		t.Fatal("a write past the shared rows copied the column")
	}
	grand.AppendRowOf([]int32{7, 17, 27}, []float64{7})
	grand.MutableFloat64Col(3, 0)[0] = -1
	grand.DeleteWhere(func(r int) bool { return r == 1 })
	if got := first.String(); got != firstWant {
		t.Fatalf("writes to a fork's shared rows changed its parent:\n%s", got)
	}
	if grand.NumRows() != 5 || grand.Float64Col(3)[0] != -1 || grand.Int32Col(0)[4] != 7 {
		t.Fatalf("fork after its writes:\n%s", grand.String())
	}
	second.Truncate()
	second.AppendRowOf([]int32{8, 18, 28}, []float64{8})
	if got := first.String(); got != firstWant {
		t.Fatalf("a second fork's writes changed the first:\n%s", got)
	}
}
