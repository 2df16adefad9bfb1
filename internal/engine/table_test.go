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

func TestSortByInt32Cols(t *testing.T) {
	tab := NewTable("T", NewSchema(C("a", Int32), C("b", Int32)))
	tab.AppendRow(2, 1)
	tab.AppendRow(1, 2)
	tab.AppendRow(2, 0)
	tab.AppendRow(1, 1)
	tab.SortByInt32Cols(0, 1)
	wantA := []int32{1, 1, 2, 2}
	wantB := []int32{1, 2, 0, 1}
	for r := 0; r < 4; r++ {
		if tab.Int32Col(0)[r] != wantA[r] || tab.Int32Col(1)[r] != wantB[r] {
			t.Fatalf("row %d = (%d,%d), want (%d,%d)", r,
				tab.Int32Col(0)[r], tab.Int32Col(1)[r], wantA[r], wantB[r])
		}
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
	c := NewCatalog()
	a := NewTable("TPi", factsSchema())
	c.Put(a)
	got, err := c.Get("TPi")
	if err != nil || got != a {
		t.Fatalf("Get(TPi) = %v, %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Fatal("Get of missing table should error")
	}
	c.Put(NewTable("M1", factsSchema()))
	names := c.Names()
	if len(names) != 2 || names[0] != "M1" || names[1] != "TPi" {
		t.Fatalf("Names = %v", names)
	}
	c.Drop("M1")
	if c.Len() != 1 {
		t.Fatalf("Len after Drop = %d, want 1", c.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing table did not panic")
		}
	}()
	c.MustGet("M1")
}
