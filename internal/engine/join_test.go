package engine

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildTwoCol builds a table with two Int32 columns from parallel slices.
func buildTwoCol(name string, a, b []int32) *Table {
	t := NewTable(name, NewSchema(C("a", Int32), C("b", Int32)))
	for i := range a {
		t.AppendRow(a[i], b[i])
	}
	return t
}

func sortedRows(t *Table) [][]int32 {
	out := make([][]int32, t.NumRows())
	for r := range out {
		row := make([]int32, t.Schema().NumCols())
		for c := range row {
			row[c] = t.Int32Col(c)[r]
		}
		out[r] = row
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

func rowsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestHashJoinBasic(t *testing.T) {
	left := buildTwoCol("L", []int32{1, 2, 3, 2}, []int32{10, 20, 30, 21})
	right := buildTwoCol("R", []int32{2, 3, 4}, []int32{200, 300, 400})
	outs := []JoinOut{BuildCol("la", 0), BuildCol("lb", 1), ProbeCol("rb", 1)}
	j := NewHashJoin(NewScan(left), NewScan(right), []int{0}, []int{0}, outs, "L.a = R.a")
	got, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{2, 20, 200}, {2, 21, 200}, {3, 30, 300}}
	if !rowsEqual(sortedRows(got), want) {
		t.Fatalf("join result:\n%v\nwant %v", sortedRows(got), want)
	}
	if j.Stats().Rows != 3 {
		t.Fatalf("stats rows = %d, want 3", j.Stats().Rows)
	}
}

func TestHashJoinResidual(t *testing.T) {
	left := buildTwoCol("L", []int32{1, 1, 2}, []int32{5, 6, 7})
	right := buildTwoCol("R", []int32{1, 1, 2}, []int32{5, 9, 7})
	outs := []JoinOut{BuildCol("a", 0), BuildCol("lb", 1), ProbeCol("rb", 1)}
	j := NewHashJoin(NewScan(left), NewScan(right), []int{0}, []int{0}, outs, "L.a = R.a").
		WithResidual("L.b = R.b", func(b *Table, br int, p *Table, pr int) bool {
			return b.Int32Col(1)[br] == p.Int32Col(1)[pr]
		})
	got, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 5, 5}, {2, 7, 7}}
	if !rowsEqual(sortedRows(got), want) {
		t.Fatalf("residual join result %v, want %v", sortedRows(got), want)
	}
}

func TestHashJoinMultiKey(t *testing.T) {
	left := buildTwoCol("L", []int32{1, 1, 2}, []int32{5, 6, 5})
	right := buildTwoCol("R", []int32{1, 2, 1}, []int32{5, 5, 6})
	outs := []JoinOut{BuildCol("a", 0), ProbeCol("b", 1)}
	j := NewHashJoin(NewScan(left), NewScan(right), []int{0, 1}, []int{0, 1}, outs, "both cols")
	got, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 5}, {1, 6}, {2, 5}}
	if !rowsEqual(sortedRows(got), want) {
		t.Fatalf("multi-key join result %v, want %v", sortedRows(got), want)
	}
}

func TestHashJoinKeyArityPanics(t *testing.T) {
	l := buildTwoCol("L", nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched key lists did not panic")
		}
	}()
	NewHashJoin(NewScan(l), NewScan(l), []int{0}, []int{0, 1}, nil, "bad")
}

func TestHashJoinEmptyInputs(t *testing.T) {
	l := buildTwoCol("L", nil, nil)
	r := buildTwoCol("R", []int32{1}, []int32{2})
	outs := []JoinOut{BuildCol("a", 0)}
	j := NewHashJoin(NewScan(l), NewScan(r), []int{0}, []int{0}, outs, "empty build")
	got, err := j.Run()
	if err != nil || got.NumRows() != 0 {
		t.Fatalf("empty build join: rows=%d err=%v", got.NumRows(), err)
	}
	j2 := NewHashJoin(NewScan(r), NewScan(l), []int{0}, []int{0}, outs, "empty probe")
	got2, err := j2.Run()
	if err != nil || got2.NumRows() != 0 {
		t.Fatalf("empty probe join: rows=%d err=%v", got2.NumRows(), err)
	}
}

// TestHashJoinAgreesWithNestedLoop is the core correctness property: on
// random inputs the hash join must produce exactly the bag of rows the
// nested-loop oracle produces.
func TestHashJoinAgreesWithNestedLoop(t *testing.T) {
	prop := func(seed int64, nl, nr uint8, domain uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dom := int32(domain%8) + 1
		mk := func(n uint8, name string) *Table {
			a := make([]int32, int(n)%24)
			b := make([]int32, len(a))
			for i := range a {
				a[i] = rng.Int31n(dom)
				b[i] = rng.Int31n(dom)
			}
			return buildTwoCol(name, a, b)
		}
		left, right := mk(nl, "L"), mk(nr, "R")
		outs := []JoinOut{BuildCol("la", 0), BuildCol("lb", 1), ProbeCol("ra", 0), ProbeCol("rb", 1)}
		j := NewHashJoin(NewScan(left), NewScan(right), []int{0}, []int{1}, outs, "L.a = R.b")
		got, err := j.Run()
		if err != nil {
			return false
		}
		want := NestedLoopJoin(left, right, []int{0}, []int{1}, nil, outs)
		return rowsEqual(sortedRows(got), sortedRows(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHashJoinResidualAgreesWithNestedLoop extends the property to joins
// with residual predicates (the T2.x = T3.x checks of Query 1-3).
func TestHashJoinResidualAgreesWithNestedLoop(t *testing.T) {
	residual := func(b *Table, br int, p *Table, pr int) bool {
		return b.Int32Col(1)[br] <= p.Int32Col(1)[pr]
	}
	prop := func(seed int64, nl, nr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n uint8, name string) *Table {
			a := make([]int32, int(n)%16)
			b := make([]int32, len(a))
			for i := range a {
				a[i] = rng.Int31n(4)
				b[i] = rng.Int31n(4)
			}
			return buildTwoCol(name, a, b)
		}
		left, right := mk(nl, "L"), mk(nr, "R")
		outs := []JoinOut{BuildCol("la", 0), BuildCol("lb", 1), ProbeCol("rb", 1)}
		j := NewHashJoin(NewScan(left), NewScan(right), []int{0}, []int{0}, outs, "eq").
			WithResidual("le", residual)
		got, err := j.Run()
		if err != nil {
			return false
		}
		want := NestedLoopJoin(left, right, []int{0}, []int{0}, residual, outs)
		return rowsEqual(sortedRows(got), sortedRows(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDesc(t *testing.T) {
	bs := NewSchema(C("R", Int32), C("C1", Int32))
	ps := NewSchema(C("R2", Int32), C("C1", Int32))
	got := JoinDesc("M1", bs, []int{0, 1}, "T", ps, []int{0, 1})
	want := "M1.R = T.R2 AND M1.C1 = T.C1"
	if got != want {
		t.Fatalf("JoinDesc = %q, want %q", got, want)
	}
}

func TestHashJoinFloatAndStringOutputs(t *testing.T) {
	l := NewTable("L", NewSchema(C("k", Int32), C("w", Float64)))
	l.AppendRow(1, 0.5)
	r := NewTable("R", NewSchema(C("k", Int32), C("s", String)))
	r.AppendRow(1, "hello")
	outs := []JoinOut{BuildCol("w", 1), ProbeCol("s", 1)}
	j := NewHashJoin(NewScan(l), NewScan(r), []int{0}, []int{0}, outs, "k")
	got, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 || got.Float64Col(0)[0] != 0.5 || got.StringCol(1)[0] != "hello" {
		t.Fatalf("mixed-type join output wrong: %s", got)
	}
}
