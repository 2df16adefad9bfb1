package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestScanAndExplain(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 2}, []int32{3, 4})
	s := NewScan(tab)
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out != tab {
		t.Fatal("scan should alias the base table")
	}
	exp := Explain(s)
	if !strings.Contains(exp, "Seq Scan on T") || !strings.Contains(exp, "rows=2") {
		t.Fatalf("Explain output missing annotations:\n%s", exp)
	}
}

func TestFilter(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 2, 3, 4}, []int32{0, 0, 0, 0})
	f := NewFilter(NewScan(tab), "a > 2", func(in *Table, r int) bool {
		return in.Int32Col(0)[r] > 2
	})
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("filter rows = %d, want 2", out.NumRows())
	}
	if !strings.Contains(f.Label(), "a > 2") {
		t.Fatalf("label = %q", f.Label())
	}
}

func TestProjectColumnsAndConstants(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 2}, []int32{10, 20})
	p := NewProject(NewScan(tab),
		ColExpr("b", 1),
		ConstI32Expr("c", 7),
		NullF64Expr("w"),
		ConstF64Expr("v", 2.5),
	)
	out, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantSchema := "(b int, c int, w float, v float)"
	if out.Schema().String() != wantSchema {
		t.Fatalf("schema = %s, want %s", out.Schema(), wantSchema)
	}
	if out.Int32Col(0)[1] != 20 || out.Int32Col(1)[0] != 7 {
		t.Fatalf("projected values wrong: %s", out)
	}
	if !IsNullFloat64(out.Float64Col(2)[0]) || out.Float64Col(3)[1] != 2.5 {
		t.Fatalf("constant columns wrong: %s", out)
	}
}

func TestDistinct(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 1, 2, 1}, []int32{5, 5, 6, 7})
	d := NewDistinct(NewScan(tab), []int{0, 1})
	out, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 5}, {1, 7}, {2, 6}}
	if !rowsEqual(sortedRows(out), want) {
		t.Fatalf("distinct = %v, want %v", sortedRows(out), want)
	}
	// Distinct on only the first column keeps one row per a-value.
	d2 := NewDistinct(NewScan(tab), []int{0})
	out2, _ := d2.Run()
	if out2.NumRows() != 2 {
		t.Fatalf("distinct on col 0 rows = %d, want 2", out2.NumRows())
	}
}

// TestDistinctIdempotent: applying DISTINCT twice equals applying it once.
func TestDistinctIdempotent(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]int32, int(n)%32)
		b := make([]int32, len(a))
		for i := range a {
			a[i] = rng.Int31n(4)
			b[i] = rng.Int31n(4)
		}
		tab := buildTwoCol("T", a, b)
		once, err := NewDistinct(NewScan(tab), []int{0, 1}).Run()
		if err != nil {
			return false
		}
		twice, err := NewDistinct(NewScan(once), []int{0, 1}).Run()
		if err != nil {
			return false
		}
		return rowsEqual(sortedRows(once), sortedRows(twice))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHelperAndTotalTime(t *testing.T) {
	tab := buildTwoCol("T", []int32{1}, []int32{2})
	f := NewFilter(NewScan(tab), "all", func(*Table, int) bool { return true })
	out, err := Run(f, "result")
	if err != nil {
		t.Fatal(err)
	}
	if out.Name() != "result" {
		t.Fatalf("result name = %q", out.Name())
	}
	if TotalTime(f) < 0 {
		t.Fatal("TotalTime negative")
	}
}

func TestExplainTreeStructure(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 2}, []int32{1, 2})
	j := NewHashJoin(NewScan(tab), NewScan(tab), []int{0}, []int{0},
		[]JoinOut{BuildCol("a", 0)}, "T.a = T.a")
	if _, err := j.Run(); err != nil {
		t.Fatal(err)
	}
	exp := Explain(j)
	if strings.Count(exp, "Seq Scan on T") != 2 {
		t.Fatalf("expected two scans in explain:\n%s", exp)
	}
	if !strings.Contains(exp, "Hash Join") {
		t.Fatalf("expected hash join node:\n%s", exp)
	}
	// Children are indented deeper than the root.
	lines := strings.Split(strings.TrimSpace(exp), "\n")
	if len(lines) != 3 || strings.HasPrefix(lines[0], " ") || !strings.HasPrefix(lines[1], "  ") {
		t.Fatalf("unexpected explain layout:\n%s", exp)
	}
}

func TestSortNode(t *testing.T) {
	tab := NewTable("T", NewSchema(C("a", Int32), C("w", Float64), C("s", String)))
	tab.AppendRow(2, 0.5, "b")
	tab.AppendRow(1, 0.7, "c")
	tab.AppendRow(NullInt32, 0.1, "a")
	tab.AppendRow(1, NullFloat64(), "d")

	// Ascending int: NULL last; ties broken by the second key descending.
	s := NewSort(NewScan(tab), SortKey{Col: 0}, SortKey{Col: 1, Desc: true})
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantA := []int32{1, 1, 2, NullInt32}
	for r, w := range wantA {
		if out.Int32Col(0)[r] != w {
			t.Fatalf("sorted col a = %v", out.Int32Col(0))
		}
	}
	// Row 0 must be the (1, 0.7) row (0.7 > NULL under desc? NULL
	// handling: desc flips the comparison, so NULL sorts first there —
	// accept either of the two tie orders but assert the non-NULL value
	// is present among the first two rows).
	if out.Float64Col(1)[0] != 0.7 && out.Float64Col(1)[1] != 0.7 {
		t.Fatalf("tie-break lost the 0.7 row: %v", out.Float64Col(1))
	}

	// String sort.
	s2 := NewSort(NewScan(tab), SortKey{Col: 2})
	out2, _ := s2.Run()
	if out2.StringCol(2)[0] != "a" || out2.StringCol(2)[3] != "d" {
		t.Fatalf("string sort wrong: %v", out2.StringCol(2))
	}
	// Sorting does not mutate the input.
	if tab.Int32Col(0)[0] != 2 {
		t.Fatal("sort mutated its input")
	}
}

func TestLimitNode(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 2, 3}, []int32{4, 5, 6})
	out, err := NewLimit(NewScan(tab), 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Int32Col(0)[1] != 2 {
		t.Fatalf("limit output wrong:\n%s", out)
	}
	// Limit larger than input passes through.
	out2, _ := NewLimit(NewScan(tab), 99).Run()
	if out2.NumRows() != 3 {
		t.Fatal("oversized limit truncated")
	}
	out3, _ := NewLimit(NewScan(tab), 0).Run()
	if out3.NumRows() != 0 {
		t.Fatal("limit 0 kept rows")
	}
}

func TestTableFromColumns(t *testing.T) {
	sch := NewSchema(C("a", Int32), C("w", Float64), C("s", String))
	tab := TableFromColumns("T", sch, []int32{1, 2}, []float64{0.1, 0.2}, []string{"x", "y"})
	if tab.NumRows() != 2 || tab.Int32Col(0)[1] != 2 || tab.StringCol(2)[0] != "x" {
		t.Fatalf("TableFromColumns wrong:\n%s", tab)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged columns did not panic")
		}
	}()
	TableFromColumns("T", sch, []int32{1}, []float64{0.1, 0.2}, []string{"x"})
}

func TestTableFromColumnsTypeMismatch(t *testing.T) {
	sch := NewSchema(C("a", Int32))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong column type did not panic")
		}
	}()
	TableFromColumns("T", sch, []float64{1})
}

func TestRowSet(t *testing.T) {
	tab := buildTwoCol("T", []int32{1, 2}, []int32{10, 20})
	s := NewRowSet(tab, []int{0, 1})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	probe := buildTwoCol("P", []int32{1, 3}, []int32{10, 30})
	if !s.Contains(probe, 0, []int{0, 1}) {
		t.Fatal("existing key reported absent")
	}
	if s.Contains(probe, 1, []int{0, 1}) {
		t.Fatal("missing key reported present")
	}
	tab.AppendRow(3, 30)
	s.NoteAppended()
	if !s.Contains(probe, 1, []int{0, 1}) {
		t.Fatal("appended key not found")
	}
}

func TestNodeLabels(t *testing.T) {
	tab := buildTwoCol("T", []int32{1}, []int32{2})
	scan := NewScan(tab)
	nodes := []Node{
		scan,
		NewFilter(scan, "p", func(*Table, int) bool { return true }),
		NewProject(scan, ColExpr("a", 0)),
		NewDistinct(scan, []int{0}),
		NewGroupBy(scan, []int{0}, []AggSpec{{Kind: AggCount, Name: "n"}}),
		NewSort(scan, SortKey{Col: 0}),
		NewLimit(scan, 1),
		NewHashJoin(scan, scan, []int{0}, []int{0}, []JoinOut{BuildCol("a", 0)}, "c"),
	}
	for _, n := range nodes {
		if n.Label() == "" {
			t.Fatalf("%T has empty label", n)
		}
	}
}

func TestKernelWrappers(t *testing.T) {
	left := buildTwoCol("L", []int32{1, 2}, []int32{5, 6})
	right := buildTwoCol("R", []int32{1, 1}, []int32{7, 8})
	out, err := HashJoinTablesOpts(left, right, []int{0}, []int{0}, nil,
		[]JoinOut{BuildCol("a", 0), ProbeCol("rb", 1)}, Opts{Workers: 1}, nil)
	if err != nil || out.NumRows() != 2 {
		t.Fatalf("HashJoinTablesOpts: rows=%d err=%v", out.NumRows(), err)
	}
	g, err := GroupByTableOpts(left, []int{0}, []AggSpec{{Kind: AggCount, Name: "n"}}, Opts{Workers: 1}, nil)
	if err != nil || g.NumRows() != 2 {
		t.Fatalf("GroupByTableOpts: rows=%d err=%v", g.NumRows(), err)
	}
}

func TestHashInt32sStability(t *testing.T) {
	a := hashInt32s(1, 2, 3)
	b := hashInt32s(1, 2, 3)
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if hashInt32s(1, 2, 3) == hashInt32s(3, 2, 1) {
		t.Fatal("hash ignores order (suspicious)")
	}
}

func TestHashRowMatchesHashInt32s(t *testing.T) {
	tab := buildTwoCol("T", []int32{7}, []int32{-9})
	if HashRow(tab, 0, []int{0, 1}) != hashInt32s(7, -9) {
		t.Fatal("HashRow disagrees with hashInt32s")
	}
}
