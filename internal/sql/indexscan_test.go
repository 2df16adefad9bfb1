package sql

import (
	"fmt"
	"strings"
	"testing"

	"probkb/internal/engine"
)

// accessPathCatalog holds P, a table of 10,000 rows — more than one
// morsel — whose INT columns cover both EntityIndex layouts: id is
// unique and a repeats values from -300 to 696, both dense spans; b
// repeats 50 values spread over millions, with NULL cells, so it is
// sparse. Q (1,000 rows) is under one morsel, and E4096/E4097 sit on
// either side of the threshold.
func accessPathCatalog() *engine.Catalog {
	p := engine.NewTable("P", engine.NewSchema(
		engine.C("id", engine.Int32), engine.C("a", engine.Int32),
		engine.C("b", engine.Int32), engine.C("w", engine.Float64)))
	rng := seededRng(36)
	for i := 0; i < 10000; i++ {
		b := int32(i%50)*100003 - 2000000
		if i%17 == 0 {
			b = engine.NullInt32
		}
		p.AppendRow(int32(i), int32(i*7%997)-300, b, rng.Float64())
	}
	q := engine.NewTable("Q", engine.NewSchema(engine.C("k", engine.Int32), engine.C("a", engine.Int32)))
	for i := 0; i < 1000; i++ {
		q.AppendRow(int32(i%400)-300, int32(i))
	}
	tables := []*engine.Table{p, q}
	for _, n := range []int{engine.DefaultMorselSize, engine.DefaultMorselSize + 1} {
		e := engine.NewTable(fmt.Sprintf("E%d", n), engine.NewSchema(engine.C("v", engine.Int32)))
		for i := 0; i < n; i++ {
			e.AppendRow(int32(i % 100))
		}
		tables = append(tables, e)
	}
	return engine.NewCatalog(tables, nil)
}

// accessPathLiterals spreads literals over a column: values present in
// it, values inside its span it never holds, and values past both ends.
func accessPathLiterals(col string) []int64 {
	switch col {
	case "id":
		return []int64{0, 1, 4095, 4096, 9999, 10000, -1, 2147483647}
	case "a":
		return []int64{-300, -299, -1, 0, 5, 696, 697, -301, 1 << 20}
	default:
		return []int64{-2000000, -1999999, 0, 97, 2900084, 2900087, -2147483647, 2147483647}
	}
}

// TestIndexScanMatchesSeqScan is the access-path differential: every
// statement answers, on the cost-based DB (Index Scan where the rule
// applies), exactly the table the syntactic DB answers with a Seq Scan
// and the typed filter — the same rows in the same order — and EXPLAIN
// names the Index Scan exactly when the rule says it should.
func TestIndexScanMatchesSeqScan(t *testing.T) {
	cat := accessPathCatalog()
	opt, seq := NewDB(cat), NewDB(cat)
	seq.SetOptimize(false)

	// check runs q both ways and returns the cost-based plan's EXPLAIN.
	check := func(q string) string {
		t.Helper()
		want, err := seq.Query(q)
		if err != nil {
			t.Fatalf("%s: Seq Scan: %v", q, err)
		}
		got, err := opt.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: cost-based plan answers\n%s\nsyntactic plan\n%s", q, got, want)
		}
		plan, err := opt.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if seqPlan, _ := seq.Explain(q); strings.Contains(seqPlan, "Index Scan") {
			t.Fatalf("%s: the syntactic DB planned an Index Scan:\n%s", q, seqPlan)
		}
		return plan
	}
	// expectIndex wants the Index Scan on cond, rendered as the planner
	// renders conditions (numbers as %g).
	expectIndex := func(q, cond string) {
		t.Helper()
		plan := check(q)
		stmt, err := Parse("SELECT P.id FROM P WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		if want := "-> Index Scan on P (" + stmt.Where[0].String() + ")  (rows="; !strings.Contains(plan, want) || strings.Contains(plan, "Seq Scan on P") {
			t.Errorf("%s: want %q in\n%s", q, want, plan)
		}
	}
	expectSeq := func(q string) {
		t.Helper()
		if plan := check(q); strings.Contains(plan, "Index Scan") {
			t.Errorf("%s: planned an Index Scan:\n%s", q, plan)
		}
	}

	for _, col := range []string{"id", "a", "b"} {
		for _, lit := range accessPathLiterals(col) {
			cond := fmt.Sprintf("P.%s = %d", col, lit)
			expectIndex("SELECT P.id, P.a, P.b, P.w FROM P WHERE "+cond, cond)
			swapped := fmt.Sprintf("%d = P.%s", lit, col)
			expectIndex("SELECT P.w, P.id FROM P WHERE "+swapped, swapped)
		}
	}

	// Several eligible conjuncts: fewest estimated rows wins (a has 997
	// distinct values, b 51), the first written on a tie; the rest filter.
	expectIndex("SELECT P.id FROM P WHERE P.b = -1899997 AND P.a = 1", "P.a = 1")
	expectIndex("SELECT P.id FROM P WHERE P.a = 1 AND P.b = -1899997", "P.a = 1")
	expectIndex("SELECT P.id FROM P WHERE P.id = 5 AND P.id = 7", "P.id = 5")
	expectIndex("SELECT P.id FROM P WHERE P.id = 7 AND P.id = 5", "P.id = 7")
	plan := check("SELECT P.id, P.w FROM P WHERE P.a = 1 AND P.w > 0.5")
	if !strings.Contains(plan, "Filter (P.w > 0.5)") || !strings.Contains(plan, "Index Scan on P (P.a = 1)") {
		t.Errorf("a = 1 AND w > 0.5:\n%s", plan)
	}

	// A join the indexed table leads (two tables keep syntactic order).
	expectIndex("SELECT P.id, Q.a FROM P JOIN Q ON P.a = Q.k WHERE P.b = -1799994", "P.b = -1799994")
	expectIndex("SELECT P.id, Q.a FROM P JOIN Q ON P.a = Q.k AND P.id = 12", "P.id = 12")
	expectSeq("SELECT P.id, Q.a FROM Q JOIN P ON P.a = Q.k WHERE P.b = -1799994")

	// No Index Scan: not an INT equality to an integer, a table of one
	// morsel or less, or a literal on the probe side of a join.
	for _, q := range []string{
		"SELECT P.id FROM P WHERE P.a > 3",
		"SELECT P.id FROM P WHERE P.a <> 3",
		"SELECT P.id FROM P WHERE P.a = 1.5",
		"SELECT P.id FROM P WHERE P.a = P.b",
		"SELECT P.id FROM P WHERE P.w = 1",
		"SELECT P.id FROM P WHERE P.b IS NULL",
		"SELECT Q.a FROM Q WHERE Q.k = 3",
		"SELECT E4096.v FROM E4096 WHERE E4096.v = 3",
	} {
		expectSeq(q)
	}
	plan = check("SELECT E4097.v FROM E4097 WHERE E4097.v = 3")
	if !strings.Contains(plan, "Index Scan on E4097 (E4097.v = 3)  (rows=41 ") {
		t.Errorf("one row over a morsel:\n%s", plan)
	}

	// A column name both tables have is ambiguous, with or without an
	// index on the leading one.
	for _, db := range []*DB{opt, seq} {
		if _, err := db.Query("SELECT P.id FROM P JOIN Q ON P.a = Q.k WHERE a = 3"); err == nil {
			t.Error("an ambiguous column resolved")
		}
	}
}

// TestIndexScanReadsTheCatalogIndex: the planner asks the catalog, so
// one index per column serves every plan.
func TestIndexScanReadsTheCatalogIndex(t *testing.T) {
	cat := accessPathCatalog()
	db := NewDB(cat)
	const q = "SELECT P.id FROM P WHERE P.a = 5"
	if out, err := db.Query(q); err != nil || out.NumRows() == 0 {
		t.Fatalf("%v, %v", out, err)
	}
	ix, err := cat.Index("P", 1)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := cat.Index("P", 1); again != ix {
		t.Fatal("the catalog built a second index on P.a")
	}
}
