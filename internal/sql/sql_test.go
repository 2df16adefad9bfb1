package sql

import (
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// paperCatalog loads the Table 1 example KB into a catalog under the
// names the paper's queries use: T (facts), M1/M3 (MLN partitions), FC
// (functional constraints).
func paperCatalog(t *testing.T) (*engine.Catalog, *kb.KB) {
	t.Helper()
	k := paperKB(t)
	return factsCatalog(t, k, k.FactsTable()), k
}

// paperKB is the Table 1 example KB with its four rules and a Type I
// constraint on born_in.
func paperKB(t *testing.T) *kb.KB {
	t.Helper()
	k := kb.New()
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	for _, line := range []string{
		"1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)",
		"1.53 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)",
		"0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x:Place), live_in(z, y:City)",
		"0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)",
	} {
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: bornIn, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	return k
}

// factsCatalog is the catalog of facts, as T, beside k's MLN partitions
// and FC.
func factsCatalog(t *testing.T, k *kb.KB, facts *engine.Table) *engine.Catalog {
	t.Helper()
	parts, err := k.MLNPartitions()
	if err != nil {
		t.Fatal(err)
	}
	tables := []*engine.Table{facts, k.ConstraintsTable()}
	for i := mln.P1; i <= mln.P6; i++ {
		tables = append(tables, parts.Table(i))
	}
	return engine.NewCatalog(tables, nil)
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a.b, COUNT(*) FROM t WHERE x >= 1.5e2 AND s = 'hi';")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
	// Spot checks.
	if toks[0].text != "SELECT" || toks[1].text != "a" || toks[2].text != "." {
		t.Fatalf("tokens: %+v", toks[:4])
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Fatal("bad character accepted")
	}
	_ = kinds
}

func TestParseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT M1.R1 AS R, T.x AS x FROM M1 JOIN T ON M1.R2 = T.R WHERE T.w > 0.5",
		"SELECT DISTINCT T.x, T.C1 FROM T JOIN FC ON T.R = FC.R WHERE FC.arg = 1 GROUP BY T.R, T.x, T.C1, T.C2 HAVING COUNT(*) > MIN(FC.deg)",
		"SELECT COUNT(DISTINCT T.y) AS n FROM T GROUP BY T.x",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse %q: %v", text, err)
		}
		if again.String() != text {
			t.Fatalf("round trip unstable: %q vs %q", text, again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT",
		"SELECT x FROM",
		"SELECT x FROM t JOIN u",  // missing ON
		"SELECT x FROM t WHERE",   // missing condition
		"SELECT x FROM t GROUP x", // missing BY
		"SELECT x FROM t trailing junk (",
		"SELECT COUNT(x) FROM t",      // COUNT needs * or DISTINCT
		"DELETE FROM t WHERE t.x = 1", // the dialect is SELECT only
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

// TestPaperQuery11 runs the paper's Query 1-1 verbatim (Figure 3): apply
// every M1 rule with one join.
func TestPaperQuery11(t *testing.T) {
	cat, k := paperCatalog(t)
	db := NewDB(cat)
	out, err := db.Query(`
		SELECT M1.R1 AS R, T.x AS x, T.C1 AS C1, T.y AS y, T.C2 AS C2
		FROM M1 JOIN T ON M1.R2 = T.R AND M1.C1 = T.C1 AND M1.C2 = T.C2`)
	if err != nil {
		t.Fatal(err)
	}
	// Both born_in facts fire their matching live_in rule: 2 rows.
	if out.NumRows() != 2 {
		t.Fatalf("Query 1-1 rows = %d, want 2:\n%s", out.NumRows(), out)
	}
	liveIn, _ := k.RelDict.Lookup("live_in")
	for r := 0; r < out.NumRows(); r++ {
		if out.Int32Col(0)[r] != liveIn {
			t.Fatalf("derived head relation wrong:\n%s", out)
		}
	}
}

// TestPaperQuery13 runs Query 1-3 verbatim: the two-way self-join of T
// against M3, with the WHERE T2.x = T3.x entity check becoming a hash key.
func TestPaperQuery13(t *testing.T) {
	cat, k := paperCatalog(t)
	db := NewDB(cat)
	query := `
		SELECT M3.R1 AS R, T2.y AS x, T2.C2 AS C1, T3.y AS y, T3.C2 AS C2
		FROM M3 JOIN T T2 ON M3.R2 = T2.R AND M3.C3 = T2.C1 AND M3.C1 = T2.C2
		        JOIN T T3 ON M3.R3 = T3.R AND M3.C3 = T3.C1 AND M3.C2 = T3.C2
		WHERE T2.x = T3.x`
	out, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	// Only the born_in-pair rule fires on the base facts:
	// located_in(Brooklyn, New_York_City).
	if out.NumRows() != 1 {
		t.Fatalf("Query 1-3 rows = %d, want 1:\n%s", out.NumRows(), out)
	}
	locatedIn, _ := k.RelDict.Lookup("located_in")
	brooklyn, _ := k.Entities.Lookup("Brooklyn")
	nyc, _ := k.Entities.Lookup("New_York_City")
	if out.Int32Col(0)[0] != locatedIn || out.Int32Col(1)[0] != brooklyn || out.Int32Col(3)[0] != nyc {
		t.Fatalf("Query 1-3 result wrong:\n%s", out)
	}

	// The planner must have turned T2.x = T3.x into a join key, not a
	// post-filter: the explain output shows no Filter node for it.
	exp, err := db.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp, "Filter (T2.x = T3.x)") {
		t.Fatalf("entity check left as a post-filter:\n%s", exp)
	}
	if !strings.Contains(exp, "Hash Join") {
		t.Fatalf("no hash join in plan:\n%s", exp)
	}
}

// TestPaperQuery23 runs Query 2-3 verbatim: ground factors with IDs.
func TestPaperQuery23(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	// Against the base facts the head (located_in) does not exist yet, so
	// the factor join returns nothing — exactly the reason Algorithm 1
	// computes the closure before groundFactors.
	out, err := db.Query(`
		SELECT T1.I AS I1, T2.I AS I2, T3.I AS I3, M3.w AS w
		FROM M3 JOIN T T1 ON M3.R1 = T1.R AND M3.C1 = T1.C1 AND M3.C2 = T1.C2
		        JOIN T T2 ON M3.R2 = T2.R AND M3.C3 = T2.C1 AND M3.C1 = T2.C2
		        JOIN T T3 ON M3.R3 = T3.R AND M3.C3 = T3.C1 AND M3.C2 = T3.C2
		WHERE T1.x = T2.y AND T1.y = T3.y AND T2.x = T3.x`)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("factors before closure = %d rows, want 0", out.NumRows())
	}
}

// TestPaperQuery23AfterClosure grounds the KB first (so heads exist),
// then checks the SQL factor query produces exactly the grounder's M3
// factors — the SQL text and the hand-built plan are the same program.
func TestPaperQuery23AfterClosure(t *testing.T) {
	k := paperKB(t)
	res, err := ground.Ground(k, ground.Options{})
	if err != nil {
		t.Fatal(err)
	}
	closure := res.Facts.Clone()
	closure.SetName("T") // the closed set stands in for the base facts

	db := NewDB(factsCatalog(t, k, closure))
	out, err := db.Query(`
		SELECT T1.I AS I1, T2.I AS I2, T3.I AS I3, M3.w AS w
		FROM M3 JOIN T T1 ON M3.R1 = T1.R AND M3.C1 = T1.C1 AND M3.C2 = T1.C2
		        JOIN T T2 ON M3.R2 = T2.R AND M3.C3 = T2.C1 AND M3.C1 = T2.C2
		        JOIN T T3 ON M3.R3 = T3.R AND M3.C3 = T3.C1 AND M3.C2 = T3.C2
		WHERE T1.x = T2.y AND T1.y = T3.y AND T2.x = T3.x`)
	if err != nil {
		t.Fatal(err)
	}
	// The grounder produced two M3 factors (live_in pair, born_in pair).
	if out.NumRows() != 2 {
		t.Fatalf("SQL factor rows = %d, want 2:\n%s", out.NumRows(), out)
	}
	// Each SQL row matches a grounder factor row exactly.
	type frow struct {
		i1, i2, i3 int32
		w          float64
	}
	want := map[frow]bool{}
	for r := 0; r < res.Factors.NumRows(); r++ {
		i3 := res.Factors.Int32Col(ground.TPhiI3)[r]
		if i3 == engine.NullInt32 {
			continue // singleton or M1 factor
		}
		want[frow{
			res.Factors.Int32Col(ground.TPhiI1)[r],
			res.Factors.Int32Col(ground.TPhiI2)[r],
			i3,
			res.Factors.Float64Col(ground.TPhiW)[r],
		}] = true
	}
	for r := 0; r < out.NumRows(); r++ {
		got := frow{out.Int32Col(0)[r], out.Int32Col(1)[r], out.Int32Col(2)[r], out.Float64Col(3)[r]}
		if !want[got] {
			t.Fatalf("SQL factor %+v not among grounder factors %v", got, want)
		}
	}
}

// TestPaperQuery3 is the differential between the paper's text of
// applyConstraints and the engine plan quality.Checker runs for it: on
// the synthetic corpus's relational image, Query 3's violator subquery
// and its Type II mirror name exactly the (type, entity, class) triples
// of the checker's violations.
func TestPaperQuery3(t *testing.T) {
	// The violator subquery verbatim (Type I: a subject with more
	// partners than the constraint's degree allows) and its Type II
	// mirror over the object, keyed by FC.arg.
	violators := map[int]string{
		kb.TypeI: `
			SELECT DISTINCT T.x, T.C1
			FROM T JOIN FC ON T.R = FC.R
			WHERE FC.arg = 1
			GROUP BY T.R, T.x, T.C1, T.C2
			HAVING COUNT(*) > MIN(FC.deg)`,
		kb.TypeII: `
			SELECT DISTINCT T.y, T.C2
			FROM T JOIN FC ON T.R = FC.R
			WHERE FC.arg = 2
			GROUP BY T.R, T.y, T.C1, T.C2
			HAVING COUNT(*) > MIN(FC.deg)`,
	}
	type violator struct {
		typ      int
		ent, cls int32
	}
	for _, scale := range []float64{0.05, 0.25} {
		c, err := synth.ReVerbSherlock(scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		k := c.KB
		want := map[violator]bool{}
		for _, v := range quality.NewChecker(k).Violations(k.FactsTable()) {
			want[violator{v.Type, v.Entity, v.Class}] = true
		}
		got := map[violator]bool{}
		db := NewDB(k.Catalog())
		for typ, q := range violators {
			out, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < out.NumRows(); r++ {
				got[violator{typ, out.Int32Col(0)[r], out.Int32Col(1)[r]}] = true
			}
		}
		if len(want) == 0 {
			t.Fatalf("scale %g: no violators to compare", scale)
		}
		var missing, extra []violator
		for v := range want {
			if !got[v] {
				missing = append(missing, v)
			}
		}
		for v := range got {
			if !want[v] {
				extra = append(extra, v)
			}
		}
		if len(missing) > 0 || len(extra) > 0 {
			t.Errorf("scale %g: of the checker's %d violators Query 3 misses %d (%v) and adds %d (%v)",
				scale, len(want), len(missing), missing[:min(3, len(missing))], len(extra), extra[:min(3, len(extra))])
		}
		t.Logf("scale %g: %d violators", scale, len(want))
	}
}

func TestGroupByAndHaving(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	out, err := db.Query(`
		SELECT T.x, COUNT(*) AS n, COUNT(DISTINCT T.y) AS ny, MIN(T.w) AS mn, MAX(T.w) AS mx, SUM(T.w) AS sm
		FROM T GROUP BY T.x`)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 { // one subject: Ruth_Gruber
		t.Fatalf("groups = %d:\n%s", out.NumRows(), out)
	}
	if out.Int32Col(1)[0] != 2 || out.Int32Col(2)[0] != 2 {
		t.Fatalf("counts wrong:\n%s", out)
	}
	if out.Float64Col(3)[0] != 0.93 || out.Float64Col(4)[0] != 0.96 {
		t.Fatalf("min/max wrong:\n%s", out)
	}
	if diff := out.Float64Col(5)[0] - 1.89; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum wrong:\n%s", out)
	}
}

func TestWhereLiteralsAndNulls(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	out, err := db.Query("SELECT T.I FROM T WHERE T.w > 0.95")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("w > 0.95 rows = %d:\n%s", out.NumRows(), out)
	}
	// NULL handling: add an inferred (NULL-weight) fact.
	facts := cat.MustGet("T")
	facts.AppendRow(99, 0, 0, 0, 0, 0, engine.NullFloat64())
	if out, err = db.Query("SELECT T.I FROM T WHERE T.w IS NULL"); err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Int32Col(0)[0] != 99 {
		t.Fatalf("IS NULL rows:\n%s", out)
	}
	if out, err = db.Query("SELECT T.I FROM T WHERE T.w IS NOT NULL"); err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("IS NOT NULL rows = %d", out.NumRows())
	}
	// Comparisons against NULL are never true.
	if out, err = db.Query("SELECT T.I FROM T WHERE T.w > 0"); err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("NULL compared true: %d rows", out.NumRows())
	}
}

func TestSelectLiteralsAndNullProjection(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	out, err := db.Query("SELECT T.I, 7 AS seven, NULL AS w2, 'tag' AS tag FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Cols[1].Type != engine.Float64 || out.Float64Col(1)[0] != 7 {
		t.Fatalf("numeric literal wrong:\n%s", out)
	}
	if !engine.IsNullFloat64(out.Float64Col(2)[0]) {
		t.Fatal("NULL projection wrong")
	}
	if out.StringCol(3)[0] != "tag" {
		t.Fatal("string literal wrong")
	}
}

func TestStringComparison(t *testing.T) {
	tab := engine.NewTable("D", engine.NewSchema(engine.C("id", engine.Int32), engine.C("name", engine.String)))
	tab.AppendRow(1, "kale")
	tab.AppendRow(2, "calcium")
	db := NewDB(engine.NewCatalog([]*engine.Table{tab}, nil))
	out, err := db.Query("SELECT D.id FROM D WHERE D.name = 'kale'")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Int32Col(0)[0] != 1 {
		t.Fatalf("string filter wrong:\n%s", out)
	}
	if _, err := db.Query("SELECT D.id FROM D WHERE D.name > 'a'"); err == nil {
		t.Fatal("string ordering comparison accepted")
	}
}

func TestCrossJoin(t *testing.T) {
	a := engine.NewTable("A", engine.NewSchema(engine.C("x", engine.Int32)))
	a.AppendRow(1)
	a.AppendRow(2)
	b := engine.NewTable("B", engine.NewSchema(engine.C("y", engine.Int32)))
	b.AppendRow(10)
	b.AppendRow(20)
	db := NewDB(engine.NewCatalog([]*engine.Table{a, b}, nil))
	// No usable key equality: the planner falls back to a cross product
	// with the ON condition as a post-filter.
	out, err := db.Query("SELECT A.x, B.y FROM A JOIN B ON A.x < B.y")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Fatalf("cross join with filter rows = %d, want 4", out.NumRows())
	}
}

func TestPlannerErrors(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	bad := []string{
		"SELECT T.nope FROM T",                              // unknown column
		"SELECT x FROM NoSuchTable",                         // unknown table
		"SELECT T.I FROM T JOIN T ON T.I = T.I",             // duplicate binding
		"SELECT C1 FROM T T2 JOIN T T3 ON T2.R = T3.R",      // unqualified ambiguous
		"SELECT T.I FROM T HAVING COUNT(*) > 1 AND T.I = 1", // non-agg HAVING ref unresolvable post-group
		"SELECT DISTINCT T.w FROM T",                        // DISTINCT over float
		"SELECT T.I FROM T WHERE U.x = 1",                   // unresolvable condition
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
	if _, err := db.Query("DELETE FROM T WHERE T.I = 1"); err == nil {
		t.Error("Query of DELETE accepted")
	}
}

// TestSQLAgreesWithGrounderQuery: the SQL Query 1-1 must produce exactly
// the candidate atoms the grounding engine's hand-built plan produces.
func TestSQLAgreesWithGrounderQuery(t *testing.T) {
	cat, k := paperCatalog(t)
	db := NewDB(cat)
	out, err := db.Query(`
		SELECT M1.R1 AS R, T.x AS x, T.C1 AS C1, T.y AS y, T.C2 AS C2
		FROM M1 JOIN T ON M1.R2 = T.R AND M1.C1 = T.C1 AND M1.C2 = T.C2`)
	if err != nil {
		t.Fatal(err)
	}
	// The grounder's first iteration over M1 infers exactly these facts.
	liveIn, _ := k.RelDict.Lookup("live_in")
	seen := map[[5]int32]bool{}
	for r := 0; r < out.NumRows(); r++ {
		seen[[5]int32{
			out.Int32Col(0)[r], out.Int32Col(1)[r], out.Int32Col(2)[r],
			out.Int32Col(3)[r], out.Int32Col(4)[r],
		}] = true
	}
	rg, _ := k.Entities.Lookup("Ruth_Gruber")
	nyc, _ := k.Entities.Lookup("New_York_City")
	br, _ := k.Entities.Lookup("Brooklyn")
	writer, _ := k.Classes.Lookup("Writer")
	city, _ := k.Classes.Lookup("City")
	place, _ := k.Classes.Lookup("Place")
	for _, want := range [][5]int32{
		{liveIn, rg, writer, nyc, city},
		{liveIn, rg, writer, br, place},
	} {
		if !seen[want] {
			t.Fatalf("missing inferred atom %v in:\n%s", want, out)
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	out, err := db.Query("SELECT T.I AS id, T.w AS w FROM T ORDER BY w DESC")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Float64Col(1)[0] != 0.96 || out.Float64Col(1)[1] != 0.93 {
		t.Fatalf("ORDER BY DESC wrong:\n%s", out)
	}
	out2, err := db.Query("SELECT T.I AS id FROM T ORDER BY id ASC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if out2.NumRows() != 1 || out2.Int32Col(0)[0] != 0 {
		t.Fatalf("LIMIT wrong:\n%s", out2)
	}
	// NULLs sort last ascending.
	facts := cat.MustGet("T")
	facts.AppendRow(7, 0, 0, 0, 0, 0, engine.NullFloat64())
	out3, err := db.Query("SELECT T.I AS id, T.w AS w FROM T ORDER BY w")
	if err != nil {
		t.Fatal(err)
	}
	if out3.Int32Col(0)[out3.NumRows()-1] != 7 {
		t.Fatalf("NULL should sort last:\n%s", out3)
	}
	// Errors.
	for _, q := range []string{
		"SELECT T.I FROM T ORDER BY nope",
		"SELECT T.I FROM T ORDER BY T.I", // qualified: output names only
		"SELECT T.I FROM T LIMIT -1",
		"SELECT T.I FROM T LIMIT x",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
	// Round trip.
	stmt, err := Parse("SELECT T.I AS id FROM T ORDER BY id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.String(); !strings.Contains(got, "ORDER BY id DESC LIMIT 3") {
		t.Fatalf("round trip: %q", got)
	}
}

func TestExplainOutput(t *testing.T) {
	cat, _ := paperCatalog(t)
	db := NewDB(cat)
	exp, err := db.Explain("SELECT T.I FROM T WHERE T.w > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Seq Scan on T", "Filter", "Project", "rows="} {
		if !strings.Contains(exp, want) {
			t.Fatalf("explain missing %q:\n%s", want, exp)
		}
	}
}

// TestInt32ComparisonRecognition pins which conditions take the typed
// filter: an INT column against an integer literal an INT cell can hold,
// either way round; everything else keeps the float64 predicate.
func TestInt32ComparisonRecognition(t *testing.T) {
	cat, _ := paperCatalog(t)
	sc := scopeOf("T", cat.MustGet("T"))
	parse := func(where string) Condition {
		stmt, err := Parse("SELECT T.I FROM T WHERE " + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return stmt.Where[0]
	}
	typed := []struct {
		where string
		col   int
		op    engine.CmpOp
		lit   int32
	}{
		{"T.x = 7", kb.TPiX, engine.CmpEq, 7},
		{"7 = T.x", kb.TPiX, engine.CmpEq, 7},
		{"T.I <> 0", kb.TPiI, engine.CmpNe, 0},
		{"T.R < -3", kb.TPiR, engine.CmpLt, -3},
		{"3 < T.R", kb.TPiR, engine.CmpGt, 3},
		{"3 >= T.R", kb.TPiR, engine.CmpLe, 3},
		{"T.y >= 2.0", kb.TPiY, engine.CmpGe, 2},
		{"T.y <= 2147483647", kb.TPiY, engine.CmpLe, 2147483647},
	}
	for _, c := range typed {
		col, op, lit, ok := int32Comparison(parse(c.where), sc)
		if !ok || col != c.col || op != c.op || lit != c.lit {
			t.Errorf("%s: got (col %d, op %03b, lit %d, %v)", c.where, col, op, lit, ok)
		}
	}
	for _, where := range []string{
		"T.x = 1.5",         // not an integer
		"T.x < 2147483648",  // beyond INT
		"T.x > -2147483648", // the NULL sentinel
		"T.w = 1",           // a FLOAT column
		"T.x = T.y",         // no literal
		"T.x IS NULL",       // not a comparison
		"T.x IS NOT NULL",   //
		"1 = 1",             // no column
		"T.x = NULL",        // NULL literal
		"T.nosuch = 1",      // unresolvable: the general path reports it
	} {
		if _, _, _, ok := int32Comparison(parse(where), sc); ok {
			t.Errorf("%s: took the typed path", where)
		}
	}
}

// TestTypedAndGeneralFiltersAgree: each statement pair differs only in
// whether its literal is spelled so that the typed filter applies; rows
// and EXPLAIN shape must not care.
func TestTypedAndGeneralFiltersAgree(t *testing.T) {
	tab := engine.NewTable("N", engine.NewSchema(engine.C("v", engine.Int32), engine.C("w", engine.Float64)))
	for i := -20; i < 20; i++ {
		tab.AppendRow(int32(i), float64(i)/2)
	}
	tab.AppendRow(engine.NullInt32, 0.0)
	db := NewDB(engine.NewCatalog([]*engine.Table{tab}, nil))
	for _, pair := range [][2]string{
		{"N.v > 3", "N.v > 3.5"}, // over integers, the same rows
		{"N.v <= 3", "N.v < 3.5"},
		{"4 <= N.v", "N.v > 3.5"},
		{"N.v <> -5", "N.v <> -5 AND N.v > -2147483648"},
		{"N.v = 12", "N.v > 11.5 AND N.v < 12.5"},
	} {
		a, err := db.Query("SELECT N.v FROM N WHERE " + pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.Query("SELECT N.v FROM N WHERE " + pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() || a.NumRows() == 0 {
			t.Errorf("%q kept\n%s\n%q kept\n%s", pair[0], a, pair[1], b)
		}
	}
	plan, err := db.Explain("SELECT N.v FROM N WHERE N.v = 12")
	if err != nil || !strings.Contains(plan, "Filter (N.v = 12)  (rows=1 ") {
		t.Fatalf("typed filter's EXPLAIN line: %v\n%s", err, plan)
	}
}
