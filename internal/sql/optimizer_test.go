package sql

import (
	"math/rand"
	"testing"

	"probkb/internal/engine"
)

func seededRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// optimizerCatalog builds a three-table chain Big—Mid—Tiny where the
// syntactic order (Big first) is maximally wasteful and the right plan
// starts from Tiny.
func optimizerCatalog() *engine.Catalog {
	big := engine.NewTable("Big", engine.NewSchema(engine.C("k", engine.Int32), engine.C("v", engine.Int32)))
	for i := 0; i < 5000; i++ {
		big.AppendRow(int32(i%500), int32(i))
	}
	mid := engine.NewTable("Mid", engine.NewSchema(engine.C("k", engine.Int32), engine.C("m", engine.Int32)))
	for i := 0; i < 500; i++ {
		mid.AppendRow(int32(i), int32(i%50))
	}
	tiny := engine.NewTable("Tiny", engine.NewSchema(engine.C("m", engine.Int32)))
	for i := 0; i < 3; i++ {
		tiny.AppendRow(int32(i))
	}
	return engine.NewCatalog([]*engine.Table{big, mid, tiny}, nil)
}

const chainQuery = `
	SELECT Big.v FROM Big
	JOIN Mid ON Big.k = Mid.k
	JOIN Tiny ON Mid.m = Tiny.m`

// totalIntermediateRows sums the row counts of every join node in a plan
// after running it.
func totalIntermediateRows(t *testing.T, plan engine.Node) int {
	t.Helper()
	if _, err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	var walk func(n engine.Node)
	walk = func(n engine.Node) {
		if _, ok := n.(*engine.HashJoinNode); ok {
			total += n.Stats().Rows
		}
		for _, k := range n.Children() {
			walk(k)
		}
	}
	walk(plan)
	return total
}

func TestOptimizerReordersJoins(t *testing.T) {
	cat := optimizerCatalog()

	naive := NewDB(cat)
	naive.SetOptimize(false)
	naivePlan, err := naive.Plan(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewDB(cat)
	optPlan, err := opt.Plan(chainQuery)
	if err != nil {
		t.Fatal(err)
	}

	naiveRows := totalIntermediateRows(t, naivePlan)
	optRows := totalIntermediateRows(t, optPlan)
	if optRows >= naiveRows {
		t.Fatalf("optimizer did not shrink intermediates: %d vs naive %d", optRows, naiveRows)
	}

	// Both orders return the same result multiset.
	nRes, err := naive.Query(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	oRes, err := opt.Query(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if nRes.NumRows() != oRes.NumRows() {
		t.Fatalf("result sizes differ: %d vs %d", nRes.NumRows(), oRes.NumRows())
	}
	count := func(tab *engine.Table) map[int32]int {
		m := map[int32]int{}
		for r := 0; r < tab.NumRows(); r++ {
			m[tab.Int32Col(0)[r]]++
		}
		return m
	}
	nm, om := count(nRes), count(oRes)
	for k, v := range nm {
		if om[k] != v {
			t.Fatalf("result multisets differ at %d: %d vs %d", k, v, om[k])
		}
	}
}

func TestOptimizerUsesLiteralSelectivity(t *testing.T) {
	// A selective literal predicate makes Big the cheapest start despite
	// its size — v = const keeps one row.
	cat := optimizerCatalog()
	db := NewDB(cat)
	q := `
		SELECT Big.v FROM Tiny
		JOIN Mid ON Mid.m = Tiny.m
		JOIN Big ON Big.k = Mid.k
		WHERE Big.v = 42`
	out, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() > 1 {
		t.Fatalf("selective query returned %d rows", out.NumRows())
	}
}

func TestOptimizerCrossJoinFallback(t *testing.T) {
	// Disconnected tables still plan (cross product) under the optimizer.
	cat := optimizerCatalog()
	db := NewDB(cat)
	out, err := db.Query("SELECT Tiny.m FROM Tiny JOIN Mid ON Mid.m = Mid.m")
	if err != nil {
		t.Fatal(err)
	}
	// Mid.m = Mid.m is a tautology over non-null values: full cross
	// product 3 × 500.
	if out.NumRows() != 1500 {
		t.Fatalf("cross join rows = %d, want 1500", out.NumRows())
	}
}

// TestOptimizerInvariance: on random chain joins over random tables, the
// optimized and syntactic plans return identical result multisets.
func TestOptimizerInvariance(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := seededRng(seed)
		var tables []*engine.Table
		for _, name := range []string{"A", "B", "C"} {
			tab := engine.NewTable(name, engine.NewSchema(
				engine.C("k", engine.Int32), engine.C("v", engine.Int32)))
			n := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				tab.AppendRow(rng.Int31n(6), rng.Int31n(6))
			}
			tables = append(tables, tab)
		}
		cat := engine.NewCatalog(tables, nil)
		q := "SELECT A.v FROM A JOIN B ON A.k = B.k JOIN C ON B.v = C.v"
		if rng.Intn(2) == 0 {
			q += " WHERE A.v < 4"
		}

		naive := NewDB(cat)
		naive.SetOptimize(false)
		nRes, err := naive.Query(q)
		if err != nil {
			t.Fatalf("seed %d naive: %v", seed, err)
		}
		opt := NewDB(cat)
		oRes, err := opt.Query(q)
		if err != nil {
			t.Fatalf("seed %d optimized: %v", seed, err)
		}
		if nRes.NumRows() != oRes.NumRows() {
			t.Fatalf("seed %d: result sizes differ: %d vs %d", seed, nRes.NumRows(), oRes.NumRows())
		}
		nm := map[int32]int{}
		om := map[int32]int{}
		for r := 0; r < nRes.NumRows(); r++ {
			nm[nRes.Int32Col(0)[r]]++
			om[oRes.Int32Col(0)[r]]++
		}
		for k, v := range nm {
			if om[k] != v {
				t.Fatalf("seed %d: multisets differ at %d", seed, k)
			}
		}
	}
}

func TestAnalyzeStats(t *testing.T) {
	tab := engine.NewTable("T", engine.NewSchema(
		engine.C("a", engine.Int32), engine.C("w", engine.Float64), engine.C("s", engine.String)))
	tab.AppendRow(1, 0.5, "x")
	tab.AppendRow(1, engine.NullFloat64(), "y")
	tab.AppendRow(engine.NullInt32, 0.5, "x")
	st := engine.Analyze(tab)
	if st.Rows != 3 {
		t.Fatalf("rows = %d", st.Rows)
	}
	if st.Cols[0].Distinct != 2 || st.Cols[0].Nulls != 1 {
		t.Fatalf("int col stats = %+v", st.Cols[0])
	}
	if st.Cols[1].Distinct != 2 || st.Cols[1].Nulls != 1 {
		t.Fatalf("float col stats = %+v", st.Cols[1])
	}
	if st.Cols[2].Distinct != 2 {
		t.Fatalf("string col stats = %+v", st.Cols[2])
	}
	if st.DistinctOf(99) != 3 || st.DistinctOf(0) != 2 {
		t.Fatal("DistinctOf bounds wrong")
	}
}

func TestStatsCacheInvalidation(t *testing.T) {
	cat := optimizerCatalog()
	st1, err := cat.Stats("Tiny")
	if err != nil || st1.Rows != 3 {
		t.Fatalf("stats = %+v, %v", st1, err)
	}
	// Gathered once: every later plan gets the same object.
	if st, _ := cat.Stats("Tiny"); st != st1 {
		t.Fatal("stats not kept with the table")
	}
}
