package factor

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
)

// paperGraph grounds the Table 1 example and builds its factor graph.
func paperGraph(t *testing.T) (*Graph, *kb.KB, *ground.Result) {
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
	res, err := ground.Ground(k, ground.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return g, k, res
}

// findFact returns the fact ID for a relation name in the result table,
// failing if not exactly one matches.
func findFact(t *testing.T, k *kb.KB, res *ground.Result, rel string) int32 {
	t.Helper()
	relID, ok := k.RelDict.Lookup(rel)
	if !ok {
		t.Fatalf("unknown relation %s", rel)
	}
	var found []int32
	rels := res.Facts.Int32Col(kb.TPiR)
	ids := res.Facts.Int32Col(kb.TPiI)
	for r := 0; r < res.Facts.NumRows(); r++ {
		if rels[r] == relID {
			found = append(found, ids[r])
		}
	}
	if len(found) != 1 {
		t.Fatalf("relation %s has %d facts, want 1", rel, len(found))
	}
	return found[0]
}

func TestGraphFromPaperExample(t *testing.T) {
	g, _, _ := paperGraph(t)
	st := g.Stats()
	if st.Vars != 5 {
		t.Fatalf("vars = %d, want 5", st.Vars)
	}
	if st.Factors != 6 {
		t.Fatalf("factors = %d, want 6", st.Factors)
	}
	if st.Singletons != 2 {
		t.Fatalf("singletons = %d, want 2", st.Singletons)
	}
	if st.MaxDegree < 3 {
		t.Fatalf("max degree = %d; born_in facts participate in 3+ factors", st.MaxDegree)
	}
	if st.AvgDegree <= 0 {
		t.Fatal("avg degree should be positive")
	}
}

func TestLineage(t *testing.T) {
	g, k, res := paperGraph(t)
	located := findFact(t, k, res, "located_in")
	derivs := g.Lineage(located)
	// located_in is derivable from the live_in pair (w=0.32) and the
	// born_in pair (w=0.52).
	if len(derivs) != 2 {
		t.Fatalf("lineage size = %d, want 2", len(derivs))
	}
	for _, f := range derivs {
		if f.Head != located || len(f.Body) != 2 {
			t.Fatalf("bad derivation %+v", f)
		}
	}
	// A base fact has no derivations.
	bornRel, _ := k.RelDict.Lookup("born_in")
	rels := res.Facts.Int32Col(kb.TPiR)
	for r := 0; r < res.Facts.NumRows(); r++ {
		if rels[r] == bornRel {
			if len(g.Lineage(res.Facts.Int32Col(kb.TPiI)[r])) != 0 {
				t.Fatal("base fact has derivations")
			}
		}
	}
}

func TestExplain(t *testing.T) {
	g, k, res := paperGraph(t)
	located := findFact(t, k, res, "located_in")
	name := func(v int32) string {
		for r := 0; r < res.Facts.NumRows(); r++ {
			if res.Facts.Int32Col(kb.TPiI)[r] == v {
				return k.FactString(kb.FactAtRow(res.Facts, r))
			}
		}
		return "?"
	}
	out := g.Explain(located, 3, name)
	if !strings.Contains(out, "located_in") || !strings.Contains(out, "born_in") {
		t.Fatalf("explain output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "derived by 2 rule application(s)") {
		t.Fatalf("explain should show both derivations:\n%s", out)
	}
	// Depth 0 prints just the fact.
	if got := g.Explain(located, 0, name); strings.Contains(got, "derived") {
		t.Fatalf("depth-0 explain should not recurse:\n%s", got)
	}
}

func TestSatisfiedSemantics(t *testing.T) {
	// Clause factor: head ← b1, b2.
	f := Factor{Head: 0, Body: []int32{1, 2}, W: 1}
	cases := []struct {
		assign []bool
		want   bool
	}{
		{[]bool{false, true, true}, false}, // body true, head false: violated
		{[]bool{true, true, true}, true},
		{[]bool{false, false, true}, true}, // body not satisfied
		{[]bool{false, true, false}, true},
		{[]bool{true, false, false}, true},
	}
	for _, tc := range cases {
		if got := f.Satisfied(tc.assign); got != tc.want {
			t.Errorf("Satisfied(%v) = %v, want %v", tc.assign, got, tc.want)
		}
	}
	s := Factor{Head: 0, W: 0.9}
	if s.Satisfied([]bool{false}) || !s.Satisfied([]bool{true}) {
		t.Fatal("singleton satisfaction wrong")
	}
}

func TestLogScore(t *testing.T) {
	g, _, _ := paperGraph(t)
	allTrue := make([]bool, g.NumVars())
	for i := range allTrue {
		allTrue[i] = true
	}
	allFalse := make([]bool, g.NumVars())
	// All-true satisfies every factor: score = sum of all weights.
	wantTrue := 0.96 + 0.93 + 1.40 + 1.53 + 0.32 + 0.52
	if got := g.LogScore(allTrue); mathAbs(got-wantTrue) > 1e-9 {
		t.Fatalf("LogScore(all true) = %v, want %v", got, wantTrue)
	}
	// All-false satisfies every clause factor (empty body never true ...
	// body false) but no singleton.
	wantFalse := 1.40 + 1.53 + 0.32 + 0.52
	if got := g.LogScore(allFalse); mathAbs(got-wantFalse) > 1e-9 {
		t.Fatalf("LogScore(all false) = %v, want %v", got, wantFalse)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestNeighbors(t *testing.T) {
	g, k, res := paperGraph(t)
	located := findFact(t, k, res, "located_in")
	nb := g.Neighbors(located)
	// located_in shares factors with both live_in facts and both born_in
	// facts: 4 neighbors.
	if len(nb) != 4 {
		t.Fatalf("neighbors = %v, want 4", nb)
	}
	for _, u := range nb {
		if u == located {
			t.Fatal("variable is its own neighbor")
		}
	}
}

func TestAccessorsAndExport(t *testing.T) {
	g, k, res := paperGraph(t)
	if g.NumFactors() != 6 {
		t.Fatalf("NumFactors = %d", g.NumFactors())
	}
	f0 := g.Factor(0)
	if f0.Head < 0 {
		t.Fatal("Factor accessor broken")
	}
	located := findFact(t, k, res, "located_in")
	v, _ := g.VarOf(located)
	if len(g.FactorsOf(v)) < 2 {
		t.Fatalf("FactorsOf(%d) = %v", v, g.FactorsOf(v))
	}

	var vars, factors strings.Builder
	err := Export(res.Facts, res.Factors, &vars, &factors, func(row int) string {
		return k.FactString(kb.FactAtRow(res.Facts, row))
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(vars.String(), "\n") != 5 || strings.Count(factors.String(), "\n") != 6 {
		t.Fatalf("export sizes wrong:\n%s\n%s", vars.String(), factors.String())
	}
	if !strings.Contains(vars.String(), "\tnull\t0\t") {
		t.Fatalf("inferred variable rendering missing:\n%s", vars.String())
	}
	if !strings.Contains(factors.String(), "\tnull\tnull\t") {
		t.Fatalf("singleton factor rendering missing:\n%s", factors.String())
	}
	// Without a renderer, variables.tsv has three columns.
	var bare strings.Builder
	if err := Export(res.Facts, res.Factors, &bare, &strings.Builder{}, nil); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(bare.String(), "\n", 2)[0]
	if got := len(strings.Split(first, "\t")); got != 3 {
		t.Fatalf("bare export columns = %d, want 3 (%q)", got, first)
	}
}

func TestFromTablesErrors(t *testing.T) {
	// Sparse fact IDs are fine (quality control deletes rows without
	// renumbering); the ID mapping must round-trip.
	facts := engine.NewTable("T", kb.FactsSchema())
	facts.AppendRow(5, 0, 0, 0, 0, 0, 0.5)
	factors := engine.NewTable("TPhi", ground.FactorSchema())
	factors.AppendRow(5, engine.NullInt32, engine.NullInt32, 0.5)
	g, err := FromTables(facts, factors)
	if err != nil {
		t.Fatalf("sparse fact IDs rejected: %v", err)
	}
	v, ok := g.VarOf(5)
	if !ok || g.FactID(v) != 5 {
		t.Fatal("sparse ID mapping broken")
	}
	if _, ok := g.VarOf(0); ok {
		t.Fatal("VarOf invented a variable")
	}

	// Duplicate IDs are rejected.
	dup := engine.NewTable("T", kb.FactsSchema())
	dup.AppendRow(1, 0, 0, 0, 0, 0, 0.5)
	dup.AppendRow(1, 0, 1, 0, 1, 0, 0.5)
	if _, err := FromTables(dup, engine.NewTable("TPhi", ground.FactorSchema())); err == nil {
		t.Fatal("duplicate fact IDs accepted")
	}

	facts2 := engine.NewTable("T", kb.FactsSchema())
	facts2.AppendRow(0, 0, 0, 0, 0, 0, 0.5)
	bad := engine.NewTable("TPhi", ground.FactorSchema())
	bad.AppendRow(7, engine.NullInt32, engine.NullInt32, 0.5) // unknown fact
	if _, err := FromTables(facts2, bad); err == nil {
		t.Fatal("factor referencing unknown fact accepted")
	}

	if _, err := FromResult(&ground.Result{Facts: facts2}); err == nil {
		t.Fatal("FromResult without factors accepted")
	}
}

// TestFlatLayout pins what the columns promise the samplers: factors in
// TΦ order, unit clauses folded into Bias and kept out of the adjacency,
// a clause listed once per distinct variable, Sampled = the variables
// some clause touches, and fact IDs resolved in any row order.
func TestFlatLayout(t *testing.T) {
	facts := engine.NewTable("T", kb.FactsSchema())
	for _, id := range []int{40, 10, 30, 20, 50} { // not ascending
		facts.AppendRow(id, 0, id, 0, id, 0, engine.NullFloat64())
	}
	null := engine.NullInt32
	factors := engine.NewTable("TPhi", ground.FactorSchema())
	factors.AppendRow(10, null, null, 0.5)
	factors.AppendRow(30, 10, 10, 1.0) // body variable twice
	factors.AppendRow(10, null, null, 0.25)
	factors.AppendRow(30, 30, 20, 2.0) // head in its own body
	factors.AppendRow(20, null, 30, 3.0)
	factors.AppendRow(50, null, null, -1.0)
	g, err := FromTables(facts, factors)
	if err != nil {
		t.Fatal(err)
	}
	v := func(id int32) int32 {
		t.Helper()
		u, ok := g.VarOf(id)
		if !ok || g.FactID(u) != id {
			t.Fatalf("VarOf(%d) = %d, %v", id, u, ok)
		}
		return u
	}
	if _, ok := g.VarOf(25); ok {
		t.Fatal("VarOf invented a variable")
	}

	want := []Factor{
		{Head: v(10), W: 0.5},
		{Head: v(30), Body: []int32{v(10), v(10)}, W: 1.0},
		{Head: v(10), W: 0.25},
		{Head: v(30), Body: []int32{v(30), v(20)}, W: 2.0},
		{Head: v(20), Body: []int32{v(30)}, W: 3.0}, // a lone I3 is the one body atom
		{Head: v(50), W: -1.0},
	}
	if g.NumFactors() != len(want) {
		t.Fatalf("NumFactors = %d, want %d", g.NumFactors(), len(want))
	}
	for i, w := range want {
		if got := g.Factor(i); !reflect.DeepEqual(got, w) {
			t.Errorf("Factor(%d) = %+v, want %+v", i, got, w)
		}
	}

	if got := g.Bias(v(10)); got != 0.75 {
		t.Errorf("Bias(10) = %v, want the two unit weights summed", got)
	}
	if got := g.Bias(v(50)); got != -1.0 {
		t.Errorf("Bias(50) = %v", got)
	}
	for id, want := range map[int32][]int32{10: {1}, 20: {3, 4}, 30: {1, 3, 4}, 40: {}, 50: {}} {
		if got := g.FactorsOf(v(id)); !slices.Equal(got, want) {
			t.Errorf("FactorsOf(%d) = %v, want %v", id, got, want)
		}
	}
	if got, want := g.Sampled(), []int32{v(10), v(30), v(20)}; !slices.Equal(got, want) {
		t.Errorf("Sampled = %v, want %v (ascending variable index)", got, want)
	}
	if got, want := g.Neighbors(v(30)), []int32{v(10), v(20)}; !slices.Equal(got, want) {
		t.Errorf("Neighbors(30) = %v, want %v", got, want)
	}

	st := g.Stats()
	if st.Vars != 5 || st.Factors != 6 || st.Singletons != 3 || st.MaxDegree != 3 {
		t.Errorf("Stats = %+v", st)
	}
	// Degrees count unit clauses: 10 has 2+1, 20 has 2, 30 has 3, 50 has 1.
	if want := float64(3+2+3+0+1) / 5; mathAbs(st.AvgDegree-want) > 1e-12 {
		t.Errorf("AvgDegree = %v, want %v", st.AvgDegree, want)
	}

	// The flat evaluation agrees with the materialized factors'.
	assign := make([]bool, g.NumVars())
	for mask := 0; mask < 1<<g.NumVars(); mask++ {
		var score float64
		for u := range assign {
			assign[u] = mask&(1<<u) != 0
		}
		for i := range want {
			if g.Satisfied(i, assign) != g.Factor(i).Satisfied(assign) {
				t.Fatalf("factor %d under %v: flat and materialized Satisfied disagree", i, assign)
			}
			if g.Factor(i).Satisfied(assign) {
				score += want[i].W
			}
		}
		if got := g.LogScore(assign); mathAbs(got-score) > 1e-12 {
			t.Fatalf("LogScore(%v) = %v, want %v", assign, got, score)
		}
	}
}
