package quality

import (
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mpp"
)

// ambiguityKB reconstructs the Mandel example of Figure 5: one surface
// name ("Mandel") born in three different places under a functional
// born_in.
func ambiguityKB(t *testing.T) *kb.KB {
	t.Helper()
	k := kb.New()
	k.InternFact("born_in", "Mandel", "Person", "Berlin", "City", 0.9)
	k.InternFact("born_in", "Mandel", "Person", "New_York_City", "City", 0.9)
	k.InternFact("born_in", "Mandel", "Person", "Chicago", "City", 0.9)
	k.InternFact("born_in", "Freud", "Person", "Vienna", "City", 0.9)
	k.InternFact("live_in", "Rothman", "Person", "Baltimore", "City", 0.9)
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: bornIn, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestViolationsTypeI(t *testing.T) {
	k := ambiguityKB(t)
	c := NewChecker(k)
	if c.NumConstraints() != 1 {
		t.Fatalf("constraints = %d", c.NumConstraints())
	}
	tpi := k.FactsTable()
	viol := c.Violations(tpi)
	if len(viol) != 1 {
		t.Fatalf("violations = %+v, want 1", viol)
	}
	mandel, _ := k.Entities.Lookup("Mandel")
	v := viol[0]
	if v.Entity != mandel || v.Count != 3 || v.Degree != 1 || v.Type != kb.TypeI {
		t.Fatalf("violation = %+v", v)
	}
}

func TestViolationsTypeII(t *testing.T) {
	// capital_of is Type II: a country has one capital.
	k := kb.New()
	k.InternFact("capital_of", "Delhi", "City", "India", "Country", 0.9)
	k.InternFact("capital_of", "Calcutta", "City", "India", "Country", 0.9)
	k.InternFact("capital_of", "Paris", "City", "France", "Country", 0.9)
	capitalOf, _ := k.RelDict.Lookup("capital_of")
	if err := k.AddConstraint(kb.Constraint{Rel: capitalOf, Type: kb.TypeII, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(k)
	viol := c.Violations(k.FactsTable())
	if len(viol) != 1 {
		t.Fatalf("violations = %+v", viol)
	}
	india, _ := k.Entities.Lookup("India")
	if viol[0].Entity != india || viol[0].Type != kb.TypeII {
		t.Fatalf("violation = %+v", viol[0])
	}
}

func TestPseudoFunctionalDegree(t *testing.T) {
	// live_in with degree 2: two residences fine, three is a violation.
	k := kb.New()
	k.InternFact("live_in", "A", "Person", "X", "Country", 0.9)
	k.InternFact("live_in", "A", "Person", "Y", "Country", 0.9)
	k.InternFact("live_in", "B", "Person", "X", "Country", 0.9)
	k.InternFact("live_in", "B", "Person", "Y", "Country", 0.9)
	k.InternFact("live_in", "B", "Person", "Z", "Country", 0.9)
	liveIn, _ := k.RelDict.Lookup("live_in")
	if err := k.AddConstraint(kb.Constraint{Rel: liveIn, Type: kb.TypeI, Degree: 2}); err != nil {
		t.Fatal(err)
	}
	viol := NewChecker(k).Violations(k.FactsTable())
	if len(viol) != 1 {
		t.Fatalf("violations = %+v", viol)
	}
	b, _ := k.Entities.Lookup("B")
	if viol[0].Entity != b {
		t.Fatalf("violation = %+v", viol[0])
	}
}

func TestApplyDeletesViolatingEntities(t *testing.T) {
	k := ambiguityKB(t)
	c := NewChecker(k)
	tpi := k.FactsTable()
	deleted := c.Apply(tpi)
	// All three Mandel facts go; Freud and Rothman stay.
	if deleted != 3 {
		t.Fatalf("deleted = %d, want 3", deleted)
	}
	if tpi.NumRows() != 2 {
		t.Fatalf("remaining = %d, want 2", tpi.NumRows())
	}
	// Idempotent once clean.
	if again := c.Apply(tpi); again != 0 {
		t.Fatalf("second apply deleted %d", again)
	}
}

func TestApplyDeletesByViolatedPosition(t *testing.T) {
	// Query 3 deletes by the violated argument position: a Type I
	// violator loses its subject-position facts — across all relations —
	// but keeps facts where it is merely the object.
	k := ambiguityKB(t)
	k.InternFact("visited", "Mandel", "Person", "Freud", "Person", 0.8) // subject: goes
	k.InternFact("visited", "Freud", "Person", "Mandel", "Person", 0.8) // object: stays
	c := NewChecker(k)
	tpi := k.FactsTable()
	deleted := c.Apply(tpi)
	if deleted != 4 {
		t.Fatalf("deleted = %d, want 4 (3 born_in + 1 subject-position visited)", deleted)
	}
	// The object-position fact survives.
	mandel, _ := k.Entities.Lookup("Mandel")
	found := false
	for r := 0; r < tpi.NumRows(); r++ {
		if tpi.Int32Col(kb.TPiY)[r] == mandel {
			found = true
		}
		if tpi.Int32Col(kb.TPiX)[r] == mandel {
			t.Fatal("subject-position fact survived")
		}
	}
	if !found {
		t.Fatal("object-position fact was deleted")
	}
}

// appendFact appends rel(x, y) to tpi under the next fact ID, as a
// grounder's merge does.
func appendFact(t *testing.T, k *kb.KB, tpi *engine.Table, rel, x, xc, y, yc string) {
	t.Helper()
	r, ok := k.RelDict.Lookup(rel)
	if !ok {
		t.Fatalf("no relation %s", rel)
	}
	id := int32(0)
	if n := tpi.NumRows(); n > 0 {
		id = tpi.Int32Col(kb.TPiI)[n-1] + 1
	}
	tpi.AppendRow(id, r, k.Entities.Intern(x), k.Classes.Intern(xc), k.Entities.Intern(y), k.Classes.Intern(yc), engine.NullFloat64())
}

func TestCheckerRemembersWhatItRemoved(t *testing.T) {
	// Mandel violates born_in as a subject and is removed. One more
	// subject-position fact about Mandel violates nothing on its own —
	// a stateless Query 3 lets it stand — but the entity stays removed
	// in that position; as an object Mandel was never removed.
	k := ambiguityKB(t)
	k.InternFact("visited", "Freud", "Person", "Vienna", "City", 0.8)
	c := NewChecker(k)
	tpi := k.FactsTable()
	if deleted := c.Apply(tpi); deleted != 3 {
		t.Fatalf("first pass deleted %d, want the 3 Mandel facts", deleted)
	}
	appendFact(t, k, tpi, "born_in", "Mandel", "Person", "Berlin", "City")
	appendFact(t, k, tpi, "visited", "Mandel", "Person", "Vienna", "City")
	appendFact(t, k, tpi, "visited", "Freud", "Person", "Mandel", "Person")
	if viol := NewChecker(k).Violations(tpi); len(viol) != 0 {
		t.Fatalf("fixture: the re-derived facts should violate nothing by themselves, got %+v", viol)
	}
	if deleted := c.Apply(tpi); deleted != 2 {
		t.Fatalf("second pass deleted %d, want the 2 facts with Mandel as subject", deleted)
	}
	mandel, _ := k.Entities.Lookup("Mandel")
	n := tpi.NumRows()
	if tpi.Int32Col(kb.TPiY)[n-1] != mandel {
		t.Fatal("the object-position fact should survive as the last row")
	}
	for r := 0; r < n; r++ {
		if tpi.Int32Col(kb.TPiX)[r] == mandel {
			t.Fatal("a subject-position fact of a removed entity survived")
		}
	}
	if again := c.Apply(tpi); again != 0 {
		t.Fatalf("idle pass deleted %d", again)
	}
}

func TestDeltaPassJudgesGroupsWhole(t *testing.T) {
	// Freud has one birthplace when the first pass runs. A second one
	// appended later makes a violation out of one old row and one new
	// row: the pass over the appended rows has to count the group's old
	// members, and then reach back and delete them.
	k := ambiguityKB(t)
	c := NewChecker(k)
	tpi := k.FactsTable()
	c.Apply(tpi)
	appendFact(t, k, tpi, "live_in", "Freud", "Person", "London", "City")
	if deleted := c.Apply(tpi); deleted != 0 {
		t.Fatalf("an unconstrained relation's row cost %d deletions", deleted)
	}
	appendFact(t, k, tpi, "born_in", "Freud", "Person", "Pribor", "City")
	if deleted := c.Apply(tpi); deleted != 3 {
		t.Fatalf("deleted %d, want Freud's two born_in facts and his live_in fact", deleted)
	}
	if tpi.NumRows() != 1 {
		t.Fatalf("%d rows left, want Rothman's alone", tpi.NumRows())
	}
}

func TestCheckerOnAnUnrelatedTable(t *testing.T) {
	// A table that does not continue the one the last pass left is new
	// from its first row: checked in full, against everything the
	// checker remembers.
	k := ambiguityKB(t)
	c := NewChecker(k)
	c.Apply(k.FactsTable())
	fresh := k.FactsTable()
	if deleted := c.Apply(fresh); deleted != 3 || fresh.NumRows() != 2 {
		t.Fatalf("fresh table: deleted %d, %d rows left; want 3, 2", deleted, fresh.NumRows())
	}
}

func TestCheckerCloneIsolation(t *testing.T) {
	k := ambiguityKB(t)
	c := NewChecker(k)
	tpi := k.FactsTable()
	c.Apply(tpi)
	clone, tpi2 := c.Clone(), tpi.Clone()
	// The clone continues the cloned table and goes on to remove Freud…
	appendFact(t, k, tpi2, "born_in", "Freud", "Person", "Pribor", "City")
	if deleted := clone.Apply(tpi2); deleted != 2 {
		t.Fatalf("clone deleted %d, want Freud's 2 facts", deleted)
	}
	// …which the original neither did nor remembers.
	appendFact(t, k, tpi, "live_in", "Freud", "Person", "London", "City")
	appendFact(t, k, tpi, "live_in", "Mandel", "Person", "London", "City")
	if deleted := c.Apply(tpi); deleted != 1 {
		t.Fatalf("original deleted %d, want only Mandel's fact", deleted)
	}
}

func TestPreCleanKeepsSurvivorsInPlace(t *testing.T) {
	k := ambiguityKB(t)
	fork := k.Fork()
	if n := PreClean(fork); n != 3 {
		t.Fatalf("PreClean removed %d, want 3", n)
	}
	if k.NumFacts() != 5 || fork.NumFacts() != 2 {
		t.Fatalf("parent has %d facts, fork %d; want 5 and 2", k.NumFacts(), fork.NumFacts())
	}
	for i := range fork.NumFacts() {
		f := fork.FactAt(i)
		if j, ok := fork.FactIndex(f.Key()); !ok || j != i {
			t.Fatalf("fork's fact index lost fact %d", i)
		}
	}
	if fork.HasFact(k.FactAt(0).Key()) || !k.HasFact(k.FactAt(0).Key()) {
		t.Fatal("the removed fact should be gone from the fork only")
	}
	if viol := NewChecker(fork).Violations(fork.FactsTable()); len(viol) != 0 {
		t.Fatalf("pre-cleaned KB still violates: %+v", viol)
	}
}

func TestApplyNoConstraints(t *testing.T) {
	k := kb.New()
	k.InternFact("r", "a", "A", "b", "B", 0.5)
	if got := NewChecker(k).Apply(k.FactsTable()); got != 0 {
		t.Fatalf("apply without constraints deleted %d", got)
	}
}

func TestCheckerAsGroundingHook(t *testing.T) {
	// Reconstructs the Figure 5(a) scenario: the ambiguous "Mandel"
	// would produce located_in(Baltimore, Berlin)-style nonsense through
	// rule application; the hook removes the ambiguous entity so the
	// bogus inference never survives.
	k := kb.New()
	k.InternFact("born_in", "Mandel", "Person", "Berlin", "City", 0.9)
	k.InternFact("born_in", "Mandel", "Person", "Baltimore", "City", 0.9)
	k.InternFact("born_in", "Freud", "Person", "Vienna", "City", 0.9)
	c, err := k.ParseRule("0.5 located_in(x:City, y:City) :- born_in(z:Person, x:City), born_in(z, y:City)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(c); err != nil {
		t.Fatal(err)
	}
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: bornIn, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}

	// The paper runs Query 3 once before inference starts (Section
	// 6.1.1), then re-applies it each iteration: pre-cleaning removes the
	// ambiguous entity before any rule can join through it.
	checker := NewChecker(k)
	pre := k.Fork()
	if deleted := pre.DeleteFactsWith(checker.Apply); deleted != 2 {
		t.Fatalf("pre-clean deleted %d facts, want the 2 Mandel facts", deleted)
	}
	res, err := ground.Ground(pre, ground.Options{ConstraintHook: checker.Hook(), MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	locatedIn, _ := k.RelDict.Lookup("located_in")
	rels := res.Facts.Int32Col(kb.TPiR)
	for r := 0; r < res.Facts.NumRows(); r++ {
		if rels[r] == locatedIn {
			// located_in(x, x) from Freud alone is fine (born_in Vienna
			// twice is one fact; the self-join yields located_in(Vienna,
			// Vienna)). Anything involving Berlin/Baltimore is the bug.
			x := res.Facts.Int32Col(kb.TPiX)[r]
			y := res.Facts.Int32Col(kb.TPiY)[r]
			vienna, _ := k.Entities.Lookup("Vienna")
			if x != vienna || y != vienna {
				t.Fatalf("ambiguous-entity inference survived: %s", k.FactString(kb.FactAtRow(res.Facts, r)))
			}
		}
	}
	// Without the hook, the bogus fact appears.
	res2, err := ground.Ground(k, ground.Options{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	rels2 := res2.Facts.Int32Col(kb.TPiR)
	for r := 0; r < res2.Facts.NumRows(); r++ {
		if rels2[r] == locatedIn {
			x := res2.Facts.Int32Col(kb.TPiX)[r]
			berlin, _ := k.Entities.Lookup("Berlin")
			baltimore, _ := k.Entities.Lookup("Baltimore")
			if x == berlin || x == baltimore {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("control run should contain the ambiguous-entity inference")
	}
}

func TestLoweredConstraintPlanAgreesWithSingleNode(t *testing.T) {
	// On the ambiguity KB plus a Type II constraint, Query 3 lowered onto
	// a cluster (facts hashed by ID, the constraint table replicated) must
	// find the single-node violations, under several segment counts. The
	// grouped join needs its groups collocated, so the lowering has to
	// place exactly one redistribute motion per functionality type.
	k := ambiguityKB(t)
	k.InternFact("capital_of", "Delhi", "City", "India", "Country", 0.9)
	k.InternFact("capital_of", "Calcutta", "City", "India", "Country", 0.9)
	capitalOf, _ := k.RelDict.Lookup("capital_of")
	if err := k.AddConstraint(kb.Constraint{Rel: capitalOf, Type: kb.TypeII, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	tpi := k.FactsTable()
	checker := NewChecker(k)
	want := checker.Violations(tpi)
	if len(want) == 0 {
		t.Fatal("fixture has no violations")
	}

	for _, segs := range []int{1, 2, 5} {
		cluster := mpp.NewCluster(segs)
		dT := cluster.Distribute(tpi, []int{kb.TPiI})
		place := func(tab *engine.Table) *mpp.DistTable {
			if tab == tpi {
				return dT
			}
			return cluster.Replicate(tab)
		}
		var got []Violation
		for _, typ := range []int{kb.TypeI, kb.TypeII} {
			plan := mpp.Lower(checker.Plan(tpi, typ), place, nil, true)
			if r, b := mpp.CountMotions(plan); r != 1 || b != 0 {
				t.Fatalf("segs=%d type %d: %d redistribute, %d broadcast motions; want 1, 0", segs, typ, r, b)
			}
			out, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, violationsOf(mpp.Gather(out), typ)...)
		}
		if len(got) != len(want) {
			t.Fatalf("segs=%d: %d violations, want %d", segs, len(got), len(want))
		}
		wantSet := make(map[Violation]bool, len(want))
		for _, v := range want {
			wantSet[v] = true
		}
		for _, v := range got {
			if !wantSet[v] {
				t.Fatalf("segs=%d: unexpected violation %+v", segs, v)
			}
		}
	}
}

func TestScoreRules(t *testing.T) {
	k := kb.New()
	// r1 implies r2 and the data supports it: both (a,b) and (c,d) have
	// head facts.
	k.InternFact("r1", "a", "A", "b", "B", 0.9)
	k.InternFact("r2", "a", "A", "b", "B", 0.9)
	k.InternFact("r1", "c", "A", "d", "B", 0.9)
	k.InternFact("r2", "c", "A", "d", "B", 0.9)
	// r3 never has head support.
	k.InternFact("r3", "e", "A", "f", "B", 0.9)
	good, err := k.ParseRule("1.0 r2(x:A, y:B) :- r1(x:A, y:B)")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := k.ParseRule("1.0 r4(x:A, y:B) :- r3(x:A, y:B)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(good); err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(bad); err != nil {
		t.Fatal(err)
	}
	scores := ScoreRules(k)
	if len(scores) != 2 {
		t.Fatalf("scores = %+v", scores)
	}
	if scores[0].Matches != 2 || scores[0].Hits != 2 {
		t.Fatalf("good rule stats = %+v", scores[0])
	}
	if scores[1].Matches != 1 || scores[1].Hits != 0 {
		t.Fatalf("bad rule stats = %+v", scores[1])
	}
	if scores[0].Score <= scores[1].Score {
		t.Fatalf("supported rule should outscore unsupported: %v vs %v",
			scores[0].Score, scores[1].Score)
	}
}

func TestScoreRulesLength2(t *testing.T) {
	k := kb.New()
	k.InternFact("q", "z1", "C", "a", "A", 0.9)
	k.InternFact("r", "z1", "C", "b", "B", 0.9)
	k.InternFact("p", "a", "A", "b", "B", 0.9) // head support
	k.InternFact("q", "z2", "C", "c", "A", 0.9)
	k.InternFact("r", "z2", "C", "d", "B", 0.9) // body match, no head
	rule, err := k.ParseRule("1.0 p(x:A, y:B) :- q(z:C, x:A), r(z, y:B)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	scores := ScoreRules(k)
	if scores[0].Matches != 2 || scores[0].Hits != 1 {
		t.Fatalf("stats = %+v", scores[0])
	}
}

func TestCleanRules(t *testing.T) {
	k := kb.New()
	k.InternFact("r1", "a", "A", "b", "B", 0.9)
	k.InternFact("r2", "a", "A", "b", "B", 0.9)
	k.InternFact("r3", "e", "A", "f", "B", 0.9)
	lines := []string{
		"1.0 r2(x:A, y:B) :- r1(x:A, y:B)", // supported
		"1.0 r4(x:A, y:B) :- r3(x:A, y:B)", // unsupported
	}
	for _, l := range lines {
		c, err := k.ParseRule(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	cleaned := CleanRules(k, 0.5)
	if len(cleaned.Rules) != 1 {
		t.Fatalf("cleaned rules = %d, want 1", len(cleaned.Rules))
	}
	if cleaned.Rules[0].Head != k.Rules[0].Head {
		t.Fatal("cleaning kept the wrong rule")
	}
	// θ = 1 keeps everything, and returns a copy.
	all := CleanRules(k, 1)
	if len(all.Rules) != 2 {
		t.Fatal("θ=1 should keep all rules")
	}
	all.Rules = all.Rules[:0]
	if len(k.Rules) != 2 {
		t.Fatal("CleanRules(θ=1) aliases the original")
	}
	// θ tiny still keeps at least one rule.
	one := CleanRules(k, 0.0001)
	if len(one.Rules) != 1 {
		t.Fatalf("tiny θ kept %d rules", len(one.Rules))
	}
}

func TestErrorBreakdown(t *testing.T) {
	var b Breakdown
	b[SrcAmbiguousEntity] = 34
	b[SrcAmbiguousJoinKey] = 24
	b[SrcIncorrectRule] = 33
	b[SrcIncorrectExtraction] = 6
	b[SrcGeneralType] = 2
	b[SrcSynonym] = 1
	if b.Total() != 100 {
		t.Fatalf("total = %d", b.Total())
	}
	if f := b.Fraction(SrcAmbiguousEntity); f != 0.34 {
		t.Fatalf("fraction = %v", f)
	}
	s := b.String()
	if !strings.Contains(s, "Ambiguities (detected)") || !strings.Contains(s, "34.0%") {
		t.Fatalf("breakdown string:\n%s", s)
	}
	var empty Breakdown
	if empty.Fraction(SrcSynonym) != 0 {
		t.Fatal("empty breakdown fraction should be 0")
	}
	if ErrorSource(99).String() == "" {
		t.Fatal("unknown source should still render")
	}
}

func TestViolationsOnGroundedFacts(t *testing.T) {
	// Constraints also catch *inferred* violations (E4 propagated
	// errors): a rule that fabricates a second birthplace.
	k := kb.New()
	k.InternFact("born_in", "P", "Person", "CityA", "City", 0.9)
	k.InternFact("moved_to", "P", "Person", "CityB", "City", 0.9)
	c, err := k.ParseRule("0.5 born_in(x:Person, y:City) :- moved_to(x:Person, y:City)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(c); err != nil {
		t.Fatal(err)
	}
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: bornIn, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := ground.Ground(k, ground.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viol := NewChecker(k).Violations(res.Facts)
	if len(viol) != 1 {
		t.Fatalf("violations on grounded facts = %+v", viol)
	}
}

func TestViolationsIgnoreOtherRelations(t *testing.T) {
	k := kb.New()
	// Unconstrained relation with many partners: no violation.
	k.InternFact("likes", "A", "Person", "X", "Thing", 0.9)
	k.InternFact("likes", "A", "Person", "Y", "Thing", 0.9)
	k.InternFact("likes", "A", "Person", "Z", "Thing", 0.9)
	k.InternFact("born_in", "A", "Person", "X", "City", 0.9)
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: bornIn, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	if viol := NewChecker(k).Violations(k.FactsTable()); len(viol) != 0 {
		t.Fatalf("violations = %+v, want none", viol)
	}
}

var _ = engine.NullInt32 // keep engine import for test helpers above
