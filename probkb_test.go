package probkb

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probkb/internal/kb"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// paperKB builds the Table 1 running example through the public API.
func paperKB(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	k.MustAddRule("1.53 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)")
	k.MustAddRule("0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x:Place), live_in(z, y:City)")
	k.MustAddRule("0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)")
	return k
}

// giantKB is paperKB plus a second writer born in four places and four
// cities: her 8 born_in, 8 live_in and 16 located_in atoms ground into
// one connected component of 32 variables — above the enumeration bound,
// so expanding it runs the Gibbs chain, which paperKB's five-variable
// component never does.
func giantKB(t *testing.T) *KB {
	t.Helper()
	k := paperKB(t)
	for i := 0; i < 4; i++ {
		k.AddFact("born_in", "Grace_Paley", "Writer", fmt.Sprintf("Borough_%d", i), "Place", 0.6+0.05*float64(i))
		k.AddFact("born_in", "Grace_Paley", "Writer", fmt.Sprintf("Town_%d", i), "City", 0.9-0.05*float64(i))
	}
	return k
}

func TestQuickstartPipeline(t *testing.T) {
	k := New()
	if !k.AddFact("rich_in", "kale", "Food", "calcium", "Nutrient", 0.9) {
		t.Fatal("fresh fact reported as duplicate")
	}
	if k.AddFact("rich_in", "kale", "Food", "calcium", "Nutrient", 0.8) {
		t.Fatal("duplicate fact reported as fresh")
	}
	k.AddFact("prevents", "calcium", "Nutrient", "osteoporosis", "Disease", 0.8)
	k.MustAddRule("1.1 prevents(x:Food, y:Disease) :- rich_in(x:Food, z:Nutrient), prevents(z:Nutrient, y:Disease)")

	exp, err := k.Expand(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inferred := exp.InferredFacts()
	if len(inferred) != 1 {
		t.Fatalf("inferred = %+v, want the kale fact", inferred)
	}
	f := inferred[0]
	if f.Rel != "prevents" || f.X != "kale" || f.Y != "osteoporosis" {
		t.Fatalf("inferred fact = %+v", f)
	}
	if math.IsNaN(f.Probability) || f.Probability <= 0 || f.Probability >= 1 {
		t.Fatalf("probability = %v, want (0,1)", f.Probability)
	}
	if !strings.Contains(f.String(), "prevents(kale:Food") {
		t.Fatalf("fact string = %q", f.String())
	}
}

func TestExpandStatsAndIterations(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.BaseFacts != 2 || st.InferredFacts != 3 || st.TotalFacts != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Converged || st.Iterations < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Factors != 6 {
		t.Fatalf("factors = %d, want 6", st.Factors)
	}
	iters := exp.PerIteration()
	if len(iters) != st.Iterations || iters[0].NewFacts != 3 {
		t.Fatalf("per-iteration = %+v", iters)
	}
	// Without inference, probabilities of inferred facts are NaN.
	for _, f := range exp.InferredFacts() {
		if !math.IsNaN(f.Probability) {
			t.Fatalf("inferred fact has probability without inference: %+v", f)
		}
	}
}

func TestExpandAllEnginesAgree(t *testing.T) {
	for _, eng := range []Engine{SingleNode, Baseline, MPP, MPPNoViews} {
		k := paperKB(t)
		exp, err := k.Expand(Config{Engine: eng, Segments: 2, RunInference: false})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if got := exp.Stats().TotalFacts; got != 5 {
			t.Fatalf("%v: total facts = %d, want 5", eng, got)
		}
	}
	if SingleNode.String() != "ProbKB" || Baseline.String() != "Tuffy-T" ||
		MPP.String() != "ProbKB-p" || MPPNoViews.String() != "ProbKB-pn" {
		t.Fatal("engine names wrong")
	}
}

func TestExpandUnknownEngine(t *testing.T) {
	k := paperKB(t)
	if _, err := k.Expand(Config{Engine: Engine(99)}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestFindAndExplain(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 20, GibbsSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	hits := exp.Find("located_in", "", "")
	if len(hits) != 1 || hits[0].X != "Brooklyn" {
		t.Fatalf("Find = %+v", hits)
	}
	text, err := exp.Explain("located_in", "Brooklyn", "New_York_City", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "born_in") || !strings.Contains(text, "derived by") {
		t.Fatalf("explain:\n%s", text)
	}
	if _, err := exp.Explain("located_in", "Nowhere", "NYC", 3); err == nil {
		t.Fatal("explaining a missing fact should error")
	}
	v, f, s, err := exp.FactorGraphStats()
	if err != nil || v != 5 || f != 6 || s != 2 {
		t.Fatalf("factor graph stats = %d %d %d %v", v, f, s, err)
	}
}

func TestConstraintsInExpand(t *testing.T) {
	k := New()
	k.AddFact("born_in", "Mandel", "Person", "Berlin", "City", 0.9)
	k.AddFact("born_in", "Mandel", "Person", "Baltimore", "City", 0.9)
	k.AddFact("born_in", "Freud", "Person", "Vienna", "City", 0.9)
	k.MustAddRule("0.5 located_in(x:City, y:City) :- born_in(z:Person, x:City), born_in(z, y:City)")
	if err := k.AddConstraint("born_in", TypeI, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.AddConstraint("no_such_rel", TypeI, 1); err == nil {
		t.Fatal("constraint over unknown relation accepted")
	}

	exp, err := k.Expand(Config{Engine: SingleNode, ApplyConstraints: true, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range exp.Facts() {
		if f.X == "Mandel" || f.X == "Berlin" || f.X == "Baltimore" {
			t.Fatalf("ambiguous-entity fact survived: %+v", f)
		}
	}
	// Without constraints the bogus located_in appears; cap iterations.
	exp2, err := k.Expand(Config{Engine: SingleNode, MaxIterations: 3, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp2.Find("located_in", "Berlin", "Baltimore")) == 0 {
		t.Fatal("control run should infer the bogus fact")
	}
}

// annKB is the smallest KB on which greedy constraint deletion alone
// never reaches a fixpoint (DESIGN.md §5). The rule derives two children
// for Ann from the two parent_of facts about her; has_child is
// functional, so Query 3 deletes every fact with Ann as subject — but not
// the parent_of facts, where she is the object, and from those the next
// naive iteration derives again exactly what was removed.
func annKB(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.AddFact("parent_of", "Bob", "Person", "Ann", "Person", 0.9)
	k.AddFact("parent_of", "Cid", "Person", "Ann", "Person", 0.9)
	k.AddFact("parent_of", "Dee", "Person", "Eve", "Person", 0.9)
	k.MustAddRule("1.0 has_child(x:Person, y:Person) :- parent_of(y:Person, x:Person)")
	if err := k.AddConstraint("has_child", TypeI, 1); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestConstrainedGroundingConverges pins the fixpoint of grounding under
// constraints on annKB. The checker remembers that it removed Ann as a
// subject, so what the second iteration derives about her again does not
// survive its constraint pass, and an iteration nothing survives ends the
// run: two iterations on every engine — Tuffy-T, which evaluates naively
// and does derive the pair again, and the batch grounders, whose
// semi-naive second iteration has only has_child(Eve, Dee) to join and
// derives nothing.
func TestConstrainedGroundingConverges(t *testing.T) {
	for _, engine := range []Engine{SingleNode, MPP, MPPNoViews, Baseline} {
		var iters []IterationStats
		exp, err := annKB(t).Expand(Config{Engine: engine, Segments: 2, ApplyConstraints: true,
			OnIteration: func(st IterationStats) { iters = append(iters, st) }})
		if err != nil {
			t.Fatal(err)
		}
		st := exp.Stats()
		if !st.Converged || st.Iterations != 2 || len(iters) != 2 {
			t.Fatalf("engine %v: converged=%v after %d iterations (%d reported), want the fixpoint at 2",
				engine, st.Converged, st.Iterations, len(iters))
		}
		// Iteration 1 also derives has_child(Eve, Dee), which stays.
		if iters[0].NewFacts != 3 || iters[0].Deleted != 2 {
			t.Fatalf("engine %v iteration 1: +%d -%d, want +3 -2", engine, iters[0].NewFacts, iters[0].Deleted)
		}
		again := 0
		if engine == Baseline {
			again = 2
		}
		if iters[1].NewFacts != again || iters[1].Deleted != again {
			t.Fatalf("engine %v iteration 2: +%d -%d, want +%d -%d", engine, iters[1].NewFacts, iters[1].Deleted, again, again)
		}
		if st.TotalFacts != 4 || len(exp.Find("has_child", "Eve", "Dee")) != 1 || len(exp.Find("has_child", "Ann", "")) != 0 {
			t.Fatalf("engine %v: %d facts, has_child(Eve, Dee)=%d, has_child(Ann, _)=%d; want 4, 1, 0", engine,
				st.TotalFacts, len(exp.Find("has_child", "Eve", "Dee")), len(exp.Find("has_child", "Ann", "")))
		}
	}
}

// TestExtendWithKeepsRemovedEntitiesRemoved: a converged constrained
// expansion can be streamed into, and the round inherits what the
// expansion removed. One more parent for Ann derives one more
// has_child(Ann, _) — alone in its group, so no violation a fresh
// checker could find — and it stays out; Eve's second parent makes a new
// violation out of an old fact and a new one, and both go.
func TestExtendWithKeepsRemovedEntitiesRemoved(t *testing.T) {
	exp, err := annKB(t).Expand(Config{Engine: SingleNode, ApplyConstraints: true})
	if err != nil {
		t.Fatal(err)
	}

	same, err := exp.ExtendWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rendered, not field by field: which facts a round calls Inferred is
	// a watermark over fact IDs that deletions leave gaps in (ROADMAP
	// item 7), and not this test's subject.
	if st := same.Stats(); !st.Converged || st.Iterations != 1 || fmt.Sprint(same.Facts()) != fmt.Sprint(exp.Facts()) {
		t.Fatalf("ExtendWith(nil): converged=%v after %d iterations\n got %v\nwant %v", st.Converged, st.Iterations, same.Facts(), exp.Facts())
	}

	next, err := same.ExtendWith([]Fact{{Rel: "parent_of", X: "Zed", XClass: "Person", Y: "Ann", YClass: "Person", Probability: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if !next.Stats().Converged || len(next.Find("parent_of", "Zed", "Ann")) != 1 || len(next.Find("has_child", "Ann", "")) != 0 {
		t.Fatalf("converged=%v, parent_of(Zed, Ann)=%d, has_child(Ann, _)=%d; want true, 1, 0",
			next.Stats().Converged, len(next.Find("parent_of", "Zed", "Ann")), len(next.Find("has_child", "Ann", "")))
	}
	// The frozen receiver's memory did not move: the same batch lands the
	// same way a second time.
	twice, err := same.ExtendWith([]Fact{{Rel: "parent_of", X: "Zed", XClass: "Person", Y: "Ann", YClass: "Person", Probability: 0.9}})
	if err != nil || !sameFacts(twice.Facts(), next.Facts()) {
		t.Fatalf("second extend of the same generation: %v\n got %v\nwant %v", err, twice.Facts(), next.Facts())
	}

	last, err := next.ExtendWith([]Fact{{Rel: "parent_of", X: "Fay", XClass: "Person", Y: "Eve", YClass: "Person", Probability: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if !last.Stats().Converged || len(last.Find("has_child", "Eve", "")) != 0 || len(last.Find("parent_of", "", "Eve")) != 2 {
		t.Fatalf("converged=%v, has_child(Eve, _)=%d, parent_of(_, Eve)=%d; want true, 0, 2",
			last.Stats().Converged, len(last.Find("has_child", "Eve", "")), len(last.Find("parent_of", "", "Eve")))
	}
}

// TestExtendWithAfterConstraintHoles: the constraint pass deletes two of
// annKB's derived facts below the top fact ID, so the round's row count
// falls below the next ID it hands out. A fact streamed in afterwards is
// observed all the same: Find does not call it Inferred, and a point
// query reads it as evidence.
func TestExtendWithAfterConstraintHoles(t *testing.T) {
	exp, err := annKB(t).Expand(Config{Engine: SingleNode, ApplyConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids := exp.res.Facts.Int32Col(kb.TPiI); int(ids[len(ids)-1]) < len(ids) {
		t.Fatalf("fact IDs %v have no hole below the top one", ids)
	}
	next, err := exp.ExtendWith([]Fact{{Rel: "parent_of", X: "Gus", XClass: "Person", Y: "Hal", YClass: "Person", Probability: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Fact{{Rel: "parent_of", X: "Gus", XClass: "Person", Y: "Hal", YClass: "Person", Probability: 0.7}}
	if got := next.Find("parent_of", "Gus", "Hal"); !sameFacts(got, want) {
		t.Fatalf("Find(parent_of, Gus, Hal) = %#v, want %#v", got, want)
	}
	if got := next.Find("has_child", "Hal", "Gus"); len(got) != 1 || !got[0].Inferred {
		t.Fatalf("Find(has_child, Hal, Gus) = %#v, want the one derived fact", got)
	}
	m, err := next.QueryLocal(context.Background(), PointQuery{Rel: "parent_of", X: "Gus", Y: "Hal", Samples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found || !m.Observed || m.Probability != 0.7 {
		t.Fatalf("QueryLocal(parent_of(Gus, Hal)): found=%v observed=%v p=%v, want true, true, 0.7", m.Found, m.Observed, m.Probability)
	}
}

// sameFacts compares two fact lists position by position, every field,
// with a pending (NaN) probability equal to itself.
func sameFacts(a, b []Fact) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// TestExpandCapInvariance: on the synthetic corpus the constrained
// expansion converges well inside the default bound, and a larger bound
// or a second run changes nothing — not a fact, not a fact's place.
func TestExpandCapInvariance(t *testing.T) {
	k, _, err := Synthesize(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: SingleNode, ApplyConstraints: true, RunInference: false}
	want, err := k.Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := want.Stats()
	if !st.Converged || st.Iterations >= DefaultConstrainedIterations || st.InferredFacts == 0 {
		t.Fatalf("converged=%v after %d iterations with %d inferred facts", st.Converged, st.Iterations, st.InferredFacts)
	}
	deleted := 0
	for _, it := range want.PerIteration() {
		deleted += it.Deleted
	}
	if deleted == 0 {
		t.Fatal("fixture: no constraint pass deleted anything")
	}
	for _, maxIters := range []int{DefaultConstrainedIterations, 2 * DefaultConstrainedIterations, st.Iterations} {
		cfg.MaxIterations = maxIters
		got, err := k.Expand(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gs := got.Stats(); !gs.Converged || gs.Iterations != st.Iterations || gs.Factors != st.Factors {
			t.Fatalf("cap %d: converged=%v, %d iterations, %d factors; want true, %d, %d", maxIters, gs.Converged, gs.Iterations, gs.Factors, st.Iterations, st.Factors)
		}
		if !sameFacts(got.Facts(), want.Facts()) {
			t.Fatalf("cap %d changed the expansion", maxIters)
		}
	}
}

func TestRuleCleaningInExpand(t *testing.T) {
	k := New()
	k.AddFact("r1", "a", "A", "b", "B", 0.9)
	k.AddFact("r2", "a", "A", "b", "B", 0.9)
	k.AddFact("r1", "c", "A", "d", "B", 0.9)
	k.AddFact("r2", "c", "A", "d", "B", 0.9)
	k.AddFact("r3", "e", "A", "f", "B", 0.9)
	k.MustAddRule("1.0 r2(x:A, y:B) :- r1(x:A, y:B)") // supported
	k.MustAddRule("1.0 r4(x:A, y:B) :- r3(x:A, y:B)") // junk
	exp, err := k.Expand(Config{Engine: SingleNode, RuleCleanTheta: 0.5, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Find("r4", "", "")) != 0 {
		t.Fatal("cleaned rule still fired")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := paperKB(t)
	dir := filepath.Join(t.TempDir(), "kb")
	if err := k.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != k.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", loaded.Stats(), k.Stats())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading missing dir should fail")
	}
	// Binary snapshot: Load auto-detects the file format.
	snap := filepath.Join(t.TempDir(), "kb.pkb")
	if err := k.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if fromSnap.Stats() != k.Stats() {
		t.Fatalf("snapshot stats changed: %+v vs %+v", fromSnap.Stats(), k.Stats())
	}
	// The snapshot KB expands identically.
	exp, err := fromSnap.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Stats().TotalFacts != 5 {
		t.Fatalf("snapshot expansion facts = %d", exp.Stats().TotalFacts)
	}
}

func TestToKBChaining(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 20, GibbsSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	next := exp.ToKB()
	if next.Stats().Facts != 5 {
		t.Fatalf("materialized KB facts = %d, want 5", next.Stats().Facts)
	}
	// A second expansion over the materialized KB converges immediately.
	exp2, err := next.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	if exp2.Stats().InferredFacts != 0 {
		t.Fatal("re-expansion should add nothing")
	}
}

func TestSynthesize(t *testing.T) {
	k, truth, err := Synthesize(0.004, 11)
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats().Facts == 0 || truth.WorldSize() == 0 {
		t.Fatal("empty synthetic corpus")
	}
	exp, err := k.Expand(Config{Engine: SingleNode, MaxIterations: 3, ApplyConstraints: true, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	p, correct, total := truth.Precision(exp)
	if total > 0 && (p < 0 || p > 1 || correct > total) {
		t.Fatalf("precision accounting broken: %v %d/%d", p, correct, total)
	}
	// Judge is consistent with itself on observed facts.
	judged := 0
	for _, f := range exp.Facts() {
		if truth.Judge(f) {
			judged++
		}
	}
	if judged == 0 {
		t.Fatal("oracle judges everything false")
	}
	if _, _, err := Synthesize(0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if truth.Judge(Fact{Rel: "nope", X: "a", XClass: "A", Y: "b", YClass: "B"}) {
		t.Fatal("unknown symbols judged true")
	}
}

func TestExtendWith(t *testing.T) {
	k := New()
	k.AddFact("born_in", "RG", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Stats().InferredFacts != 1 {
		t.Fatalf("initial inferred = %d", exp.Stats().InferredFacts)
	}

	// A new extraction arrives; the incremental round derives only from it.
	next, err := exp.ExtendWith([]Fact{{
		Rel: "born_in", X: "Freud", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := next.Stats()
	if st.InferredFacts != 1 {
		t.Fatalf("incremental inferred = %d, want 1 (live_in Freud)", st.InferredFacts)
	}
	if len(next.Find("live_in", "Freud", "Vienna")) != 1 {
		t.Fatal("incremental derivation missing")
	}
	// The old derivation is still present, now as a base fact.
	if len(next.Find("live_in", "RG", "Brooklyn")) != 1 {
		t.Fatal("prior derivation lost")
	}

	// Extending a capped (non-converged) expansion refuses.
	capped, err := paperKB(t).Expand(Config{Engine: SingleNode, MaxIterations: 1, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.ExtendWith(nil); err == nil {
		t.Fatal("ExtendWith accepted a non-converged prior")
	}
}

func TestSaveFactorGraph(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fg")
	if err := exp.SaveFactorGraph(dir); err != nil {
		t.Fatal(err)
	}
	vars, err := os.ReadFile(filepath.Join(dir, "variables.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	factors, err := os.ReadFile(filepath.Join(dir, "factors.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	varLines := strings.Count(string(vars), "\n")
	factorLines := strings.Count(string(factors), "\n")
	if varLines != 5 || factorLines != 6 {
		t.Fatalf("export sizes: %d vars, %d factors; want 5, 6", varLines, factorLines)
	}
	if !strings.Contains(string(vars), "born_in(Ruth_Gruber:Writer") {
		t.Fatalf("variables.tsv missing rendering:\n%s", vars)
	}
	// Inferred variables are unobserved with null weight.
	if !strings.Contains(string(vars), "\tnull\t0\t") {
		t.Fatalf("variables.tsv missing inferred rows:\n%s", vars)
	}
	// Singleton factors carry nulls in I2/I3.
	if !strings.Contains(string(factors), "\tnull\tnull\t") {
		t.Fatalf("factors.tsv missing singletons:\n%s", factors)
	}
}

func TestMAPWorldAndDiagnostics(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 100, GibbsSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	world, score, err := exp.MAPWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	// With strong positive weights everywhere, the MAP world holds every
	// fact (score = sum of all weights).
	if len(world) != 5 {
		t.Fatalf("MAP world has %d facts, want 5", len(world))
	}
	want := 0.96 + 0.93 + 1.40 + 1.53 + 0.32 + 0.52
	if math.Abs(score-want) > 1e-9 {
		t.Fatalf("MAP score = %v, want %v", score, want)
	}
	maxRHat, converged, err := exp.ConvergenceDiagnostics(3)
	if err != nil {
		t.Fatal(err)
	}
	if !converged || maxRHat > 1.1 {
		t.Fatalf("well-behaved expansion unconverged: R̂ = %v", maxRHat)
	}
}

// TestRHatGaugeFollowsTheChain: probkb_infer_rhat_max is written where
// the running chain checkpoints, so an expansion whose inference samples
// (giantKB's 32-variable component) leaves its worst R-hat on /metrics
// without anyone asking for ConvergenceDiagnostics.
func TestRHatGaugeFollowsTheChain(t *testing.T) {
	exp, err := giantKB(t).Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 10, GibbsSamples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	run, err := journal.FromEvents(exp.Journal().Events())
	if err != nil || len(run.Checkpoints) == 0 {
		t.Fatalf("journal of a sampled expansion: %d checkpoints, err %v", len(run.Checkpoints), err)
	}
	want := run.Checkpoints[len(run.Checkpoints)-1].RHatMax
	if v := obs.Default.Snapshot()["probkb_infer_rhat_max"]; !(v > 0) || v != want {
		t.Fatalf("probkb_infer_rhat_max = %v after a sampled expansion, want the chain's last checkpointed R-hat %v", v, want)
	}
}

func TestQuerySQL(t *testing.T) {
	k := paperKB(t)
	// The paper's Query 1-1, verbatim, through the public API.
	res, err := k.QuerySQL(`
		SELECT M1.R1 AS R, T.x AS x, T.C1 AS C1, T.y AS y, T.C2 AS C2
		FROM M1 JOIN T ON M1.R2 = T.R AND M1.C1 = T.C1 AND M1.C2 = T.C2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 5 {
		t.Fatalf("Query 1-1 result: %d rows × %d cols", len(res.Rows), len(res.Columns))
	}
	rendered := res.String()
	lines := strings.Split(rendered, "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[0], "R") || !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("rendering:\n%s", rendered)
	}

	// Dictionary join: resolve entity names in SQL.
	res2, err := k.QuerySQL("SELECT DE.name FROM T JOIN DE ON T.x = DE.id WHERE T.w > 0.95")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "Ruth_Gruber" {
		t.Fatalf("dictionary join: %+v", res2.Rows)
	}

	if _, err := k.QuerySQL("SELECT nope FROM T"); err == nil {
		t.Fatal("bad query accepted")
	}

	plan, err := k.ExplainSQL("SELECT T.I FROM T")
	if err != nil || !strings.Contains(plan, "Seq Scan on T") {
		t.Fatalf("explain: %q %v", plan, err)
	}
}

func TestMustAddRulePanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddRule on garbage did not panic")
		}
	}()
	k.MustAddRule("not a rule")
}
