package synth

import (
	"testing"

	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/quality"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := ReVerbSherlock(0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateScalesCounts(t *testing.T) {
	c := testCorpus(t)
	st := c.KB.Stats()
	if st.Facts < 500 {
		t.Fatalf("facts = %d, too few", st.Facts)
	}
	if st.Rules != len(c.SoundRules)+len(c.WrongRules) {
		t.Fatalf("rule partition inconsistent: %d vs %d + %d",
			st.Rules, len(c.SoundRules), len(c.WrongRules))
	}
	if len(c.WrongRules) == 0 || len(c.SoundRules) == 0 {
		t.Fatal("both sound and wrong rules must exist")
	}
	// Wrong-rule share near the requested rate.
	frac := float64(len(c.WrongRules)) / float64(st.Rules)
	if frac < 0.2 || frac > 0.5 {
		t.Fatalf("wrong-rule fraction = %v", frac)
	}
	if st.Constraints == 0 {
		t.Fatal("no functional constraints generated")
	}
	if c.TrueWorldSize < st.Facts/2 {
		t.Fatalf("true world %d facts vs observed %d", c.TrueWorldSize, st.Facts)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := ReVerbSherlock(0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReVerbSherlock(0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.KB.Stats() != b.KB.Stats() {
		t.Fatalf("same seed, different stats: %+v vs %+v", a.KB.Stats(), b.KB.Stats())
	}
	if a.TrueWorldSize != b.TrueWorldSize {
		t.Fatal("same seed, different world size")
	}
	c, err := ReVerbSherlock(0.004, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.KB.Stats() == a.KB.Stats() {
		t.Fatal("different seeds produced identical corpora (suspicious)")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Options{Scale: 0}); err == nil {
		t.Fatal("zero scale accepted")
	}
	opts := DefaultOptions()
	opts.Levels = 0
	if _, err := Generate(opts); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestOracleJudgesObservedFacts(t *testing.T) {
	c := testCorpus(t)
	correct, planted := 0, 0
	for i := range c.KB.NumFacts() {
		f := c.KB.FactAt(i)
		if c.Oracle.Judge(f.Key()) {
			correct++
		} else {
			planted++
		}
	}
	// Most observed facts are true samples; the planted errors are the
	// ExtractionErrorRate share.
	if correct == 0 || planted == 0 {
		t.Fatalf("judgments degenerate: %d correct, %d planted", correct, planted)
	}
	frac := float64(planted) / float64(correct+planted)
	if frac > 0.15 {
		t.Fatalf("planted-false share %v too high", frac)
	}
	// Every recorded planted-false key must judge false.
	for key := range c.Oracle.plantedFalse {
		if c.Oracle.Judge(key) {
			t.Fatal("plantedFalse key judged true")
		}
	}
}

func TestOracleAmbiguity(t *testing.T) {
	c := testCorpus(t)
	n := 0
	for sym := range c.Oracle.ambiguous {
		if len(c.Oracle.entsOfSym[sym]) < 2 {
			t.Fatal("ambiguous symbol with one denotation")
		}
		if !c.Oracle.Ambiguous(sym) {
			t.Fatal("Ambiguous() disagrees with map")
		}
		n++
	}
	if n == 0 {
		t.Fatal("no ambiguous symbols planted")
	}
}

func TestExpansionPrecisionImprovesWithQC(t *testing.T) {
	c := testCorpus(t)

	// Raw: no quality control.
	raw, err := ground.Ground(c.KB, ground.Options{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	rawPrec := c.Oracle.Precision(raw.Facts, int(raw.FirstDerived))

	// QC: rule cleaning to the top half + semantic constraints in the
	// loop.
	cleaned := quality.CleanRules(c.KB, 0.5)
	checker := quality.NewChecker(cleaned)
	qc, err := ground.Ground(cleaned, ground.Options{MaxIterations: 4, ConstraintHook: checker.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	qcPrec := c.Oracle.Precision(qc.Facts, int(qc.FirstDerived))

	if raw.InferredFacts() == 0 {
		t.Fatal("raw expansion inferred nothing; corpus too sparse for the test")
	}
	t.Logf("raw: %d inferred at precision %.3f; qc: %d inferred at precision %.3f",
		raw.InferredFacts(), rawPrec, qc.InferredFacts(), qcPrec)
	if qcPrec <= rawPrec {
		t.Fatalf("quality control did not improve precision: %.3f vs %.3f", qcPrec, rawPrec)
	}
}

func TestCategorizeViolations(t *testing.T) {
	c := testCorpus(t)
	res, err := ground.Ground(c.KB, ground.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	checker := quality.NewChecker(c.KB)
	viol := checker.Violations(res.Facts)
	if len(viol) == 0 {
		t.Fatal("no violations found; error planting failed")
	}
	b := c.Oracle.CategorizeAll(viol, res.Facts, int(res.FirstDerived))
	if b.Total() != len(viol) {
		t.Fatalf("breakdown total %d != violations %d", b.Total(), len(viol))
	}
	if b[quality.SrcAmbiguousEntity] == 0 {
		t.Fatalf("expected ambiguous-entity violations, got breakdown:\n%s", b)
	}
	t.Logf("violation breakdown:\n%s", b)
}

func TestRuleScoresSeparateSoundFromWrong(t *testing.T) {
	c := testCorpus(t)
	scores := quality.ScoreRules(c.KB)
	var soundAvg, wrongAvg float64
	for _, i := range c.SoundRules {
		soundAvg += scores[i].Score
	}
	soundAvg /= float64(len(c.SoundRules))
	for _, i := range c.WrongRules {
		wrongAvg += scores[i].Score
	}
	wrongAvg /= float64(len(c.WrongRules))
	if soundAvg <= wrongAvg {
		t.Fatalf("sound rules should outscore wrong rules: %.3f vs %.3f", soundAvg, wrongAvg)
	}
	t.Logf("avg score: sound %.3f, wrong %.3f", soundAvg, wrongAvg)
}

func TestS1GrowsRules(t *testing.T) {
	c := testCorpus(t)
	target := len(c.KB.Rules) * 3
	grown, err := S1(c, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Rules) != target {
		t.Fatalf("S1 rules = %d, want %d", len(grown.Rules), target)
	}
	// All synthetic rules must still partition.
	if _, err := grown.MLNPartitions(); err != nil {
		t.Fatal(err)
	}
	// Shrinking keeps a prefix.
	shrunk, err := S1(c, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Rules) != 5 {
		t.Fatalf("S1 shrink = %d rules", len(shrunk.Rules))
	}
	// The original is untouched.
	if len(c.KB.Rules) == target {
		t.Fatal("S1 mutated the base corpus")
	}
}

func TestS2GrowsFacts(t *testing.T) {
	c := testCorpus(t)
	target := c.KB.NumFacts() * 2
	grown, err := S2(c, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumFacts() != target {
		t.Fatalf("S2 facts = %d, want %d", grown.NumFacts(), target)
	}
	if c.KB.NumFacts() == target {
		t.Fatal("S2 mutated the base corpus")
	}
	if _, err := S2(c, 1, 5); err == nil {
		t.Fatal("S2 below base size should error")
	}
	// Grown facts are type-correct: every fact's classes match a known
	// relation signature.
	sigs := make(map[[3]int32]bool)
	for _, r := range grown.Relations {
		sigs[[3]int32{r.ID, r.Domain, r.Range}] = true
	}
	for i := range grown.NumFacts() {
		f := grown.FactAt(i)
		if !sigs[[3]int32{f.Rel, f.XClass, f.YClass}] {
			t.Fatalf("fact %+v has unregistered signature", f)
		}
	}
}

func TestGroundingScalesWithS2(t *testing.T) {
	// Smoke test: the grounders handle a grown S2 KB.
	c := testCorpus(t)
	grown, err := S2(c, c.KB.NumFacts()+500, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ground.Ground(grown, ground.Options{MaxIterations: 1, SkipFactors: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Facts.NumRows() < grown.Stats().Facts {
		t.Fatal("S2 grounding lost facts")
	}
}

func TestGeneratedCorpusValidates(t *testing.T) {
	c := testCorpus(t)
	if errs := c.KB.Validate(); len(errs) != 0 {
		for i, e := range errs {
			if i > 5 {
				break
			}
			t.Log(e)
		}
		t.Fatalf("generated corpus fails validation with %d errors", len(errs))
	}
	// The taxonomy is declared: City ⊆ Place.
	city, okC := c.KB.Classes.Lookup("City")
	place, okP := c.KB.Classes.Lookup("Place")
	if !okC || !okP || !c.KB.IsSubclass(city, place) {
		t.Fatal("taxonomy not declared in generated corpus")
	}
}

func TestWorldContainsObservedTrueFacts(t *testing.T) {
	c := testCorpus(t)
	// Facts sampled from the world (not planted false) must be judged
	// true by construction.
	for i := range c.KB.NumFacts() {
		f := c.KB.FactAt(i)
		key := f.Key()
		if c.Oracle.plantedFalse[key] {
			continue
		}
		if !c.Oracle.Judge(key) {
			// Could be a fabrication that landed on another symbol
			// rendering. Count these.
			t.Logf("non-planted fact judged false: %s", c.KB.FactString(f))
		}
	}
}

var _ = kb.TypeI // keep import
