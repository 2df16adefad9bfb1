package ground

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/mpp"
)

// paperKB reconstructs the running example of Table 1 / Figure 3.
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
			t.Fatalf("parse %q: %v", line, err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// factSet extracts the set of fact keys from a TΠ table.
func factSet(t *engine.Table) map[kb.Key]bool {
	out := make(map[kb.Key]bool, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		out[kb.FactAtRow(t, r).Key()] = true
	}
	return out
}

// factorKey is a comparable rendering of one factor, with fact IDs
// resolved to fact keys so different grounders (which may assign
// different IDs) can be compared.
type factorKey struct {
	f1, f2, f3 kb.Key
	has2, has3 bool
	w          float64
}

func factorMultiset(t *testing.T, res *Result) map[factorKey]int {
	t.Helper()
	// Map fact ID → key.
	byID := make(map[int32]kb.Key, res.Facts.NumRows())
	ids := res.Facts.Int32Col(kb.TPiI)
	for r := 0; r < res.Facts.NumRows(); r++ {
		byID[ids[r]] = kb.FactAtRow(res.Facts, r).Key()
	}
	out := make(map[factorKey]int)
	i1s := res.Factors.Int32Col(TPhiI1)
	i2s := res.Factors.Int32Col(TPhiI2)
	i3s := res.Factors.Int32Col(TPhiI3)
	ws := res.Factors.Float64Col(TPhiW)
	for r := 0; r < res.Factors.NumRows(); r++ {
		fk := factorKey{w: ws[r]}
		var ok bool
		if fk.f1, ok = byID[i1s[r]]; !ok {
			t.Fatalf("factor row %d references unknown fact %d", r, i1s[r])
		}
		if i2s[r] != engine.NullInt32 {
			fk.has2 = true
			if fk.f2, ok = byID[i2s[r]]; !ok {
				t.Fatalf("factor row %d references unknown fact %d", r, i2s[r])
			}
		}
		if i3s[r] != engine.NullInt32 {
			fk.has3 = true
			if fk.f3, ok = byID[i3s[r]]; !ok {
				t.Fatalf("factor row %d references unknown fact %d", r, i3s[r])
			}
		}
		out[fk]++
	}
	return out
}

func factorsEqual(a, b map[factorKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// bruteForceClosure computes the fact closure by direct semantic rule
// application — the oracle the relational grounders must match.
func bruteForceClosure(k *kb.KB) map[kb.Key]bool {
	facts := make(map[kb.Key]bool)
	for _, f := range k.Facts {
		facts[f.Key()] = true
	}
	matches := func(key kb.Key, a mln.Atom, c *mln.Clause) bool {
		return key.Rel == a.Rel && key.XClass == c.Class[a.Arg1] && key.YClass == c.Class[a.Arg2]
	}
	for changed := true; changed; {
		changed = false
		var newKeys []kb.Key
		for i := range k.Rules {
			c := &k.Rules[i]
			if len(c.Body) == 1 {
				b := c.Body[0]
				for key := range facts {
					if !matches(key, b, c) {
						continue
					}
					val := map[mln.Var]int32{b.Arg1: key.X, b.Arg2: key.Y}
					h := kb.Key{Rel: c.Head.Rel, X: val[mln.X], XClass: c.Class[mln.X],
						Y: val[mln.Y], YClass: c.Class[mln.Y]}
					if !facts[h] {
						newKeys = append(newKeys, h)
					}
				}
				continue
			}
			b0, b1 := c.Body[0], c.Body[1]
			for k0 := range facts {
				if !matches(k0, b0, c) {
					continue
				}
				v0 := map[mln.Var]int32{b0.Arg1: k0.X, b0.Arg2: k0.Y}
				for k1 := range facts {
					if !matches(k1, b1, c) {
						continue
					}
					v1 := map[mln.Var]int32{b1.Arg1: k1.X, b1.Arg2: k1.Y}
					if v0[mln.Z] != v1[mln.Z] {
						continue
					}
					h := kb.Key{Rel: c.Head.Rel, X: v0[mln.X], XClass: c.Class[mln.X],
						Y: v1[mln.Y], YClass: c.Class[mln.Y]}
					if !facts[h] {
						newKeys = append(newKeys, h)
					}
				}
			}
		}
		for _, nk := range newKeys {
			if !facts[nk] {
				facts[nk] = true
				changed = true
			}
		}
	}
	return facts
}

func TestBatchGroundPaperExample(t *testing.T) {
	k := paperKB(t)
	res, err := Ground(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("grounding did not converge")
	}
	if res.BaseFacts != 2 {
		t.Fatalf("base facts = %d, want 2", res.BaseFacts)
	}
	// Expected closure: 2 observed + live_in(RG, Brooklyn), live_in(RG,
	// NYC), located_in(Brooklyn, NYC) = 5 facts.
	if res.Facts.NumRows() != 5 {
		t.Fatalf("closure has %d facts, want 5:\n%s", res.Facts.NumRows(), res.Facts)
	}
	if res.InferredFacts() != 3 {
		t.Fatalf("inferred = %d, want 3", res.InferredFacts())
	}
	got := factSet(res.Facts)
	liveIn, _ := k.RelDict.Lookup("live_in")
	locatedIn, _ := k.RelDict.Lookup("located_in")
	writer, _ := k.Classes.Lookup("Writer")
	place, _ := k.Classes.Lookup("Place")
	city, _ := k.Classes.Lookup("City")
	rg, _ := k.Entities.Lookup("Ruth_Gruber")
	nyc, _ := k.Entities.Lookup("New_York_City")
	br, _ := k.Entities.Lookup("Brooklyn")
	for _, want := range []kb.Key{
		{Rel: liveIn, X: rg, XClass: writer, Y: br, YClass: place},
		{Rel: liveIn, X: rg, XClass: writer, Y: nyc, YClass: city},
		{Rel: locatedIn, X: br, XClass: place, Y: nyc, YClass: city},
	} {
		if !got[want] {
			t.Fatalf("missing inferred fact %+v in %v", want, got)
		}
	}
	// Factors: 2 singletons + 2 from M1 + 2 from M3 = 6 (Figure 3(e)
	// minus the grow_up_in rules this KB omits).
	if res.Factors.NumRows() != 6 {
		t.Fatalf("factors = %d, want 6:\n%s", res.Factors.NumRows(), res.Factors)
	}
	// Inferred facts carry NULL weights.
	nulls := 0
	for r := 0; r < res.Facts.NumRows(); r++ {
		if engine.IsNullFloat64(res.Facts.Float64Col(kb.TPiW)[r]) {
			nulls++
		}
	}
	if nulls != 3 {
		t.Fatalf("NULL-weight facts = %d, want 3", nulls)
	}
}

func TestBatchGroundFactorWeights(t *testing.T) {
	k := paperKB(t)
	res, err := Ground(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Collect factor weights; expect the 4 rule weights and 2 fact weights.
	var ws []float64
	for r := 0; r < res.Factors.NumRows(); r++ {
		ws = append(ws, res.Factors.Float64Col(TPhiW)[r])
	}
	sort.Float64s(ws)
	want := []float64{0.32, 0.52, 0.93, 0.96, 1.40, 1.53}
	if len(ws) != len(want) {
		t.Fatalf("weights = %v", ws)
	}
	for i := range want {
		if math.Abs(ws[i]-want[i]) > 1e-9 {
			t.Fatalf("weights = %v, want %v", ws, want)
		}
	}
}

func TestBatchMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		k := randomKB(rand.New(rand.NewSource(seed)))
		res, err := Ground(k, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteForceClosure(k)
		got := factSet(res.Facts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: closure size %d, oracle %d", seed, len(got), len(want))
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("seed %d: oracle fact %+v missing", seed, key)
			}
		}
	}
}

// randomKB builds a small random KB whose rules actually fire: a handful
// of classes, relation names used by both facts and rules.
func randomKB(rng *rand.Rand) *kb.KB {
	k := kb.New()
	classes := []string{"A", "B", "C"}
	rels := []string{"r0", "r1", "r2", "r3", "r4"}
	ents := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"}

	nf := 8 + rng.Intn(12)
	for i := 0; i < nf; i++ {
		k.InternFact(
			rels[rng.Intn(len(rels))],
			ents[rng.Intn(len(ents))], classes[rng.Intn(len(classes))],
			ents[rng.Intn(len(ents))], classes[rng.Intn(len(classes))],
			0.5+rng.Float64()/2)
	}
	nr := 3 + rng.Intn(6)
	for i := 0; i < nr; i++ {
		cls := map[int]int32{
			0: k.Classes.Intern(classes[rng.Intn(len(classes))]),
			1: k.Classes.Intern(classes[rng.Intn(len(classes))]),
			2: k.Classes.Intern(classes[rng.Intn(len(classes))]),
		}
		relID := func() int32 { return k.RelDict.Intern(rels[rng.Intn(len(rels))]) }
		head := mln.RawAtom{Rel: relID(), Arg1: 0, Arg2: 1}
		var body []mln.RawAtom
		switch rng.Intn(6) {
		case 0:
			body = []mln.RawAtom{{Rel: relID(), Arg1: 0, Arg2: 1}}
		case 1:
			body = []mln.RawAtom{{Rel: relID(), Arg1: 1, Arg2: 0}}
		case 2:
			body = []mln.RawAtom{{Rel: relID(), Arg1: 2, Arg2: 0}, {Rel: relID(), Arg1: 2, Arg2: 1}}
		case 3:
			body = []mln.RawAtom{{Rel: relID(), Arg1: 0, Arg2: 2}, {Rel: relID(), Arg1: 2, Arg2: 1}}
		case 4:
			body = []mln.RawAtom{{Rel: relID(), Arg1: 2, Arg2: 0}, {Rel: relID(), Arg1: 1, Arg2: 2}}
		case 5:
			body = []mln.RawAtom{{Rel: relID(), Arg1: 0, Arg2: 2}, {Rel: relID(), Arg1: 1, Arg2: 2}}
		}
		c, err := mln.Canonicalize(head, body, cls, 0.1+rng.Float64())
		if err != nil {
			panic(err)
		}
		if err := k.AddRule(c); err != nil {
			panic(err)
		}
	}
	return k
}

// TestGroundersAgree is the flagship equivalence test: batch, Tuffy-T,
// ProbKB-p (MPP with views), and ProbKB-pn (MPP without) must produce the
// same fact closure and the same factor multiset on random KBs.
func TestGroundersAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		k := randomKB(rand.New(rand.NewSource(seed + 1000)))

		batch, err := Ground(k, Options{})
		if err != nil {
			t.Fatalf("seed %d batch: %v", seed, err)
		}

		tg, err := NewTuffy(k, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tuffy, err := tg.Ground()
		if err != nil {
			t.Fatalf("seed %d tuffy: %v", seed, err)
		}

		cluster := mpp.NewCluster(3)
		mg, err := NewMPP(k, Options{}, cluster, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mppViews, err := mg.Ground()
		if err != nil {
			t.Fatalf("seed %d mpp+views: %v", seed, err)
		}

		mgn, err := NewMPP(k, Options{}, mpp.NewCluster(2), false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mppNoViews, err := mgn.Ground()
		if err != nil {
			t.Fatalf("seed %d mpp-noviews: %v", seed, err)
		}

		want := factSet(batch.Facts)
		for name, res := range map[string]*Result{
			"tuffy": tuffy, "mpp+views": mppViews, "mpp-noviews": mppNoViews,
		} {
			got := factSet(res.Facts)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s closure size %d, batch %d", seed, name, len(got), len(want))
			}
			for key := range want {
				if !got[key] {
					t.Fatalf("seed %d: %s missing fact %+v", seed, name, key)
				}
			}
		}

		wantF := factorMultiset(t, batch)
		for name, res := range map[string]*Result{
			"tuffy": tuffy, "mpp+views": mppViews, "mpp-noviews": mppNoViews,
		} {
			if got := factorMultiset(t, res); !factorsEqual(got, wantF) {
				t.Fatalf("seed %d: %s factor multiset differs (got %d kinds, want %d)",
					seed, name, len(got), len(wantF))
			}
		}
	}
}

// TestSemiNaiveEquivalence: semi-naive evaluation reaches exactly the
// naive fixpoint, facts and factors both, on random KBs.
func TestSemiNaiveEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		k := randomKB(rand.New(rand.NewSource(seed + 5000)))
		naive, err := Ground(k, Options{})
		if err != nil {
			t.Fatalf("seed %d naive: %v", seed, err)
		}
		semi, err := Ground(k, Options{SemiNaive: true})
		if err != nil {
			t.Fatalf("seed %d semi: %v", seed, err)
		}
		want := factSet(naive.Facts)
		got := factSet(semi.Facts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: semi-naive closure %d facts, naive %d", seed, len(got), len(want))
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("seed %d: semi-naive missing %+v", seed, key)
			}
		}
		if !factorsEqual(factorMultiset(t, naive), factorMultiset(t, semi)) {
			t.Fatalf("seed %d: factor multisets differ", seed)
		}
	}
}

// TestSemiNaiveWithConstraintHook: under a hook that deletes, the
// semi-naive closure still matches the naive one.
func TestSemiNaiveWithConstraintHook(t *testing.T) {
	k := paperKB(t)
	locatedIn, _ := k.RelDict.Lookup("located_in")
	hook := func(tpi *engine.Table) int {
		return tpi.DeleteWhere(func(r int) bool {
			return tpi.Int32Col(kb.TPiR)[r] == locatedIn
		})
	}
	naive, err := Ground(k, Options{MaxIterations: 5, ConstraintHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := Ground(k, Options{MaxIterations: 5, ConstraintHook: hook, SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := factSet(naive.Facts)
	got := factSet(semi.Facts)
	if len(got) != len(want) {
		t.Fatalf("closures differ: %d vs %d", len(got), len(want))
	}
	for key := range want {
		if !got[key] {
			t.Fatalf("semi-naive missing %+v", key)
		}
	}
}

// TestSemiNaiveRearmsAfterRemoval: a constraint deletion must not
// disarm semi-naive evaluation for the rest of the run. The hook here
// fires on a fact naive joins keep re-deriving from the base, so the
// old row-offset delta (invalidated to -1 on any removal) degenerated
// into naive churn: the violation was re-derived and re-deleted every
// iteration and the run never converged. With the fact-ID watermark the
// deleted fact simply leaves the delta, the chain keeps deriving
// incrementally, and the run converges with exactly one deletion.
func TestSemiNaiveRearmsAfterRemoval(t *testing.T) {
	build := func() *kb.KB {
		k := kb.New()
		k.InternFact("r0", "a", "C", "b", "C", 0.9)
		rules := []string{"1.0 bad(x:C, y:C) :- r0(x:C, y:C)"}
		for i := 0; i < 6; i++ {
			rules = append(rules, fmt.Sprintf("1.0 r%d(x:C, y:C) :- r%d(x:C, y:C)", i+1, i))
		}
		for _, line := range rules {
			c, err := k.ParseRule(line)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if err := k.AddRule(c); err != nil {
				t.Fatal(err)
			}
		}
		return k
	}
	hookFor := func(k *kb.KB) func(*engine.Table) int {
		bad, ok := k.RelDict.Lookup("bad")
		if !ok {
			t.Fatal("no bad relation")
		}
		return func(tpi *engine.Table) int {
			return tpi.DeleteWhere(func(r int) bool {
				return tpi.Int32Col(kb.TPiR)[r] == bad
			})
		}
	}

	ks := build()
	semi, err := Ground(ks, Options{MaxIterations: 20, ConstraintHook: hookFor(ks), SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !semi.Converged {
		t.Fatalf("semi-naive run did not converge in %d iterations: the removal disarmed the delta", semi.Iterations)
	}
	// r1 and bad derive in iteration 1, r2..r6 one per iteration after
	// that; iteration 7 finds the empty delta and fixpoints.
	if semi.Iterations != 7 {
		t.Fatalf("iterations = %d, want 7", semi.Iterations)
	}
	deleted := 0
	for _, st := range semi.PerIteration {
		deleted += st.Deleted
	}
	if deleted != 1 {
		t.Fatalf("total deletions = %d, want 1 (re-derivation churn means the delta went naive)", deleted)
	}

	// The closure still matches the naive oracle (which re-derives and
	// re-deletes the violation every iteration, ending on the same fact
	// set).
	kn := build()
	naive, err := Ground(kn, Options{MaxIterations: 20, ConstraintHook: hookFor(kn)})
	if err != nil {
		t.Fatal(err)
	}
	want := factSet(naive.Facts)
	got := factSet(semi.Facts)
	if len(got) != len(want) {
		t.Fatalf("closures differ: semi %d facts, naive %d", len(got), len(want))
	}
	for key := range want {
		if !got[key] {
			t.Fatalf("semi-naive missing %+v", key)
		}
	}
}

// TestSemiNaiveChainDepth: a linear implication chain forces one new
// fact per iteration — the worst case for naive re-derivation and the
// best case for semi-naive deltas.
func TestSemiNaiveChainDepth(t *testing.T) {
	k := kb.New()
	k.InternFact("r0", "a", "C", "b", "C", 0.9)
	for i := 0; i < 12; i++ {
		line := fmt.Sprintf("1.0 r%d(x:C, y:C) :- r%d(x:C, y:C)", i+1, i)
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	semi, err := Ground(k, Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if semi.InferredFacts() != 12 {
		t.Fatalf("chain closure = %d new facts, want 12", semi.InferredFacts())
	}
	if semi.Iterations != 13 {
		t.Fatalf("iterations = %d, want 13 (12 derivation steps + fixpoint check)", semi.Iterations)
	}
}

// TestExtendMatchesFullReground: incrementally extending a converged
// closure with new facts must reach the same fact set as regrounding the
// combined KB from scratch.
func TestExtendMatchesFullReground(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed + 9000))
		k := randomKB(rng)
		prev, err := Ground(k, Options{SkipFactors: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// New extractions: facts over the same vocabulary.
		full := k.Clone()
		var newFacts []kb.Fact
		for i := 0; i < 5; i++ {
			rel := rng.Int31n(int32(k.RelDict.Len()))
			f := kb.Fact{
				Rel: rel,
				X:   rng.Int31n(int32(k.Entities.Len())), XClass: rng.Int31n(int32(k.Classes.Len())),
				Y: rng.Int31n(int32(k.Entities.Len())), YClass: rng.Int31n(int32(k.Classes.Len())),
				W: 0.5,
			}
			newFacts = append(newFacts, f)
			full.AddFact(f)
		}

		inc, err := Extend(k, prev, newFacts, Options{SemiNaive: true})
		if err != nil {
			t.Fatalf("seed %d extend: %v", seed, err)
		}
		want, err := Ground(full, Options{})
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		got := factSet(inc.Facts)
		wantSet := factSet(want.Facts)
		if len(got) != len(wantSet) {
			t.Fatalf("seed %d: incremental closure %d facts, full %d", seed, len(got), len(wantSet))
		}
		for key := range wantSet {
			if !got[key] {
				t.Fatalf("seed %d: incremental missing %+v", seed, key)
			}
		}
	}
}

// TestExtendIsIncremental: extending with facts that derive nothing new
// converges after one cheap delta iteration.
func TestExtendIsIncremental(t *testing.T) {
	k := paperKB(t)
	prev, err := Ground(k, Options{SkipFactors: true})
	if err != nil {
		t.Fatal(err)
	}
	// A fact over a relation no rule consumes.
	iso := kb.Fact{
		Rel: k.RelDict.Intern("isolated"),
		X:   k.Entities.Intern("q"), XClass: k.Classes.Intern("Qc"),
		Y: k.Entities.Intern("r"), YClass: k.Classes.Intern("Qc"),
		W: 0.5,
	}
	inc, err := Extend(k, prev, []kb.Fact{iso}, Options{SemiNaive: true, SkipFactors: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Iterations != 1 || !inc.Converged {
		t.Fatalf("iterations = %d converged = %v; want 1, true", inc.Iterations, inc.Converged)
	}
	if inc.Facts.NumRows() != prev.Facts.NumRows()+1 {
		t.Fatalf("facts = %d, want prior+1", inc.Facts.NumRows())
	}
	// A duplicate of an existing fact adds nothing at all.
	dup := kb.FactAtRow(prev.Facts, 0)
	inc2, err := Extend(k, prev, []kb.Fact{dup}, Options{SemiNaive: true, SkipFactors: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc2.Facts.NumRows() != prev.Facts.NumRows() {
		t.Fatal("duplicate new fact was appended")
	}
}

func TestQueryCountScaling(t *testing.T) {
	k := paperKB(t)
	batch, err := Ground(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tg, _ := NewTuffy(k, Options{})
	tuffy, err := tg.Ground()
	if err != nil {
		t.Fatal(err)
	}
	// Batch: queries per iteration = non-empty partitions (2: M1, M3).
	// Tuffy: queries per iteration = number of rules (4).
	if got := batch.PerIteration[0].Queries; got != 2 {
		t.Fatalf("batch queries/iter = %d, want 2", got)
	}
	if got := tuffy.PerIteration[0].Queries; got != 4 {
		t.Fatalf("tuffy queries/iter = %d, want 4", got)
	}
	if batch.Iterations != tuffy.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", batch.Iterations, tuffy.Iterations)
	}
}

func TestMaxIterationsCap(t *testing.T) {
	k := paperKB(t)
	res, err := Ground(k, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
	if res.Converged {
		t.Fatal("capped run should not report convergence")
	}
	// One iteration of the paper example infers all 3 facts (born_in
	// pairs drive everything), but convergence needs a second pass.
	if res.InferredFacts() != 3 {
		t.Fatalf("inferred after 1 iter = %d", res.InferredFacts())
	}
}

func TestSkipFactors(t *testing.T) {
	k := paperKB(t)
	res, err := Ground(k, Options{SkipFactors: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Factors != nil {
		t.Fatal("SkipFactors still produced factors")
	}
	if res.FactorQueries != 0 {
		t.Fatal("SkipFactors still counted factor queries")
	}
}

func TestConstraintHookRuns(t *testing.T) {
	k := paperKB(t)
	calls := 0
	locatedIn, _ := k.RelDict.Lookup("located_in")
	// A hook that deletes only the derived head (the paper's
	// applyConstraints removes the *entity's* facts, body included) sees
	// naive evaluation derive it again next iteration. That iteration
	// ends the run all the same: the fixpoint is "nothing appended this
	// iteration survived the hook", not "nothing was appended".
	res, err := Ground(k, Options{
		MaxIterations: 5,
		ConstraintHook: func(tpi *engine.Table) int {
			calls++
			// Delete every located_in fact as soon as it appears.
			return tpi.DeleteWhere(func(r int) bool {
				return tpi.Int32Col(kb.TPiR)[r] == locatedIn
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || res.Iterations != 2 || !res.Converged {
		t.Fatalf("hook ran %d times over %d iterations, converged=%v; want 2, 2, true", calls, res.Iterations, res.Converged)
	}
	for key := range factSet(res.Facts) {
		if key.Rel == locatedIn {
			t.Fatal("deleted fact survived in final closure")
		}
	}
	last := res.PerIteration[1]
	if last.NewFacts == 0 || last.Deleted != last.NewFacts {
		t.Fatalf("iteration 2: +%d -%d; the re-derived facts should be counted as new and as deleted", last.NewFacts, last.Deleted)
	}
}

func TestOnIterationCallback(t *testing.T) {
	k := paperKB(t)
	var iters []int
	_, err := Ground(k, Options{Observer: func(st IterStats, _ *engine.Table) {
		iters = append(iters, st.Iteration)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) < 2 || iters[0] != 1 {
		t.Fatalf("iteration callbacks = %v", iters)
	}
}

func TestSingletonFactorsOnly(t *testing.T) {
	// A KB whose rules never fire still gets singleton factors.
	k := kb.New()
	k.InternFact("r", "a", "A", "b", "B", 0.7)
	c, err := k.ParseRule("1.0 p(x:Q, y:Q) :- q(x:Q, y:Q)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(c); err != nil {
		t.Fatal(err)
	}
	res, err := Ground(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InferredFacts() != 0 {
		t.Fatal("no rules should fire")
	}
	if res.Factors.NumRows() != 1 {
		t.Fatalf("factors = %d, want 1 singleton", res.Factors.NumRows())
	}
	if res.Factors.Int32Col(TPhiI2)[0] != engine.NullInt32 {
		t.Fatal("singleton factor should have NULL I2")
	}
}

func TestMPPAtomsPlanShapes(t *testing.T) {
	// ProbKB-p plans for length-3 rules use views (redistribute only the
	// small intermediate); ProbKB-pn plans broadcast the intermediate.
	k := paperKB(t)
	cluster := mpp.NewCluster(2)

	gp, err := NewMPP(k, Options{}, cluster, true)
	if err != nil {
		t.Fatal(err)
	}
	gp.load()
	planWith := gp.AtomsPlan(mln.P3)
	rw, bw := mpp.CountMotions(planWith)
	if bw != 0 {
		t.Fatalf("ProbKB-p plan broadcasts (%d); Figure 4 optimized plan must not", bw)
	}
	if rw == 0 {
		t.Fatal("ProbKB-p plan should redistribute the intermediate result")
	}

	gn, err := NewMPP(k, Options{}, mpp.NewCluster(2), false)
	if err != nil {
		t.Fatal(err)
	}
	gn.load()
	planWithout := gn.AtomsPlan(mln.P3)
	_, bn := mpp.CountMotions(planWithout)
	if bn == 0 {
		t.Fatal("ProbKB-pn plan should broadcast (Figure 4 unoptimized shape)")
	}
}

func TestGroundersEmptyRuleSet(t *testing.T) {
	k := kb.New()
	k.InternFact("r", "a", "A", "b", "B", 0.7)
	res, err := Ground(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InferredFacts() != 0 || !res.Converged {
		t.Fatal("empty rule set should converge immediately with no inferences")
	}
}

// printedRows renders a table as sorted printed rows: an
// order-insensitive fingerprint for comparing plan results.
func printedRows(t *engine.Table) []string {
	rows := make([]string, t.NumRows())
	for r := range rows {
		for c := 0; c < t.Schema().NumCols(); c++ {
			rows[r] += t.ValueString(r, c) + "|"
		}
	}
	sort.Strings(rows)
	return rows
}

// TestLoweredGroundingPlansMatchSingleNode is the differential for the
// plans the two engines now share: over random KBs grounded to their
// closure, every non-empty partition's Query 1-p (naive and the
// semi-naive Δ forms) and Query 2-p, lowered onto a cluster with and
// without views, returns the rows the very same engine plan returns on
// one node. All six partitions must come up.
func TestLoweredGroundingPlansMatchSingleNode(t *testing.T) {
	covered := map[int]bool{}
	nonEmpty := 0
	for seed := int64(0); seed < 30; seed++ {
		k := randomKB(rand.New(rand.NewSource(seed + 7000)))
		closure, err := Ground(k, Options{SkipFactors: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, useViews := range []bool{true, false} {
			g, err := NewMPP(k, Options{}, mpp.NewCluster(3), useViews)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := g.load(); err != nil {
				t.Fatal(err)
			}
			// Swap the base facts for their closure so two-atom bodies
			// find partners.
			g.tpi = closure.Facts
			if err := g.redistribute(); err != nil {
				t.Fatal(err)
			}
			if err := g.ensureHeadView(); err != nil {
				t.Fatal(err)
			}
			delta := deltaRows(g.tpi, int32(closure.BaseFacts))

			for _, p := range g.batch.parts.NonEmpty() {
				covered[p] = true
				plans := map[string]func() engine.Node{
					"atoms":   func() engine.Node { return g.batch.atomsPlan(p, g.tpi, g.tpi) },
					"factors": func() engine.Node { return g.batch.factorsPlan(p, g.tpi) },
				}
				for i, plan := range g.batch.atomsPlans(p, g.tpi, delta, nil) {
					plan := plan
					plans[fmt.Sprintf("atoms-delta-%d", i)] = func() engine.Node { return plan }
				}
				for name, build := range plans {
					want, err := build().Run()
					if err != nil {
						t.Fatal(err)
					}
					out, err := g.lower(build()).Run()
					if err != nil {
						t.Fatalf("seed %d views=%v P%d %s: %v", seed, useViews, p, name, err)
					}
					got := mpp.Gather(out)
					w, gt := printedRows(want), printedRows(got)
					if fmt.Sprint(w) != fmt.Sprint(gt) {
						t.Fatalf("seed %d views=%v P%d %s: lowered plan returned %d rows, single-node %d\nlowered: %v\nsingle:  %v",
							seed, useViews, p, name, len(gt), len(w), gt, w)
					}
					nonEmpty += len(w)
				}
			}
		}
	}
	for p := mln.P1; p <= mln.P6; p++ {
		if !covered[p] {
			t.Errorf("no random KB had rules in partition P%d", p)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every compared plan was empty; the differential checked nothing")
	}
}

// TestMPPSemiNaiveEquivalence: with the closure loop shared, semi-naive
// evaluation applies on the cluster too — the Δ tables are scattered on
// the fly — and must reach the naive single-node fixpoint, facts and
// factors both.
func TestMPPSemiNaiveEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		k := randomKB(rand.New(rand.NewSource(seed + 5000)))
		naive, err := Ground(k, Options{})
		if err != nil {
			t.Fatalf("seed %d naive: %v", seed, err)
		}
		for _, useViews := range []bool{true, false} {
			g, err := NewMPP(k, Options{SemiNaive: true}, mpp.NewCluster(3), useViews)
			if err != nil {
				t.Fatal(err)
			}
			semi, err := g.Ground()
			if err != nil {
				t.Fatalf("seed %d views=%v: %v", seed, useViews, err)
			}
			want, got := factSet(naive.Facts), factSet(semi.Facts)
			if len(got) != len(want) {
				t.Fatalf("seed %d views=%v: semi-naive MPP closure %d facts, naive %d", seed, useViews, len(got), len(want))
			}
			for key := range want {
				if !got[key] {
					t.Fatalf("seed %d views=%v: semi-naive MPP missing %+v", seed, useViews, key)
				}
			}
			if !factorsEqual(factorMultiset(t, naive), factorMultiset(t, semi)) {
				t.Fatalf("seed %d views=%v: factor multisets differ", seed, useViews)
			}
		}
	}
}
