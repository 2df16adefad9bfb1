package ground_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// The Δ-factor differential. A run that continues from a computed TΦ
// maintains it from the facts added since (deltafactors.go), and what it
// builds must be the table Query 2 states over the run's whole TΠ — row
// for row, not merely as a multiset: the factor graph's adjacency, and
// with it every floating-point sum inference makes, follows TΦ's order.

// factorStream continues one grounding through ground.Extend rounds the
// way ExtendWith, ExtendWithDeferred and RefreshMarginals do — each round
// from the last one's result and, under constraints, a copy of its
// checker — and holds the TΦ of every round that grounds factors to
// Query 2 recomputed over that round's TΠ.
type factorStream struct {
	t       *testing.T
	name    string
	k       *kb.KB
	checker *quality.Checker // nil: no constraints
	res     *ground.Result
	// removed holds the facts the constraint passes deleted, for batches
	// that bring them back.
	removed []kb.Fact
	// checked counts the rounds compared; headSide the clauses of those
	// rounds whose head arrived in the round while every body fact
	// predates it; reused the rounds that hand out a fact ID the prior TΦ
	// was computed above.
	checked, headSide, reused int
}

// hook returns the next run's constraint hook: a copy of the last run's
// checker, recording what each pass deletes.
func (s *factorStream) hook() func(*engine.Table) int {
	if s.checker == nil {
		return nil
	}
	c := s.checker.Clone()
	s.checker = c
	return s.recording(c.Apply)
}

// recording wraps a constraint hook so that what it deletes lands in
// s.removed.
func (s *factorStream) recording(del func(*engine.Table) int) func(*engine.Table) int {
	return func(tpi *engine.Table) int {
		before := tpi.Clone()
		n := del(tpi)
		if n > 0 {
			s.removed = append(s.removed, lost(rows(before), ground.FactSet(tpi))...)
		}
		return n
	}
}

// start grounds s.k from scratch, semi-naively as KB.Expand does. With
// forget set the run's hook deletes every derived fact with an even ID,
// and nothing remembers it: TΠ lacks facts derivable from its own, which
// a batch bringing one back grounds through the head-side leg, and a
// deleted top ID is handed out again by the next run.
func (s *factorStream) start(forget bool) {
	s.t.Helper()
	hook := s.hook()
	if forget {
		base := int32(len(s.k.Facts))
		hook = s.recording(func(tpi *engine.Table) int {
			ids := tpi.Int32Col(kb.TPiI)
			return tpi.DeleteWhere(func(r int) bool { return ids[r] >= base && ids[r]%2 == 0 })
		})
	}
	res, err := ground.Ground(s.k, ground.Options{SemiNaive: true, ConstraintHook: hook})
	if err != nil {
		s.t.Fatalf("%s: %v", s.name, err)
	}
	s.res = res
}

// extend runs one round over batch and, when it grounds factors, checks
// its TΦ.
func (s *factorStream) extend(batch []kb.Fact, skipFactors bool) {
	s.t.Helper()
	s.round(batch, ground.Options{SemiNaive: true, SkipFactors: skipFactors, ConstraintHook: s.hook()})
}

// refresh runs the round RefreshMarginals runs: nothing added, factors
// on, and no constraint hook whatever the lineage ran under.
func (s *factorStream) refresh() {
	s.t.Helper()
	s.round(nil, ground.Options{SemiNaive: true})
}

func (s *factorStream) round(batch []kb.Fact, opts ground.Options) {
	s.t.Helper()
	at, w := ground.FactorWatermark(s.res)
	res, err := ground.Extend(s.k, s.res, batch, opts)
	if err != nil {
		s.t.Fatalf("%s: %v", s.name, err)
	}
	s.res = res
	if opts.SkipFactors {
		return
	}
	s.checked++
	if w < at {
		s.reused++
	}
	want := ground.RecomputeFactors(s.t, s.k, res.Facts)
	if r := firstDiff(res.Factors, want); r >= 0 {
		s.t.Fatalf("%s, round %d: maintained TΦ (%d rows) differs from Query 2 over its TΠ (%d rows) from row %d",
			s.name, s.checked, res.Factors.NumRows(), want.NumRows(), r)
	}
	i1s, i2s, i3s := res.Factors.Int32Col(ground.TPhiI1), res.Factors.Int32Col(ground.TPhiI2), res.Factors.Int32Col(ground.TPhiI3)
	for r := range i1s {
		if i2s[r] != engine.NullInt32 && i1s[r] >= w && i2s[r] < w && i3s[r] < w {
			s.headSide++
		}
	}
}

// firstDiff returns the first row at which a and b differ in any column,
// floats compared by their bits, or -1 when they are the same table.
func firstDiff(a, b *engine.Table) int {
	n := min(a.NumRows(), b.NumRows())
	first := -1
	if a.NumRows() != b.NumRows() {
		first = n
	}
	for c, col := range a.Schema().Cols {
		for r := 0; r < n && (first < 0 || r < first); r++ {
			var same bool
			if col.Type == engine.Float64 {
				same = math.Float64bits(a.Float64Col(c)[r]) == math.Float64bits(b.Float64Col(c)[r])
			} else {
				same = a.Int32Col(c)[r] == b.Int32Col(c)[r]
			}
			if !same {
				first = r
			}
		}
	}
	return first
}

// rows lists t's facts.
func rows(t *engine.Table) []kb.Fact {
	out := make([]kb.Fact, t.NumRows())
	for r := range out {
		out[r] = kb.FactAtRow(t, r)
	}
	return out
}

// keys is the set of the facts' identity keys.
func keys(facts []kb.Fact) map[kb.Key]bool {
	out := make(map[kb.Key]bool, len(facts))
	for _, f := range facts {
		out[f.Key()] = true
	}
	return out
}

// lost lists the facts whose keys held does not contain.
func lost(facts []kb.Fact, held map[kb.Key]bool) []kb.Fact {
	var out []kb.Fact
	for _, f := range facts {
		if !held[f.Key()] {
			out = append(out, f)
		}
	}
	return out
}

// pick draws up to n of facts, each as a fresh observation.
func pick(rng *rand.Rand, facts []kb.Fact, n int) []kb.Fact {
	var out []kb.Fact
	for ; n > 0 && len(facts) > 0; n-- {
		f := facts[rng.Intn(len(facts))]
		f.W = 0.5 + rng.Float64()/2
		out = append(out, f)
	}
	return out
}

// randomFacts draws n facts over k's vocabulary.
func randomFacts(rng *rand.Rand, k *kb.KB, n int) []kb.Fact {
	out := make([]kb.Fact, n)
	for i := range out {
		out[i] = kb.Fact{
			Rel: rng.Int31n(int32(k.RelDict.Len())),
			X:   rng.Int31n(int32(k.Entities.Len())), XClass: rng.Int31n(int32(k.Classes.Len())),
			Y: rng.Int31n(int32(k.Entities.Len())), YClass: rng.Int31n(int32(k.Classes.Len())),
			W: 0.5 + rng.Float64()/2,
		}
	}
	return out
}

// streamed derives n facts from TΠ's own: a random fact's subject paired
// with the object of the fact before it, when the two share a relation.
func streamed(rng *rand.Rand, tpi *engine.Table, n int) []kb.Fact {
	var out []kb.Fact
	for tries := 0; len(out) < n && tries < 1000*n; tries++ {
		r := 1 + rng.Intn(tpi.NumRows()-1)
		a, b := kb.FactAtRow(tpi, r), kb.FactAtRow(tpi, r-1)
		if a.Rel == b.Rel && a.X != b.Y {
			out = append(out, kb.Fact{Rel: a.Rel, X: a.X, XClass: a.XClass, Y: b.Y, YClass: b.YClass, W: 0.9})
		}
	}
	return out
}

// TestMaintainedFactorsMatchQuery2 runs the differential over random KBs:
// unconstrained; started under a hook that forgets what it deleted (see
// start); and with random functional constraints under the real checker,
// PreClean first on half of those. Each KB gets a stream of rounds with
// factors on and off at random, whose batches mix random facts, facts of
// the unconstrained closure TΠ lacks, and facts that a hook or PreClean
// removed, then a deferred round and a
// refresh: a round that adds nothing and, as RefreshMarginals, runs no
// constraint hook whatever the lineage ran under.
func TestMaintainedFactorsMatchQuery2(t *testing.T) {
	var checked, headSide, reused, brought int
	for seed := int64(0); seed < 96; seed++ {
		rng := rand.New(rand.NewSource(seed + 11000))
		s := &factorStream{t: t, name: fmt.Sprintf("seed %d", seed)}
		var victims []kb.Fact
		forget := false
		switch seed % 4 {
		case 0:
			s.k = ground.RandomKB(rng)
		case 1:
			s.k, forget = ground.RandomKB(rng), true
		default:
			s.k = constrainedKB(2 * seed)
			if seed%4 == 3 {
				before := slices.Clone(s.k.Facts)
				quality.PreClean(s.k)
				victims = lost(before, keys(s.k.Facts))
			}
			s.checker = quality.NewChecker(s.k)
		}
		closure, err := ground.Ground(s.k, ground.Options{SkipFactors: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		derivable := rows(closure.Facts)
		s.start(forget)
		for round := 0; round < 6; round++ {
			batch := randomFacts(rng, s.k, 1+rng.Intn(3))
			batch = append(batch, pick(rng, lost(derivable, ground.FactSet(s.res.Facts)), 3)...)
			back := append(pick(rng, s.removed, 2), pick(rng, victims, 2)...)
			brought += len(back)
			s.extend(append(batch, back...), rng.Intn(3) == 0)
		}
		s.extend(randomFacts(rng, s.k, 2), true)
		s.refresh()
		checked += s.checked
		headSide += s.headSide
		reused += s.reused
	}
	t.Logf("%d rounds checked (%d handing out an ID again), %d head-side clauses, %d removed facts brought back",
		checked, reused, headSide, brought)
	if headSide == 0 || reused == 0 || brought == 0 {
		t.Fatalf("generator too tame: %d head-side clauses, %d rounds handing out an ID again, %d removed facts brought back",
			headSide, reused, brought)
	}
}

// TestMaintainedFactorsOnCorpus runs the differential on the scale-0.05
// corpus, unconstrained and under the checker after PreClean, grounded as
// KB.Expand grounds it: rounds of 48 streamed facts plus facts that the
// constraint passes and PreClean removed, factors on and off at random,
// then a deferred round and a refresh.
func TestMaintainedFactorsOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds the scale-0.05 corpus")
	}
	c, err := synth.ReVerbSherlock(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, constrained := range []bool{false, true} {
		s := &factorStream{t: t, name: fmt.Sprintf("constrained=%v", constrained), k: c.KB.Clone()}
		var victims []kb.Fact
		if constrained {
			before := slices.Clone(s.k.Facts)
			quality.PreClean(s.k)
			victims = lost(before, keys(s.k.Facts))
			s.checker = quality.NewChecker(s.k)
		}
		s.start(false)
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 6; round++ {
			batch := streamed(rng, s.res.Facts, 48)
			batch = append(batch, pick(rng, s.removed, 8)...)
			batch = append(batch, pick(rng, victims, 8)...)
			s.extend(batch, rng.Intn(2) == 0)
		}
		s.extend(streamed(rng, s.res.Facts, 48), true)
		s.refresh()
		if s.checked < 2 || (constrained && (len(s.removed) == 0 || len(victims) == 0)) {
			t.Fatalf("%s: %d rounds checked, %d facts removed by passes, %d by PreClean", s.name, s.checked, len(s.removed), len(victims))
		}
		t.Logf("%s: %d rounds checked, TΦ %d rows", s.name, s.checked, s.res.Factors.NumRows())
	}
}
