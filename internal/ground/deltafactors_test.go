package ground_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// The Δ-factor differential. A run that continues from a computed TΦ
// maintains it from the facts added since (deltafactors.go): it keeps the
// prior clause rows that survive and appends the new clauses after them.
// TΦ is a bag, so what it builds must be the table Query 2 states over
// the run's whole TΠ as a multiset, and the factor graph built from it
// must read the same marginals, bit for bit, as the one built from Query
// 2's table: the graph orders each variable's clauses by content, not by
// TΦ row. Query 2 shares its body joins with the maintained legs, so a
// fault in them would show in both; TΦ is also held, as a multiset, to
// Tuffy-T's per-rule factor queries, which share none of that code.
// Every lineage starts from a grounding with factors on — on the
// single-node engine, on a cluster with and without views, or on
// Tuffy-T's plans — so every round, the first included, continues from a
// computed TΦ.

// factorStream continues one grounding through ground.Extend rounds the
// way ExtendWith, ExtendWithDeferred and RefreshMarginals do — each round
// from the last one's result and, under constraints, a copy of its
// checker — and holds the TΦ of every round that grounds factors to
// Query 2 recomputed over that round's TΠ, and to Tuffy-T's TΦ over it.
type factorStream struct {
	t    *testing.T
	name string
	k    *kb.KB
	// on is the backend the lineage starts on: "batch", "mpp" (views on),
	// "mpp-pn" (views off) or "tuffy".
	on      string
	checker *quality.Checker // nil: no constraints
	res     *ground.Result
	// removed holds the facts the constraint passes deleted, for batches
	// that bring them back.
	removed []kb.Fact
	// checked counts the rounds compared; headSide the clauses of those
	// rounds whose head arrived in the round while every body fact
	// predates it; exact and sampled the components the marginal checks
	// enumerated and sampled.
	checked, headSide, exact, sampled int
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

// start grounds s.k from scratch on s.on, semi-naively (Tuffy-T: naively)
// as KB.Expand does. With forget set the run's hook deletes every derived
// fact with an even ID, and nothing remembers it: TΠ lacks facts
// derivable from its own, which a batch bringing one back grounds through
// the head-side leg.
func (s *factorStream) start(forget bool) {
	s.t.Helper()
	hook := s.hook()
	if forget {
		base := int32(s.k.NumFacts())
		hook = s.recording(func(tpi *engine.Table) int {
			ids := tpi.Int32Col(kb.TPiI)
			return tpi.DeleteWhere(func(r int) bool { return ids[r] >= base && ids[r]%2 == 0 })
		})
	}
	opts := ground.Options{SemiNaive: true, ConstraintHook: hook}
	var (
		res *ground.Result
		err error
	)
	switch s.on {
	case "batch":
		res, err = ground.Ground(s.k, opts)
	case "mpp", "mpp-pn":
		var g *ground.MPPGrounder
		if g, err = ground.NewMPP(s.k, opts, mpp.NewCluster(2), s.on == "mpp"); err == nil {
			res, err = g.Ground()
		}
	case "tuffy":
		var g *ground.TuffyGrounder
		if g, err = ground.NewTuffy(s.k, opts); err == nil {
			res, err = g.Ground()
		}
	default:
		s.t.Fatalf("%s: no backend %q", s.name, s.on)
	}
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
	w := ground.FactorWatermark(s.res)
	if w < 0 {
		s.t.Fatalf("%s, after round %d: the lineage started on %s carries no TΦ to maintain", s.name, s.checked, s.on)
	}
	res, err := ground.Extend(s.k, s.res, batch, opts)
	if err != nil {
		s.t.Fatalf("%s: %v", s.name, err)
	}
	s.res = res
	if opts.SkipFactors {
		return
	}
	s.checked++
	where := fmt.Sprintf("%s, round %d", s.name, s.checked)
	want := ground.RecomputeFactors(s.t, s.k, res.Facts)
	if n := multisetDiff(res.Factors, want); n > 0 {
		s.t.Fatalf("%s: maintained TΦ (%d rows) and Query 2 over its TΠ (%d rows) differ in %d rows",
			where, res.Factors.NumRows(), want.NumRows(), n)
	}
	plan := sameMarginals(s.t, where, res.Facts, res.Factors, want)
	s.exact += plan.Exact
	s.sampled += plan.Components - plan.Exact
	// Query 2 and the maintained legs share their body joins; Tuffy-T's
	// per-rule queries do not.
	if n := multisetDiff(res.Factors, ground.TuffyFactors(s.t, s.k, res.Facts)); n > 0 {
		s.t.Fatalf("%s: maintained TΦ and Tuffy-T's per-rule TΦ over its TΠ differ in %d rows", where, n)
	}
	i1s, i2s, i3s := res.Factors.Int32Col(ground.TPhiI1), res.Factors.Int32Col(ground.TPhiI2), res.Factors.Int32Col(ground.TPhiI3)
	for r := range i1s {
		if i2s[r] != engine.NullInt32 && i1s[r] >= w && i2s[r] < w && i3s[r] < w {
			s.headSide++
		}
	}
}

// sameMarginals fails unless the factor graphs over tpi with TΦ got and
// with TΦ want read the same marginals, bit for bit, under one seeded
// chain, and returns how inference split got's graph.
func sameMarginals(t *testing.T, where string, tpi, got, want *engine.Table) infer.Plan {
	t.Helper()
	marginals := func(tphi *engine.Table) (*factor.Graph, []float64) {
		g, err := factor.FromTables(tpi, tphi)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		probs, _, err := infer.MarginalsContext(context.Background(), g, infer.Options{Burnin: 10, Samples: 40, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return g, probs
	}
	g, a := marginals(got)
	_, b := marginals(want)
	for v := range a {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			t.Fatalf("%s: fact %d's marginal is %v over the maintained TΦ, %v over Query 2's", where, g.FactID(int32(v)), a[v], b[v])
		}
	}
	return infer.PlanOf(g)
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

// multisetDiff counts the rows of a and b (schema ground.FactorSchema)
// that the other lacks, each row counted as often as it occurs, weights
// compared by their bits.
func multisetDiff(a, b *engine.Table) int {
	type row struct {
		i1, i2, i3 int32
		w          uint64
	}
	count := map[row]int{}
	tally := func(t *engine.Table, d int) {
		i1s, i2s, i3s := t.Int32Col(ground.TPhiI1), t.Int32Col(ground.TPhiI2), t.Int32Col(ground.TPhiI3)
		ws := t.Float64Col(ground.TPhiW)
		for r := range i1s {
			count[row{i1s[r], i2s[r], i3s[r], math.Float64bits(ws[r])}] += d
		}
	}
	tally(a, 1)
	tally(b, -1)
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
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
// factsOf lists Π of k in order.
func factsOf(k *kb.KB) []kb.Fact {
	out := make([]kb.Fact, k.NumFacts())
	for i := range out {
		out[i] = k.FactAt(i)
	}
	return out
}

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

// backends are what a lineage may start on (factorStream.on).
var backends = []string{"batch", "mpp", "mpp-pn", "tuffy"}

// TestMaintainedFactorsMatchQuery2 runs the differential over random KBs:
// unconstrained; started under a hook that forgets what it deleted (see
// start); and with random functional constraints under the real checker,
// PreClean first on half of those — each started on every backend. Each
// lineage gets a stream of rounds with factors on and off at random,
// whose batches mix random facts, facts of the unconstrained closure TΠ
// lacks, and facts that a hook or PreClean removed, then a deferred round
// and a refresh: a round that adds nothing and, as RefreshMarginals, runs
// no constraint hook whatever the lineage ran under.
func TestMaintainedFactorsMatchQuery2(t *testing.T) {
	var checked, headSide, brought, exact int
	for seed := int64(0); seed < 96; seed++ {
		for _, on := range backends {
			rng := rand.New(rand.NewSource(seed + 11000))
			s := &factorStream{t: t, name: fmt.Sprintf("seed %d on %s", seed, on), on: on}
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
					before := factsOf(s.k)
					quality.PreClean(s.k)
					victims = lost(before, keys(factsOf(s.k)))
				}
				s.checker = quality.NewChecker(s.k)
			}
			closure, err := ground.Ground(s.k, ground.Options{SkipFactors: true})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
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
			exact += s.exact
		}
	}
	t.Logf("%d rounds checked, %d head-side clauses, %d removed facts brought back, %d components enumerated",
		checked, headSide, brought, exact)
	if headSide == 0 || brought == 0 || exact == 0 {
		t.Fatalf("generator too tame: %d head-side clauses, %d removed facts brought back, %d components enumerated",
			headSide, brought, exact)
	}
}

// TestMaintainedFactorsOnCorpus runs the differential on the scale-0.05
// corpus, unconstrained (whose graph has components the chain samples)
// and under the checker after PreClean, started on every backend:
// rounds of 48 streamed facts plus facts that the constraint passes and
// PreClean removed, factors off on every third round (a cluster grounds
// TΠ in an order that varies between processes, so the batches drawn
// from it vary too; the rounds checked do not), then a deferred round
// and a refresh.
func TestMaintainedFactorsOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds the scale-0.05 corpus")
	}
	c, err := synth.ReVerbSherlock(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, constrained := range []bool{false, true} {
		for _, on := range backends {
			s := &factorStream{t: t, name: fmt.Sprintf("constrained=%v on %s", constrained, on), k: c.KB.Clone(), on: on}
			var victims []kb.Fact
			if constrained {
				before := factsOf(s.k)
				quality.PreClean(s.k)
				victims = lost(before, keys(factsOf(s.k)))
				s.checker = quality.NewChecker(s.k)
			}
			s.start(false)
			rng := rand.New(rand.NewSource(5))
			for round := 0; round < 6; round++ {
				batch := streamed(rng, s.res.Facts, 48)
				batch = append(batch, pick(rng, s.removed, 8)...)
				batch = append(batch, pick(rng, victims, 8)...)
				s.extend(batch, round%3 == 2)
			}
			s.extend(streamed(rng, s.res.Facts, 48), true)
			s.refresh()
			if s.checked < 2 || (constrained && (len(s.removed) == 0 || len(victims) == 0)) {
				t.Fatalf("%s: %d rounds checked, %d facts removed by passes, %d by PreClean", s.name, s.checked, len(s.removed), len(victims))
			}
			if s.exact == 0 || (!constrained && s.sampled == 0) {
				t.Fatalf("%s: marginals compared over %d enumerated and %d sampled components", s.name, s.exact, s.sampled)
			}
			t.Logf("%s: %d rounds checked, TΦ %d rows, %d/%d components enumerated/sampled",
				s.name, s.checked, s.res.Factors.NumRows(), s.exact, s.sampled)
		}
	}
}

// TestFreshFactorsMatchQuery2: a fresh run is a Δ round whose Δ is all
// of TΠ, and its factor phase maintains the empty TΦ. Over random KBs,
// unconstrained and under the checker, the TΦ of every fresh ProbKB run
// — Ground naive and semi-naive, MPP Ground with views on and off on one
// to three segments, naive and semi-naive, and LocalGrounder.Ground of a
// base fact's atom — is Query 2 over its TΠ and Tuffy-T's per-rule TΦ
// over it, as multisets.
func TestFreshFactorsMatchQuery2(t *testing.T) {
	clauses, local := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 50000))
		k := ground.RandomKB(rng)
		constrained := seed%2 == 1
		if constrained {
			k = constrainedKB(seed)
		}
		opts := func(semi bool) ground.Options {
			o := ground.Options{SemiNaive: semi}
			if constrained {
				o.ConstraintHook = quality.NewChecker(k).Apply
			}
			return o
		}
		check := func(name string, rules *kb.KB, res *ground.Result) int {
			t.Helper()
			where := fmt.Sprintf("seed %d (constrained=%v), %s", seed, constrained, name)
			if n := multisetDiff(res.Factors, ground.RecomputeFactors(t, rules, res.Facts)); n > 0 {
				t.Fatalf("%s: TΦ (%d rows) and Query 2 over its TΠ differ in %d rows", where, res.Factors.NumRows(), n)
			}
			if n := multisetDiff(res.Factors, ground.TuffyFactors(t, rules, res.Facts)); n > 0 {
				t.Fatalf("%s: TΦ and Tuffy-T's per-rule TΦ over its TΠ differ in %d rows", where, n)
			}
			n := 0
			for _, i2 := range res.Factors.Int32Col(ground.TPhiI2) {
				if i2 != engine.NullInt32 {
					n++
				}
			}
			return n
		}
		for _, semi := range []bool{false, true} {
			res, err := ground.Ground(k, opts(semi))
			if err != nil {
				t.Fatal(err)
			}
			clauses += check(fmt.Sprintf("Ground semi=%v", semi), k, res)
			for _, views := range []bool{true, false} {
				for segs := 1; segs <= 3; segs++ {
					g, err := ground.NewMPP(k, opts(semi), mpp.NewCluster(segs), views)
					if err != nil {
						t.Fatal(err)
					}
					res, err := g.Ground()
					if err != nil {
						t.Fatal(err)
					}
					clauses += check(fmt.Sprintf("MPP semi=%v views=%v segments=%d", semi, views, segs), k, res)
				}
			}
		}
		f := k.FactAt(rng.Intn(k.NumFacts()))
		q := ground.LocalQuery{Rel: f.Rel, X: f.X, Y: f.Y}
		lg := ground.NewLocal(k.Rules, k.FactsTable(), ground.Options{SemiNaive: true})
		lres, err := lg.Ground(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rules := k.Clone()
		rules.Rules = ground.LocalRules(lg, q)
		local += check("local", rules, lres.Result)
	}
	t.Logf("%d clause rows checked, %d of them local", clauses, local)
	if clauses == 0 || local == 0 {
		t.Fatalf("generator too tame: %d clause rows, %d local", clauses, local)
	}
}

// TestFactIDsNeverRepeatAlongALineage: an Extend hands out fact IDs from
// where the run it extends stopped, so no ID names two facts along a
// lineage, even when a constraint pass frees the top IDs. The hook here
// runs the checker on constrained KBs and then deletes the derived fact
// holding TΠ's highest ID, recording every ID TΠ holds at every pass.
func TestFactIDsNeverRepeatAlongALineage(t *testing.T) {
	freedTop := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 51000))
		k := ground.RandomKB(rng)
		var checker *quality.Checker
		if seed%2 == 1 {
			k = constrainedKB(seed)
			checker = quality.NewChecker(k)
		}
		base := int32(k.NumFacts())
		named := map[int32]kb.Key{}
		opts := func() ground.Options {
			c := checker
			if c != nil {
				c = c.Clone()
				checker = c
			}
			return ground.Options{SemiNaive: true, MaxIterations: 20, ConstraintHook: func(tpi *engine.Table) int {
				ids := tpi.Int32Col(kb.TPiI)
				for r, id := range ids {
					key := kb.FactAtRow(tpi, r).Key()
					if was, ok := named[id]; ok && was != key {
						t.Fatalf("seed %d: fact ID %d names %+v, and named %+v before", seed, id, key, was)
					}
					named[id] = key
				}
				n := 0
				if c != nil {
					n = c.Apply(tpi)
				}
				if top := tpi.NumRows() - 1; top >= 0 && tpi.Int32Col(kb.TPiI)[top] >= base {
					freedTop++
					n += tpi.DeleteRows([]int32{int32(top)})
				}
				return n
			}}
		}
		res, err := ground.Ground(k, opts())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			if res, err = ground.Extend(k, res, randomFacts(rng, k, 3), opts()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if freedTop == 0 {
		t.Fatal("no pass freed a top ID")
	}
}
