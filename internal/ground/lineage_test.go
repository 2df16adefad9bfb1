package ground_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// The lineage differential. An Extend of a result another Extend
// produced forks the fact index that run published — its identity set
// and entity columns — instead of building its own. Every round below
// runs twice from the same input: as it comes, and with the carried index
// stripped (ground.WithoutIndex), when the run builds a fresh one. The
// two must agree on TΠ, TΦ and every fact ID, row for row.

// lineage continues one grounding through Extend rounds, each checked
// against the same round run from a fresh index.
type lineage struct {
	t    *testing.T
	name string
	k    *kb.KB
	// checker, when non-nil, is the lineage's constraint checker: each
	// run of a round gets its own copy, and the lineage continues with
	// the carried run's.
	checker *quality.Checker
	res     *ground.Result
	// rounds counts the rounds checked; shared those whose index shares
	// every sealed base of the one before; prefix the rounds whose extra
	// hook deleted inside them; grown the others, whose index built a base
	// of its own past the fork bound or after a deletion.
	rounds, shared, prefix, grown int
}

// start grounds l.k from scratch, as KB.Expand does: the result carries
// no index.
func (l *lineage) start() {
	l.t.Helper()
	opts := ground.Options{SemiNaive: true}
	if l.checker != nil {
		opts.ConstraintHook = l.checker.Clone().Apply
	}
	res, err := ground.Ground(l.k, opts)
	if err != nil {
		l.t.Fatalf("%s: %v", l.name, err)
	}
	l.res = res
}

// extend runs one round from prev over batch, once as it comes and once
// from a fresh index, checks that the two agree, and returns the carried
// run's result. victims lists fact IDs the round's hook deletes beside
// what the checker deletes; a nil batch with skip false and no hook is
// the round RefreshMarginals runs.
func (l *lineage) extend(prev *ground.Result, batch []kb.Fact, skip bool, victims []int32) *ground.Result {
	l.t.Helper()
	var carried *quality.Checker
	opts := func(into **quality.Checker) ground.Options {
		o := ground.Options{SemiNaive: true, SkipFactors: skip}
		var check func(*engine.Table) int
		if l.checker != nil {
			c := l.checker.Clone()
			*into, check = c, c.Apply
		}
		if check == nil && victims == nil {
			return o
		}
		o.ConstraintHook = func(tpi *engine.Table) int {
			n := 0
			if victims != nil {
				ids := tpi.Int32Col(kb.TPiI)
				n = tpi.DeleteWhere(func(r int) bool { return slices.Contains(victims, ids[r]) })
			}
			if check != nil {
				n += check(tpi)
			}
			return n
		}
		return o
	}
	var fresh *quality.Checker
	want, err := ground.Extend(l.k, ground.WithoutIndex(prev), batch, opts(&fresh))
	if err != nil {
		l.t.Fatalf("%s: fresh index: %v", l.name, err)
	}
	got, err := ground.Extend(l.k, prev, batch, opts(&carried))
	if err != nil {
		l.t.Fatalf("%s: carried index: %v", l.name, err)
	}
	l.rounds++
	where := fmt.Sprintf("%s, round %d", l.name, l.rounds)
	sameResult(l.t, where, got, want)

	switch set, entity := ground.IndexBases(prev); {
	case set < 0:
	case ground.SharesIndex(prev, got):
		l.shared++
	case slices.ContainsFunc(victims, func(id int32) bool { return below(prev.Facts, min(set, entity), id) }):
		l.prefix++
	default:
		// A deletion rebuilds the index from scratch; without one, only a
		// fork past the bound gives the index a base of its own.
		if gs, ge := ground.IndexBases(got); l.checker == nil && victims == nil && gs <= set && ge <= entity {
			l.t.Fatalf("%s: the index shares no base with its parent's (%d/%d rows) and outgrew neither", where, set, entity)
		}
		l.grown++
	}
	if l.checker != nil {
		l.checker = carried
	}
	return got
}

// below reports whether the fact with ID id sits in one of tpi's first n
// rows.
func below(tpi *engine.Table, n int, id int32) bool {
	return slices.Contains(tpi.Int32Col(kb.TPiI)[:n], id)
}

// sameResult fails unless got and want hold the same TΠ and TΦ, row for
// row with every fact ID, and the same bookkeeping a next round reads.
func sameResult(t *testing.T, where string, got, want *ground.Result) {
	t.Helper()
	if r := firstDiff(got.Facts, want.Facts); r >= 0 {
		t.Fatalf("%s: TΠ (%d rows) differs from the fresh index's (%d rows) from row %d",
			where, got.Facts.NumRows(), want.Facts.NumRows(), r)
	}
	if (got.Factors == nil) != (want.Factors == nil) {
		t.Fatalf("%s: TΦ present %v, fresh index's %v", where, got.Factors != nil, want.Factors != nil)
	}
	if got.Factors != nil {
		if r := firstDiff(got.Factors, want.Factors); r >= 0 {
			t.Fatalf("%s: TΦ (%d rows) differs from the fresh index's (%d rows) from row %d",
				where, got.Factors.NumRows(), want.Factors.NumRows(), r)
		}
	}
	gw, gn := ground.FactorWatermark(got), ground.NextFactID(got)
	ww, wn := ground.FactorWatermark(want), ground.NextFactID(want)
	if got.FirstDerived != want.FirstDerived || got.BaseFacts != want.BaseFacts ||
		got.Iterations != want.Iterations || got.Converged != want.Converged || gw != ww || gn != wn {
		t.Fatalf("%s: first derived %d, base %d, %d iterations, converged %v, watermark %d, next ID %d; fresh index: %d, %d, %d, %v, %d, %d",
			where, got.FirstDerived, got.BaseFacts, got.Iterations, got.Converged, gw, gn,
			want.FirstDerived, want.BaseFacts, want.Iterations, want.Converged, ww, wn)
	}
}

// victimsIn draws n fact IDs from rows [lo, hi) of tpi.
func victimsIn(rng *rand.Rand, tpi *engine.Table, lo, hi, n int) []int32 {
	ids := tpi.Int32Col(kb.TPiI)
	out := []int32{}
	for ; n > 0 && hi > lo; n-- {
		out = append(out, ids[lo+rng.Intn(hi-lo)])
	}
	return out
}

// TestLineageMatchesFreshIndex runs the lineage differential on the
// scale-0.05 corpus: an unconstrained chain long enough that the identity
// set and the entity columns outgrow their bases, and a chain under the
// checker whose extra hook deletes inside the carried bases on some
// rounds and past them on others. Both mix runs of SkipFactors rounds
// with factor rounds and end with a refresh.
func TestLineageMatchesFreshIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds the scale-0.05 corpus")
	}
	c, err := synth.ReVerbSherlock(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, constrained := range []bool{false, true} {
		l := &lineage{t: t, name: fmt.Sprintf("constrained=%v", constrained), k: c.KB.Clone()}
		if constrained {
			quality.PreClean(l.k)
			l.checker = quality.NewChecker(l.k)
		}
		l.start()
		rng := rand.New(rand.NewSource(37))
		rounds := 40
		if constrained {
			rounds = 12
		}
		for round := 0; round < rounds; round++ {
			// The extra hook deletes inside the carried bases on every
			// other constrained round, past them on every fourth round.
			var victims []int32
			if set, entity := ground.IndexBases(l.res); set >= 0 {
				switch {
				case constrained && round%2 == 0:
					victims = victimsIn(rng, l.res.Facts, 0, min(set, entity), 2)
				case round%4 == 1:
					victims = victimsIn(rng, l.res.Facts, max(set, entity), l.res.Facts.NumRows(), 2)
				}
			}
			// Two deferred rounds, then one that grounds factors.
			l.res = l.extend(l.res, streamed(rng, l.res.Facts, 48), round%3 != 2, victims)
		}
		l.res = l.extend(l.res, nil, false, nil)
		t.Logf("%s: %d rounds, %d shared every base, %d deleted inside one, %d built their own; TΠ %d rows",
			l.name, l.rounds, l.shared, l.prefix, l.grown, l.res.Facts.NumRows())
		if l.shared == 0 || (!constrained && l.grown == 0) || (constrained && l.prefix == 0) {
			t.Fatalf("%s: chain too tame: %d rounds shared, %d deleted inside the bases, %d built their own",
				l.name, l.shared, l.prefix, l.grown)
		}
	}
}

// TestLineageSiblings extends one carried index twice at once, and once
// more after: every sibling agrees with its fresh-index run, shares its
// parent's sealed bases, and leaves what the parent answers alone.
func TestLineageSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds the scale-0.05 corpus")
	}
	c, err := synth.ReVerbSherlock(0.05, 43)
	if err != nil {
		t.Fatal(err)
	}
	l := &lineage{t: t, name: "siblings", k: c.KB}
	l.start()
	rng := rand.New(rand.NewSource(38))
	parent := l.extend(l.res, streamed(rng, l.res.Facts, 48), false, nil)
	batches := [][]kb.Fact{streamed(rng, parent.Facts, 64), streamed(rng, parent.Facts, 64), nil}
	kids := make([]*ground.Result, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if kids[i], err = ground.Extend(l.k, parent, b, ground.Options{SemiNaive: true, SkipFactors: i == 0}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, b := range batches {
		want, err := ground.Extend(l.k, ground.WithoutIndex(parent), b, ground.Options{SemiNaive: true, SkipFactors: i == 0})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("sibling %d", i), kids[i], want)
		if !ground.SharesIndex(parent, kids[i]) {
			t.Fatalf("sibling %d does not share its parent's sealed bases", i)
		}
		again := l.extend(parent, b, i == 0, nil)
		sameResult(t, fmt.Sprintf("sibling %d again", i), again, kids[i])
	}
}

// TestLineageRandomKBs runs short chains over random KBs — a few dozen
// facts, so nearly every fork outgrows its parent's bases — unconstrained
// and under the checker, with hooks deleting inside and past the bases.
func TestLineageRandomKBs(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed + 12000))
		l := &lineage{t: t, name: fmt.Sprintf("seed %d", seed)}
		if seed%2 == 0 {
			l.k = ground.RandomKB(rng)
		} else {
			l.k = constrainedKB(3 * seed)
			l.checker = quality.NewChecker(l.k)
		}
		l.start()
		for round := 0; round < 6; round++ {
			var victims []int32
			if set, _ := ground.IndexBases(l.res); set >= 0 && seed%3 == 0 {
				victims = victimsIn(rng, l.res.Facts, 0, l.res.Facts.NumRows(), 1)
			}
			l.res = l.extend(l.res, randomFacts(rng, l.k, 1+rng.Intn(3)), rng.Intn(2) == 0, victims)
		}
		l.res = l.extend(l.res, nil, false, nil)
	}
}

// TestLineagePartitionsBuiltOnce: the rules do not change along a
// lineage, so its rounds partition them once. An Extend of a Ground
// result builds the MLN partitions and publishes them; an Extend of an
// Extend result grounds with the very partitions its receiver's run
// built, deferred rounds and factor rounds alike.
func TestLineagePartitionsBuiltOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := ground.RandomKB(rng)
	res, err := ground.Ground(k, ground.Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if ground.Partitions(res) != nil {
		t.Fatal("a Ground result carries MLN partitions")
	}
	var built *mln.Partitions
	for round := 0; round < 4; round++ {
		next, err := ground.Extend(k, res, randomFacts(rng, k, 2), ground.Options{SemiNaive: true, SkipFactors: round%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		got := ground.Partitions(next)
		switch {
		case got == nil:
			t.Fatalf("round %d: an Extend result carries no MLN partitions", round)
		case round == 0:
			built = got
		case got != built:
			t.Fatalf("round %d: an Extend of an Extend result built its own MLN partitions", round)
		}
		res = next
	}
}
