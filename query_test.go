package probkb

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"probkb/internal/obs"
)

func TestParseAtom(t *testing.T) {
	rel, x, y, err := ParseAtom("  born_in( Ruth_Gruber , Brooklyn ) ")
	if err != nil || rel != "born_in" || x != "Ruth_Gruber" || y != "Brooklyn" {
		t.Fatalf("got (%q, %q, %q, %v)", rel, x, y, err)
	}
	for _, bad := range []string{"", "born_in", "born_in()", "born_in(x)", "born_in(x, y, z)",
		"(x, y)", "born_in(x, y", "born_in(, y)", "born_in(x, )"} {
		if _, _, _, err := ParseAtom(bad); err == nil {
			t.Errorf("ParseAtom(%q) accepted", bad)
		}
	}
}

// TestQueryLocalDifferential is the acceptance gate of the point-query
// path: on a small KB, the local marginal (bounds generous enough to
// cover the whole proof graph) must equal the full-closure global
// answer: both enumerate the same five-atom component, whatever sweep
// counts and seeds either was given.
func TestQueryLocalDifferential(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{
		Engine: SingleNode, RunInference: true,
		GibbsBurnin: 50, GibbsSamples: 80, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	inferred := exp.InferredFacts()
	if len(inferred) != 3 {
		t.Fatalf("inferred facts = %d, want 3", len(inferred))
	}
	for _, f := range inferred {
		m, err := exp.QueryLocal(context.Background(), PointQuery{
			Rel: f.Rel, X: f.X, Y: f.Y,
			Depth: 5, Radius: 6, Burnin: 500, Samples: 8000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !m.Found || m.Observed {
			t.Fatalf("%s(%s, %s): found=%v observed=%v, want a derived atom", f.Rel, f.X, f.Y, m.Found, m.Observed)
		}
		if m.Probability != f.Probability || m.Collected != 8000 {
			t.Errorf("%s(%s, %s): local %v vs full-closure %v (|Δ|=%v), collected %d",
				f.Rel, f.X, f.Y, m.Probability, f.Probability, math.Abs(m.Probability-f.Probability), m.Collected)
		}
		if m.SeedFacts != 2 || m.LocalFacts != 5 {
			t.Errorf("%s(%s, %s): local shape %d seed / %d facts, want 2 / 5",
				f.Rel, f.X, f.Y, m.SeedFacts, m.LocalFacts)
		}
	}
}

func TestQueryLocalObserved(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	m, err := exp.QueryLocal(context.Background(), PointQuery{Rel: "born_in", X: "Ruth_Gruber", Y: "New_York_City"})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found || !m.Observed {
		t.Fatalf("observed atom: %+v", m)
	}
	if m.Probability != 0.96 {
		t.Fatalf("observed probability = %v, want the stored 0.96", m.Probability)
	}
	if m.Collected != 0 {
		t.Fatalf("observed atom sampled %d sweeps, want none", m.Collected)
	}
}

func TestQueryLocalUnknownAtom(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	m, err := exp.QueryLocal(context.Background(), PointQuery{Rel: "born_in", X: "nobody", Y: "nowhere"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Found || !math.IsNaN(m.Probability) {
		t.Fatalf("unknown atom: %+v", m)
	}
}

func TestQueryLocalSkipInference(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	m, err := exp.QueryLocal(context.Background(), PointQuery{
		Rel: "located_in", X: "Brooklyn", Y: "New_York_City", Samples: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found || m.Observed {
		t.Fatalf("derivable atom with samples=-1: %+v", m)
	}
	if !math.IsNaN(m.Probability) {
		t.Fatalf("skipped inference still produced a marginal: %v", m.Probability)
	}
}

func TestQueryLocalCache(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := PointQuery{Rel: "located_in", X: "Brooklyn", Y: "New_York_City", Burnin: 50, Samples: 200}
	first, err := exp.QueryLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported a cache hit")
	}
	second, err := exp.QueryLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical query missed the cache")
	}
	if second.Probability != first.Probability || second.Generation != first.Generation {
		t.Fatalf("cache changed the answer: %+v vs %+v", second, first)
	}
	// Different knobs are different cache entries.
	q2 := q
	q2.Samples = 300
	third, err := exp.QueryLocal(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different sampling shape reused a cached answer")
	}
	// NoCache bypasses both read and store.
	q3 := q
	q3.NoCache = true
	fourth, err := exp.QueryLocal(context.Background(), q3)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Fatal("NoCache query reported a cache hit")
	}
}

// TestQueryLocalExtendWithInvalidates: an ExtendWith round produces a
// new generation whose queries never see the old cache — including
// cached negative answers that the new evidence overturns.
func TestQueryLocalExtendWithInvalidates(t *testing.T) {
	k := paperKB(t)
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 50, GibbsSamples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := PointQuery{Rel: "live_in", X: "Freud", Y: "Vienna", Burnin: 50, Samples: 200}
	stale, err := exp.QueryLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Found {
		t.Fatalf("atom derivable before its evidence arrived: %+v", stale)
	}

	next, err := exp.ExtendWith([]Fact{{
		Rel: "born_in", X: "Freud", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Generation() == exp.Generation() {
		t.Fatalf("ExtendWith kept generation %d", exp.Generation())
	}
	fresh, err := next.QueryLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("new generation served the old generation's cached answer")
	}
	if !fresh.Found || math.IsNaN(fresh.Probability) {
		t.Fatalf("atom still unknown after its evidence arrived: %+v", fresh)
	}
	if fresh.Generation == stale.Generation {
		t.Fatal("answers from different expansions share a generation")
	}
	// The old expansion stays frozen at its contents: the atom remains
	// underivable there even though the shared dictionaries now know
	// its symbols.
	again, err := exp.QueryLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Found {
		t.Fatalf("old generation's answer changed: %+v", again)
	}
}

func TestKBPointQuery(t *testing.T) {
	k := paperKB(t)
	m, err := k.PointQuery(context.Background(), PointQuery{
		Rel: "located_in", X: "Brooklyn", Y: "New_York_City", Burnin: 100, Samples: 500,
	}, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found || m.Observed {
		t.Fatalf("point query without Expand: %+v", m)
	}
	if math.IsNaN(m.Probability) || m.Probability <= 0 || m.Probability >= 1 {
		t.Fatalf("probability = %v, want (0,1)", m.Probability)
	}
}

// TestQueryLocalLeavesChainHealthAlone: a cold point query enumerates
// its atom's component, or — when that has more than the enumeration
// bound's variables — samples it for a few hundred sweeps of its own.
// That chain is not "the chain" the watchdogs follow: run beside a
// whole-graph chain held mid-run, either query must leave obs.Gibbs
// showing the global chain's sweep and R-hat — not mark it finished, and
// not move its sweep counter.
func TestQueryLocalLeavesChainHealthAlone(t *testing.T) {
	k := giantKB(t)
	served, err := k.Expand(Config{Engine: SingleNode, RunInference: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	const holdAt = 110
	reached, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := k.Expand(Config{
			Engine: SingleNode, RunInference: true,
			GibbsBurnin: 10, GibbsSamples: 200, Seed: 5,
			OnGibbsSweep: func(s GibbsSweep) {
				if s.Sweep == holdAt {
					close(reached)
					<-release
				}
			},
		})
		done <- err
	}()
	<-reached
	defer func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("global chain: %v", err)
		}
	}()

	active, sweep, rhat := obs.Gibbs.State()
	if !active || sweep != holdAt || rhat <= 0 {
		t.Fatalf("held global chain reads active=%v sweep=%d rhat=%v, want active at sweep %d with a checkpointed R-hat",
			active, sweep, rhat, holdAt)
	}
	for _, q := range []PointQuery{
		{Rel: "located_in", X: "Brooklyn", Y: "New_York_City"}, // 5 variables: enumerated
		{Rel: "located_in", X: "Borough_1", Y: "Town_2"},       // 32: sampled
	} {
		q.Burnin, q.Samples, q.NoCache = 50, 200, true
		m, err := served.QueryLocal(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if m.Collected != 200 || m.Cached || !(m.Probability > 0 && m.Probability < 1) {
			t.Fatalf("point query did not infer: %+v", m)
		}
		if a, s, r := obs.Gibbs.State(); a != active || s != sweep || r != rhat {
			t.Fatalf("after cold point query %v the chain feed reads active=%v sweep=%d rhat=%v, want the global chain's %v/%d/%v",
				q, a, s, r, active, sweep, rhat)
		}
	}
}

// TestQueryLocalCoalesces pins the point-answer contract: eight
// identical lookups of an uncached atom, released together, pay for one
// grounding run — exactly one of them computes (the only answer not
// Cached), the rest share its answer, whether they found it in flight
// (Coalesced) or finished — and a lookup cancelled before it starts
// leaves nothing behind for the next identical one to hit.
func TestQueryLocalCoalesces(t *testing.T) {
	exp, err := giantKB(t).Expand(Config{Engine: SingleNode, RunInference: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	misses := queryLocalTotal.With("miss")
	q := PointQuery{Rel: "located_in", X: "Borough_1", Y: "Town_2", Burnin: 50, Samples: 200}

	const n = 8
	before := misses.Value()
	start := make(chan struct{})
	answers := make([]Marginal, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			answers[i], errs[i] = exp.QueryLocal(context.Background(), q)
		}()
	}
	close(start)
	wg.Wait()
	if d := misses.Value() - before; d != 1 {
		t.Fatalf("%d concurrent identical lookups counted %d misses, want 1", n, d)
	}
	computed := -1
	for i, m := range answers {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if !m.Cached {
			if computed >= 0 {
				t.Fatalf("lookups %d and %d both computed the answer", computed, i)
			}
			computed = i
		}
	}
	if computed < 0 {
		t.Fatal("every lookup reported Cached; none computed the answer")
	}
	want := answers[computed]
	if !want.Found || !(want.Probability > 0 && want.Probability < 1) {
		t.Fatalf("computed answer %+v, want a derived atom's marginal", want)
	}
	for i, m := range answers {
		m.Cached, m.Coalesced, m.Elapsed = want.Cached, want.Coalesced, want.Elapsed
		if m != want {
			t.Fatalf("lookup %d answered %+v, the computed answer is %+v", i, m, want)
		}
	}

	q.Samples = 300
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var pe *PartialError
	if _, err := exp.QueryLocal(ctx, q); !errors.As(err, &pe) {
		t.Fatalf("cancelled lookup: err %v, want a *PartialError", err)
	}
	before = misses.Value()
	m, err := exp.QueryLocal(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cached || misses.Value()-before != 1 {
		t.Fatalf("lookup after a cancelled one: cached %v, %d misses counted; want a miss", m.Cached, misses.Value()-before)
	}
}
