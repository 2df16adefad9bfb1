package probkb

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"probkb/internal/factor"
	"probkb/internal/infer"
	"probkb/internal/kb"
)

// This file holds the root package's half of "inference by connected
// component": on a constrained corpus every component is enumerated, so
// no output depends on the seed, the worker count, or which path — the
// global pass, a refresh, a cold point query — computed it.

// graphOf is e's factor graph, built on first reference.
func graphOf(t *testing.T, e *Expansion) *factor.Graph {
	t.Helper()
	g, err := e.factorGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func factKey(f Fact) string { return fmt.Sprintf("%s(%s,%s)", f.Rel, f.X, f.Y) }

// constrainedExpansion expands the constrained scale-0.05 corpus,
// counting the Gibbs sweeps it runs.
func constrainedExpansion(t *testing.T, seed int64, sweeps *int) *Expansion {
	t.Helper()
	k, _, err := Synthesize(0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.OnGibbsSweep = func(GibbsSweep) { *sweeps++ }
	exp, err := k.Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestMarginalsIndependentOfSeedAndWorkers: two Config.Seeds, and the
// graph's pass at 1, 2 and 8 workers, give every atom of the constrained
// scale-0.05 corpus the bit-identical marginal, without one sweep.
func TestMarginalsIndependentOfSeedAndWorkers(t *testing.T) {
	sweeps := 0
	a, b := constrainedExpansion(t, 1, &sweeps), constrainedExpansion(t, 2, &sweeps)
	if sweeps != 0 {
		t.Fatalf("%d Gibbs sweeps on a corpus whose largest component has %d variables", sweeps, infer.PlanOf(graphOf(t, a)).MaxComponent)
	}
	fa, fb := a.Facts(), b.Facts()
	if len(fa) != len(fb) || len(a.InferredFacts()) < 1000 {
		t.Fatalf("%d vs %d facts, %d inferred", len(fa), len(fb), len(a.InferredFacts()))
	}
	for i := range fa {
		if fa[i] != fb[i] && !(math.IsNaN(fa[i].Probability) && math.IsNaN(fb[i].Probability)) {
			t.Fatalf("seeds 1 and 2 disagree: %+v vs %+v", fa[i], fb[i])
		}
	}
	ids, ws := a.res.Facts.Int32Col(kb.TPiI), a.res.Facts.Float64Col(kb.TPiW)
	g := graphOf(t, a)
	for _, workers := range []int{1, 2, 8} {
		probs, collected, err := infer.MarginalsContext(context.Background(), g, infer.Options{Seed: 99, Workers: workers, Samples: 7})
		if err != nil || collected != 7 {
			t.Fatalf("workers=%d: collected %d, err %v", workers, collected, err)
		}
		for r := a.res.BaseFacts; r < len(ids); r++ {
			if v, _ := g.VarOf(ids[r]); probs[v] != ws[r] {
				t.Fatalf("workers=%d fact %d: %v, expansion wrote %v", workers, ids[r], probs[v], ws[r])
			}
		}
	}
	if maxRHat, converged, err := a.ConvergenceDiagnostics(3); err != nil || !converged || maxRHat > 1 {
		t.Fatalf("diagnostics with nothing to sample: R̂ %v converged %v err %v", maxRHat, converged, err)
	}
}

// TestQueryLocalEqualsGlobalOnEnumeratedComponents: a cold point query
// grounds the atom's neighborhood on its own — its own fact IDs, its own
// TΦ — and enumerates it; for a component within the bound that is the
// number the global pass computed, to the bit, because the local
// grounding keeps the relative order of the facts and factors it shares
// with the global one (seed facts keep their IDs, derivations run the
// same partitions in the same order), so both enumerations walk the same
// states in the same order. (A grounding that numbered them differently
// would still agree to ~1e-13, the summation-order difference.)
func TestQueryLocalEqualsGlobalOnEnumeratedComponents(t *testing.T) {
	sweeps := 0
	exp := constrainedExpansion(t, 3, &sweeps)
	checked := 0
	for _, f := range exp.InferredFacts() {
		if checked == 100 {
			break
		}
		m, err := exp.QueryLocal(context.Background(), PointQuery{Rel: f.Rel, X: f.X, Y: f.Y, Depth: 6, Radius: 8, NoCache: true, Samples: 11})
		if err != nil {
			t.Fatal(err)
		}
		// Entity classes are not part of a point query: skip atoms that
		// exist under two typings, whose local target may be the other.
		if len(exp.Find(f.Rel, f.X, f.Y)) != 1 || !m.Found || m.Observed {
			continue
		}
		if m.Collected != 11 {
			t.Fatalf("%s: collected %d, want the requested 11 reported for an enumerated neighborhood", factKey(f), m.Collected)
		}
		if m.Probability != f.Probability {
			t.Errorf("%s: local %v vs global %v (|Δ|=%g, %d local vars)", factKey(f), m.Probability, f.Probability, math.Abs(m.Probability-f.Probability), m.LocalVars)
		}
		checked++
	}
	if checked < 100 || sweeps != 0 {
		t.Fatalf("checked %d atoms, %d sweeps ran", checked, sweeps)
	}
}

// componentSignatures maps each fact in a connected component to a
// canonical rendering of that component — member fact IDs and biases,
// clause rows by fact ID, both sorted — so equal signatures in two
// expansions mean "the same component, untouched".
func componentSignatures(t *testing.T, e *Expansion) map[int32]string {
	t.Helper()
	g := graphOf(t, e)
	off, vars := g.Components()
	out := map[int32]string{}
	id := func(v int32) int32 {
		if v < 0 {
			return -1
		}
		return g.FactID(v)
	}
	for c := 0; c+1 < len(off); c++ {
		var lines []string
		for _, v := range vars[off[c]:off[c+1]] {
			lines = append(lines, fmt.Sprintf("v%d b=%v", g.FactID(v), g.Bias(v)))
			for _, f := range g.FactorsOf(v) {
				if h, b1, b2, w := g.Clause(f); h == v {
					lines = append(lines, fmt.Sprintf("f%d<-%d,%d w=%v", id(h), id(b1), id(b2), w))
				}
			}
		}
		slices.Sort(lines)
		sig := strings.Join(lines, ";")
		for _, v := range vars[off[c]:off[c+1]] {
			out[g.FactID(v)] = sig
		}
	}
	return out
}

// TestRefreshCarriesUntouchedComponentsForward is ROADMAP item 5's
// carry-forward rule, proven instead of implemented: inference is
// deterministic per component, so a refresh recomputes an untouched
// enumerated component to the bit-identical marginals — twice in a row,
// and after a streamed batch that lands in other components.
func TestRefreshCarriesUntouchedComponentsForward(t *testing.T) {
	ctx := context.Background()
	k, _, err := Synthesize(0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	base, err := k.Expand(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// New edges with the corpus's own signatures: a base fact's subject
	// replaced by a fresh entity.
	var a, b []Fact
	for _, f := range base.Facts() {
		switch {
		case f.Inferred:
		case len(a) < 600:
			f.X = fmt.Sprintf("streamed_%d", len(a))
			a = append(a, f)
		case len(b) < 150:
			f.X = fmt.Sprintf("late_%d", len(b))
			b = append(b, f)
		}
	}
	g1, err := base.ExtendWithDeferred(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	stale := map[int32]bool{} // facts whose marginal a refresh must compute
	ids, ws := g1.res.Facts.Int32Col(kb.TPiI), g1.res.Facts.Float64Col(kb.TPiW)
	for r, w := range ws {
		if math.IsNaN(w) {
			stale[ids[r]] = true
		}
	}
	refresh := func(e *Expansion) *Expansion {
		t.Helper()
		r, err := e.RefreshMarginals(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	weights := func(e *Expansion) map[int32]float64 {
		out := map[int32]float64{}
		ids, ws := e.res.Facts.Int32Col(kb.TPiI), e.res.Facts.Float64Col(kb.TPiW)
		for r := range ids {
			out[ids[r]] = ws[r]
		}
		return out
	}
	r1 := refresh(g1)
	w1 := weights(r1)
	for name, again := range map[string]*Expansion{"the same generation refreshed again": refresh(g1), "the refreshed generation refreshed": refresh(r1)} {
		for id, w := range weights(again) {
			if math.Float64bits(w) != math.Float64bits(w1[id]) {
				t.Fatalf("%s: fact %d has %v, first refresh %v", name, id, w, w1[id])
			}
		}
	}

	g2, err := g1.ExtendWithDeferred(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	r2 := refresh(g2)
	w2 := weights(r2)
	sig1, sig2 := componentSignatures(t, r1), componentSignatures(t, r2)
	before, after := infer.PlanOf(graphOf(t, r1)), infer.PlanOf(graphOf(t, r2))
	untouched, touched := 0, 0
	for id := range stale {
		switch {
		case sig1[id] == "" || sig1[id] != sig2[id]:
			touched++
		case math.Float64bits(w1[id]) != math.Float64bits(w2[id]):
			t.Errorf("fact %d in an untouched component: %v before the batch, %v after", id, w1[id], w2[id])
		default:
			untouched++
		}
	}
	if untouched < 100 || after.Components <= before.Components || after.SampledVars != 0 {
		t.Fatalf("%d stale facts, %d in untouched components; plan %+v -> %+v: the batches no longer exercise the rule", len(stale), untouched, before, after)
	}
	t.Logf("%d facts refreshed: %d in components the second batch left alone (bit-identical), %d in components it changed; %d -> %d components",
		len(stale), untouched, touched, before.Components, after.Components)
}
