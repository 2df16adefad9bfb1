package probkb

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/infer"
	"probkb/internal/kb"
)

// wholeGraphPass is the oracle for runInference: the pass over the
// graph of all of TΠ (factor.FromResult, as a generation's readers
// build it), written into a clone of the
// TΠ a round left before inference. pre is that round run without
// inference; the chain takes cfg's sampling options.
func wholeGraphPass(t *testing.T, pre *Expansion, cfg Config) *engine.Table {
	t.Helper()
	g := graphOf(t, pre)
	cfg.OnGibbsSweep = nil
	facts := pre.res.Facts.Clone()
	probs, collected, err := infer.MarginalsContext(context.Background(), g, inferOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if collected > 0 {
		if err := infer.ApplyMarginals(g, facts, probs); err != nil {
			t.Fatal(err)
		}
	}
	return facts
}

// sameWeights fails unless got holds want's facts, in want's order, with
// bit-identical weights.
func sameWeights(t *testing.T, leg string, got, want *engine.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d facts, the oracle's TΠ has %d", leg, got.NumRows(), want.NumRows())
	}
	gi, wi := got.Int32Col(kb.TPiI), want.Int32Col(kb.TPiI)
	gw, ww := got.Float64Col(kb.TPiW), want.Float64Col(kb.TPiW)
	for r := range got.NumRows() {
		if gi[r] != wi[r] || math.Float64bits(gw[r]) != math.Float64bits(ww[r]) {
			t.Fatalf("%s: row %d is fact %d weight %v, the whole-graph pass wrote fact %d weight %v", leg, r, gi[r], gw[r], wi[r], ww[r])
		}
	}
}

// pendingSplit counts, in the whole graph of pre, the components above
// the enumeration bound and those of them holding a pending fact.
func pendingSplit(t *testing.T, pre *Expansion) (sampled, withPending int) {
	t.Helper()
	g := graphOf(t, pre)
	ws := pre.res.Facts.Float64Col(kb.TPiW)
	off, vars := g.Components()
	for c := 0; c+1 < len(off); c++ {
		cv := vars[off[c]:off[c+1]]
		if len(cv) <= 16 { // infer's exactMaxVars
			continue
		}
		sampled++
		for _, v := range cv {
			if math.IsNaN(ws[v]) { // a whole graph's variable is its TΠ row
				withPending++
				break
			}
		}
	}
	return sampled, withPending
}

// sampledComponentBatch derives up to n new facts reaching into the
// largest component of e's graph: for a fact a of that component and a
// fact b of the same relation and typing elsewhere, a.Rel(a.X, b.Y) when
// the KB does not hold it. Rules joining on a.X derive new facts from
// them whose clauses name a's component, so a round over the batch
// leaves pending facts in one component above the enumeration bound and
// none in the others.
func sampledComponentBatch(t *testing.T, e *Expansion, n int) []Fact {
	t.Helper()
	g := graphOf(t, e)
	off, vars := g.Components()
	largest := 0
	for c := 1; c+1 < len(off); c++ {
		if off[c+1]-off[c] > off[largest+1]-off[largest] {
			largest = c
		}
	}
	all := e.Facts()
	seen := map[[3]string]bool{}
	var out []Fact
	for _, v := range vars[off[largest]:off[largest+1]] {
		a := all[v] // a whole graph's variable is its TΠ row
		for _, b := range all {
			k := [3]string{a.Rel, a.X, b.Y}
			if len(out) == n {
				return out
			}
			if b.Rel != a.Rel || b.YClass != a.YClass || b.XClass != a.XClass || a.X == b.Y || seen[k] || len(e.Find(a.Rel, a.X, b.Y)) > 0 {
				continue
			}
			seen[k] = true
			out = append(out, Fact{Rel: a.Rel, X: a.X, XClass: a.XClass, Y: b.Y, YClass: b.YClass, Probability: 0.9})
		}
	}
	return out
}

// TestPendingPassMatchesWholeGraph: every round's inference builds the
// graph of the components holding a pending fact only, and writes what
// the pass over the whole graph writes, bit for bit — after Expand, a
// non-deferred ExtendWith, four ExtendWithDeferred batches and a
// RefreshMarginals, and a refresh of a refreshed generation, which has
// nothing pending and runs no chain. Each leg's oracle input is the same
// round run without inference. Without constraints the corpus has seven
// components above the enumeration bound; the extend and refresh legs
// leave pending facts in one of them, so a pass that swept only the
// components holding a pending fact would draw the chain differently.
func TestPendingPassMatchesWholeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("expands the scale-0.05 corpus twice per leg")
	}
	ctx := context.Background()
	for _, constrained := range []bool{true, false} {
		name := "unconstrained"
		if constrained {
			name = "constrained"
		}
		t.Run(name, func(t *testing.T) {
			k, _, err := Synthesize(0.05, 42)
			if err != nil {
				t.Fatal(err)
			}
			sweeps := 0
			var onSweep func()
			cfg := Config{Engine: SingleNode, ApplyConstraints: constrained, Seed: 1, GibbsBurnin: 20, GibbsSamples: 100,
				OnGibbsSweep: func(GibbsSweep) {
					sweeps++
					if onSweep != nil {
						onSweep()
					}
				}}
			// checkLeg compares a round's TΠ with the oracle's over pre. In
			// the unconstrained corpus, a pending fact must lie in a
			// sampled component, and unless all is pending (Expand), a
			// sampled component must hold none.
			checkLeg := func(leg string, got, pre *Expansion, allPending bool) {
				t.Helper()
				sameWeights(t, leg, got.res.Facts, wholeGraphPass(t, pre, cfg))
				sampled, withPending := pendingSplit(t, pre)
				t.Logf("%s: %d components above the bound, %d holding a pending fact", leg, sampled, withPending)
				if !constrained && (withPending == 0 || withPending == sampled && !allPending) {
					t.Fatalf("%s: %d of %d sampled components hold a pending fact: the leg no longer exercises the bound rule", leg, withPending, sampled)
				}
			}

			noInfer := cfg
			noInfer.RunInference = false
			pre, err := k.Expand(noInfer)
			if err != nil {
				t.Fatal(err)
			}
			cfg.RunInference = true
			e, err := k.Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkLeg("Expand", e, pre, true)

			batch := sampledComponentBatch(t, e, 16)
			if pre, err = e.extendWith(ctx, "extend", batch, false, false); err != nil {
				t.Fatal(err)
			}
			x, err := e.ExtendWith(batch)
			if err != nil {
				t.Fatal(err)
			}
			checkLeg("ExtendWith", x, pre, false)

			d := e
			for _, b := range append(streamBatches(e, 3, 32), batch) {
				if d, err = d.ExtendWithDeferred(ctx, b); err != nil {
					t.Fatal(err)
				}
			}
			if pre, err = d.extendWith(ctx, "refresh-marginals", nil, false, false); err != nil {
				t.Fatal(err)
			}
			r, err := d.RefreshMarginals(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkLeg("RefreshMarginals", r, pre, false)

			if pre, err = r.extendWith(ctx, "refresh-marginals", nil, false, false); err != nil {
				t.Fatal(err)
			}
			sweeps = 0
			again, err := r.RefreshMarginals(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameWeights(t, "RefreshMarginals of a refreshed generation", again.res.Facts, wholeGraphPass(t, pre, cfg))
			if sweeps != 0 {
				t.Fatalf("refreshing a refreshed generation ran %d Gibbs sweeps", sweeps)
			}

			if constrained {
				return
			}
			// A refresh cancelled mid-chain still answers with the phase
			// it cut.
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			onSweep = cancel
			_, err = d.RefreshMarginals(cctx)
			var pe *PartialError
			if !errors.As(err, &pe) || pe.Phase != "infer" || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled refresh: err = %v (%T), want a *PartialError in phase infer", err, err)
			}
		})
	}
}

// TestExplainBoundedByLineage: Explain expands each fact's derivations
// once per call, so its text is bounded by the target's component
// whatever the depth: one line per derivation plus one per body atom of
// it (and the root's), each indented by at most two levels per fact. The
// derivations of the unconstrained scale-0.05 corpus are cyclic, and
// re-expanding every fact each time it was reached grew the text ×4.5 per
// four levels. The depths double up to 1,024, so a regression fails at
// the first depth that breaks the bound instead of running away.
func TestExplainBoundedByLineage(t *testing.T) {
	k, _, err := Synthesize(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.Expand(Config{Engine: SingleNode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, facts, clauses := fattestInferredFact(t, e)
	if clauses < 20 {
		t.Fatalf("the fattest inferred fact's component holds only %d clauses", clauses)
	}
	maxLines, maxLine := 1+3*clauses, 4*facts+200
	prev := ""
	for depth := 1; depth <= 1024; depth *= 2 {
		text, err := e.Explain(f.Rel, f.X, f.Y, depth)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(text, "\n"); lines > maxLines || len(text) > maxLines*maxLine {
			t.Fatalf("depth %d: %d lines, %d bytes of Explain text for a component of %d facts and %d clauses (bounds %d lines, %d bytes)",
				depth, lines, len(text), facts, clauses, maxLines, maxLines*maxLine)
		}
		if depth/2 > facts && text != prev {
			t.Fatalf("depth %d: the text still changes past the component's size", depth)
		}
		prev = text
	}
	t.Logf("%s: %d bytes at depth 1024 for %d facts and %d clauses", factKey(f), len(prev), facts, clauses)
}

// fattestInferredFact returns the inferred fact with the longest
// Explain text at depth 8, and the facts and clause factors of its
// component.
func fattestInferredFact(t *testing.T, e *Expansion) (f Fact, facts, clauses int) {
	t.Helper()
	g := graphOf(t, e)
	name := func(int32) string { return "f" }
	best, most := int32(-1), 0
	for _, v := range g.Sampled() {
		if n := len(g.Explain(v, 8, name)); e.derived(g.FactID(v)) && n > most {
			// A graph variable is its TΠ row; Explain renders the first
			// fact matching the atom, so skip atoms held under two typings.
			if f := e.fact(int(v)); len(e.Find(f.Rel, f.X, f.Y)) == 1 {
				best, most = v, n
			}
		}
	}
	if best < 0 {
		t.Fatal("no inferred fact has a derivation")
	}
	for _, v := range g.Sampled() {
		if g.Component(v) == g.Component(best) {
			facts++
			clauses += len(g.Lineage(v))
		}
	}
	return e.fact(int(best)), facts, clauses
}
