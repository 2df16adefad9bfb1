package probkb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
)

// TΦ is a bag (Proposition 1 bag-unions the outputs of Queries 2-i): no
// output may depend on the order of its rows. The factor graph orders
// each variable's clauses by content, so a permutation of TΦ changes no
// sum inference makes.

// permutedRows returns t's rows (schema ground.FactorSchema) in the order
// perm gives.
func permutedRows(t *engine.Table, perm []int) *engine.Table {
	i1, i2, i3, w := t.Int32Col(ground.TPhiI1), t.Int32Col(ground.TPhiI2), t.Int32Col(ground.TPhiI3), t.Float64Col(ground.TPhiW)
	p1, p2, p3, pw := make([]int32, len(perm)), make([]int32, len(perm)), make([]int32, len(perm)), make([]float64, len(perm))
	for r, from := range perm {
		p1[r], p2[r], p3[r], pw[r] = i1[from], i2[from], i3[from], w[from]
	}
	return engine.TableFromColumns("TPhi", ground.FactorSchema(), p1, p2, p3, pw)
}

// TestTPhiRowOrderIsNotAnInput expands the scale-0.05 corpus, constrained
// (every component enumerated) and not (some sampled), and holds the
// factor graph over a random permutation of TΦ's rows to the one over
// TΦ as grounded: every marginal, under one seeded chain, and the
// Explain text of every fact must be bit-identical.
func TestTPhiRowOrderIsNotAnInput(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds the scale-0.05 corpus twice")
	}
	k, _, err := Synthesize(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, constrained := range []bool{true, false} {
		e, err := k.Expand(Config{Engine: SingleNode, ApplyConstraints: constrained, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tpi, tphi := e.res.Facts, e.res.Factors
		shuffled := permutedRows(tphi, rand.New(rand.NewSource(38)).Perm(tphi.NumRows()))
		marginals := func(tphi *engine.Table) (*factor.Graph, []float64) {
			g, err := factor.FromTables(tpi, tphi)
			if err != nil {
				t.Fatal(err)
			}
			probs, _, err := infer.MarginalsContext(context.Background(), g, infer.Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			return g, probs
		}
		g, want := marginals(tphi)
		pg, got := marginals(shuffled)
		plan := infer.PlanOf(g)
		if !constrained && plan.SampledVars == 0 {
			t.Fatalf("unconstrained: no component is sampled (largest %d)", plan.MaxComponent)
		}
		moved := 0
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				moved++
			}
		}
		if moved > 0 {
			t.Errorf("constrained=%v: %d of %d marginals move when TΦ's rows are permuted", constrained, moved, len(want))
		}
		name := func(v int32) string { return e.kb.FactString(kb.FactAtRow(tpi, int(v))) }
		differ := 0
		for v := int32(0); v < int32(g.NumVars()); v++ {
			if g.Explain(v, 3, name) != pg.Explain(v, 3, name) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("constrained=%v: %d of %d facts explain differently when TΦ's rows are permuted", constrained, differ, g.NumVars())
		}
		t.Logf("constrained=%v: %d marginals (%d components, %d variables sampled) and explanations unmoved by a permutation of %d TΦ rows",
			constrained, len(want), plan.Components, plan.SampledVars, tphi.NumRows())
	}
}
