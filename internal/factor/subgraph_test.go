package factor

import (
	"context"
	"reflect"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
)

func TestSubgraphWholeComponent(t *testing.T) {
	g, _, _ := paperGraph(t)
	// The paper example is one connected component, so an unbounded
	// subgraph from any seed is the whole graph.
	for v := int32(0); int(v) < g.NumVars(); v++ {
		sub := g.Subgraph(v, 0)
		if sub.NumVars() != g.NumVars() {
			t.Fatalf("seed %d: vars = %d, want %d", v, sub.NumVars(), g.NumVars())
		}
		if sub.NumFactors() != g.NumFactors() {
			t.Fatalf("seed %d: factors = %d, want %d", v, sub.NumFactors(), g.NumFactors())
		}
	}
}

func TestSubgraphKeepsFactIDs(t *testing.T) {
	g, _, _ := paperGraph(t)
	sub := g.Subgraph(0, 0)
	for v := int32(0); int(v) < sub.NumVars(); v++ {
		id := sub.FactID(v)
		if _, ok := g.VarOf(id); !ok {
			t.Fatalf("subgraph var %d carries fact id %d unknown to the parent", v, id)
		}
		if u, _ := sub.VarOf(id); u != v {
			t.Fatalf("VarOf(FactID(%d)) = %d in the subgraph", v, u)
		}
	}
}

func TestSubgraphRadiusGrowsToComponent(t *testing.T) {
	g, _, _ := paperGraph(t)
	prev := 0
	for radius := 1; radius <= g.NumVars(); radius++ {
		sub := g.Subgraph(0, radius)
		if sub.NumVars() < prev {
			t.Fatalf("radius %d shrank the ball: %d < %d", radius, sub.NumVars(), prev)
		}
		prev = sub.NumVars()
	}
	if prev != g.NumVars() {
		t.Fatalf("radius %d ball has %d vars, want the whole component (%d)", g.NumVars(), prev, g.NumVars())
	}
}

func TestSubgraphDropsCrossBoundaryFactors(t *testing.T) {
	// A 3-chain a -> b -> c: radius 1 around a keeps {a, b} and must
	// drop the b->c implication factor (c is outside the ball) while
	// keeping singletons and the a->b factor.
	facts := engine.NewTable("T", kb.FactsSchema())
	for i := 0; i < 3; i++ {
		facts.AppendRow(i, 0, i, 0, i+10, 0, engine.NullFloat64())
	}
	null := engine.NullInt32
	factors := engine.NewTable("TPhi", ground.FactorSchema())
	factors.AppendRow(0, null, null, 0.5)
	factors.AppendRow(1, 0, null, 1.0)
	factors.AppendRow(2, 1, null, 1.0)
	g, err := FromTables(facts, factors)
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Subgraph(0, 1)
	if sub.NumVars() != 2 {
		t.Fatalf("vars = %d, want 2", sub.NumVars())
	}
	if sub.NumFactors() != 2 {
		t.Fatalf("factors = %d, want 2 (singleton on a, implication a->b)", sub.NumFactors())
	}
}

func TestSubgraphDeterministic(t *testing.T) {
	g, _, _ := paperGraph(t)
	a, b := g.Subgraph(0, 2), g.Subgraph(0, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical Subgraph calls disagree")
	}
}

// TestSubgraphOfLocalGrounding: a local grounding keeps the evidence
// table's (sparse) fact IDs; the graph built from it and every
// component extracted from that graph must keep translating them both
// ways, and a component's factors must be exactly the parent's factors
// over its variables.
func TestSubgraphOfLocalGrounding(t *testing.T) {
	k := kb.New()
	// Unrelated evidence first, so the facts the query reaches have IDs
	// that are neither dense nor zero-based.
	k.InternFact("capital_of", "Paris", "City", "France", "Country", 0.9)
	k.InternFact("capital_of", "Rome", "City", "Italy", "Country", 0.8)
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.InternFact("capital_of", "Oslo", "City", "Norway", "Country", 0.7)
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	for _, line := range []string{
		"1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)",
		"1.53 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)",
		"0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)",
	} {
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	rel, _ := k.RelDict.Lookup("located_in")
	x, _ := k.Entities.Lookup("Brooklyn")
	y, _ := k.Entities.Lookup("New_York_City")
	lres, err := ground.NewLocal(k.Rules, k.FactsTable(), ground.Options{}).
		Ground(context.Background(), ground.LocalQuery{Rel: rel, X: x, Y: y, Depth: 4, Radius: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromResult(lres.Result)
	if err != nil {
		t.Fatal(err)
	}
	ids := lres.Facts.Int32Col(kb.TPiI)
	if len(lres.TargetRows) == 0 || ids[0] == 0 {
		t.Fatalf("fixture lost its point: target rows %v, first local fact ID %d", lres.TargetRows, ids[0])
	}
	for r, id := range ids {
		if v, ok := g.VarOf(id); !ok || int(v) != r || g.FactID(v) != id {
			t.Fatalf("row %d (fact %d): VarOf = %d, %v", r, id, v, ok)
		}
	}

	seen := 0
	for v := int32(0); int(v) < g.NumVars(); v++ {
		sub := g.Subgraph(v, 0)
		for u := int32(0); int(u) < sub.NumVars(); u++ {
			id := sub.FactID(u)
			if back, ok := sub.VarOf(id); !ok || back != u {
				t.Fatalf("seed %d: subgraph VarOf(FactID(%d)) = %d, %v", v, u, back, ok)
			}
			if _, ok := g.VarOf(id); !ok {
				t.Fatalf("seed %d: subgraph fact %d unknown to the parent", v, id)
			}
		}
		if _, ok := sub.VarOf(g.FactID(v)); !ok {
			t.Fatalf("seed %d missing from its own component", v)
		}
		// Every parent factor lies wholly inside or wholly outside a
		// component, so the component's factor count is the number of
		// parent factors headed inside it.
		want := 0
		for i := 0; i < g.NumFactors(); i++ {
			if _, ok := sub.VarOf(g.FactID(g.Factor(i).Head)); ok {
				want++
			}
		}
		if sub.NumFactors() != want {
			t.Fatalf("seed %d: component has %d factors, parent has %d headed in it", v, sub.NumFactors(), want)
		}
		if sub.NumVars() > 1 {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no variable had a neighbor: the local grounding derived nothing")
	}
}
