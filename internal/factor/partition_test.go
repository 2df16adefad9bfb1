package factor

import (
	"math"
	"slices"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/synth"
)

// sameGraph fails unless two graphs hold the same fact IDs, biases,
// component labels, clause lists and factors, in the same order.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumVars() != want.NumVars() || got.NumFactors() != want.NumFactors() || got.NumComponents() != want.NumComponents() {
		t.Fatalf("%s: %d vars, %d factors, %d components; want %d, %d, %d", what,
			got.NumVars(), got.NumFactors(), got.NumComponents(), want.NumVars(), want.NumFactors(), want.NumComponents())
	}
	for v := range int32(got.NumVars()) {
		if got.FactID(v) != want.FactID(v) || math.Float64bits(got.Bias(v)) != math.Float64bits(want.Bias(v)) ||
			got.Component(v) != want.Component(v) || !slices.Equal(got.FactorsOf(v), want.FactorsOf(v)) {
			t.Fatalf("%s: variable %d differs", what, v)
		}
	}
	for f := range int32(got.NumFactors()) {
		h, b1, b2, w := got.Clause(f)
		wh, wb1, wb2, ww := want.Clause(f)
		if h != wh || b1 != wb1 || b2 != wb2 || math.Float64bits(w) != math.Float64bits(ww) {
			t.Fatalf("%s: factor %d differs", what, f)
		}
	}
}

// TestPartitionMatchesGraphComponents: NewPartition groups TΠ's rows as
// a whole graph labels its components, and the graph it builds is the
// whole graph when every component is kept, and a component's Subgraph
// (which selects by breadth-first search, not by label) when one is.
func TestPartitionMatchesGraphComponents(t *testing.T) {
	c, err := synth.ReVerbSherlock(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ground.Ground(c.KB.Fork(), ground.Options{MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(res.Facts, res.Factors)
	if err != nil {
		t.Fatal(err)
	}
	// A whole graph's variable is its TΠ row.
	rootOf, compOf, sizes := map[int32]int{}, map[int]int32{}, map[int32]int{}
	largest := int32(-1)
	for v := range int32(whole.NumVars()) {
		r, comp := p.Root(int(v)), whole.Component(v)
		if comp < 0 {
			if r != int(v) || p.Size(r) != 1 {
				t.Fatalf("row %d touches no clause, but its component has root %d and %d rows", v, r, p.Size(r))
			}
			continue
		}
		if prev, ok := rootOf[comp]; ok && prev != r {
			t.Fatalf("component %d has roots %d and %d", comp, prev, r)
		}
		if prev, ok := compOf[r]; ok && prev != comp {
			t.Fatalf("root %d spans components %d and %d", r, prev, comp)
		}
		rootOf[comp], compOf[r] = r, comp
		sizes[comp]++
		if largest < 0 || sizes[comp] > sizes[largest] {
			largest = comp
		}
	}
	for comp, r := range rootOf {
		if p.Size(r) != sizes[comp] {
			t.Fatalf("component %d: %d rows, partition counts %d", comp, sizes[comp], p.Size(r))
		}
	}
	if len(rootOf) != whole.NumComponents() || sizes[largest] < 3 {
		t.Fatalf("%d of %d components seen, the largest has %d variables", len(rootOf), whole.NumComponents(), sizes[largest])
	}

	keep := make([]bool, whole.NumVars())
	for r := range keep {
		keep[r] = true
	}
	all, err := p.Graph(keep)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "every component kept", all, whole)

	clear(keep)
	keep[rootOf[largest]] = true
	one, err := p.Graph(keep)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "the largest component kept", one, whole.Subgraph(int32(rootOf[largest]), 0))
}

func TestPartitionErrors(t *testing.T) {
	facts := engine.NewTable("T", kb.FactsSchema())
	facts.AppendRow(0, 0, 0, 0, 0, 0, 0.5)
	facts.AppendRow(1, 0, 0, 0, 1, 0, engine.NullFloat64())
	if _, err := NewPartition(facts, nil); err == nil {
		t.Fatal("a partition without a factor table")
	}
	null := engine.NullInt32
	clause := engine.NewTable("TPhi", ground.FactorSchema())
	clause.AppendRow(1, 9, null, 1.0) // unknown body fact
	if _, err := NewPartition(facts, clause); err == nil {
		t.Fatal("a clause over an unknown fact accepted")
	}
	unit := engine.NewTable("TPhi", ground.FactorSchema())
	unit.AppendRow(7, null, null, 0.5) // unknown unit fact: Graph resolves units
	p, err := NewPartition(facts, unit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Graph([]bool{true, true}); err == nil {
		t.Fatal("a unit clause over an unknown fact accepted")
	}
}
