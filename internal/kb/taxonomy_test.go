package kb

import (
	"path/filepath"
	"testing"
)

func TestSubclassDeclarationAndPropagation(t *testing.T) {
	k := New()
	place := k.Classes.Intern("Place")
	city := k.Classes.Intern("City")
	capital := k.Classes.Intern("Capital")
	e := k.Entities.Intern("Paris")

	// Member added before the hierarchy exists.
	k.AddMember(capital, e)
	if err := k.DeclareSubclass(capital, city); err != nil {
		t.Fatal(err)
	}
	if err := k.DeclareSubclass(city, place); err != nil {
		t.Fatal(err)
	}
	// Declaration propagates the existing member up the chain.
	for _, c := range []int32{capital, city, place} {
		if _, ok := k.memberSet[ClassMember{Class: c, Entity: e}]; !ok {
			t.Fatalf("Paris missing from %s", k.Classes.Name(c))
		}
	}
	// A member added after the hierarchy propagates too.
	e2 := k.Entities.Intern("Lyon")
	k.AddMember(city, e2)
	if _, ok := k.memberSet[ClassMember{Class: place, Entity: e2}]; !ok {
		t.Fatal("Lyon missing from Place")
	}
	if _, ok := k.memberSet[ClassMember{Class: capital, Entity: e2}]; ok {
		t.Fatal("membership propagated downward")
	}
}

func TestSubclassQueries(t *testing.T) {
	k := New()
	a := k.Classes.Intern("A")
	b := k.Classes.Intern("B")
	c := k.Classes.Intern("C")
	d := k.Classes.Intern("D")
	if err := k.DeclareSubclass(a, b); err != nil {
		t.Fatal(err)
	}
	if err := k.DeclareSubclass(b, c); err != nil {
		t.Fatal(err)
	}
	if !k.IsSubclass(a, c) || !k.IsSubclass(a, a) {
		t.Fatal("transitive/reflexive subclass wrong")
	}
	if k.IsSubclass(c, a) || k.IsSubclass(a, d) {
		t.Fatal("inverse or unrelated subclass reported")
	}
	edges := k.SubclassEdges()
	if len(edges) != 2 || edges[0] != (SubclassEdge{Sub: a, Super: b}) {
		t.Fatalf("edges = %v", edges)
	}
}

func TestSubclassRejectsCycles(t *testing.T) {
	k := New()
	a := k.Classes.Intern("A")
	b := k.Classes.Intern("B")
	if err := k.DeclareSubclass(a, a); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := k.DeclareSubclass(a, b); err != nil {
		t.Fatal(err)
	}
	if err := k.DeclareSubclass(b, a); err == nil {
		t.Fatal("cycle accepted")
	}
	// Re-declaring is a no-op, not an error.
	if err := k.DeclareSubclass(a, b); err != nil {
		t.Fatal(err)
	}
	if len(k.SubclassEdges()) != 1 {
		t.Fatal("duplicate edge recorded")
	}
}

func TestTaxonomySaveLoadAndClone(t *testing.T) {
	k := New()
	city := k.Classes.Intern("City")
	place := k.Classes.Intern("Place")
	if err := k.DeclareSubclass(city, place); err != nil {
		t.Fatal(err)
	}
	k.InternFact("born_in", "P", "Person", "NYC", "City", 0.9)

	dir := filepath.Join(t.TempDir(), "kb")
	if err := k.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := loaded.Classes.Lookup("City")
	lp, _ := loaded.Classes.Lookup("Place")
	if !loaded.IsSubclass(lc, lp) {
		t.Fatal("taxonomy lost in round trip")
	}
	// NYC ∈ City must have propagated to Place on load.
	nyc, _ := loaded.Entities.Lookup("NYC")
	found := false
	for _, m := range loaded.MembersOf(lp) {
		if m == nyc {
			found = true
		}
	}
	if !found {
		t.Fatal("membership did not propagate on load")
	}

	clone := k.Clone()
	if !clone.IsSubclass(city, place) {
		t.Fatal("taxonomy lost in clone")
	}
}

func TestValidateCleanKB(t *testing.T) {
	k := New()
	k.InternFact("born_in", "P", "Person", "NYC", "City", 0.9)
	c, err := k.ParseRule("1.0 live_in(x:Person, y:City) :- born_in(x:Person, y:City)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(c); err != nil {
		t.Fatal(err)
	}
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(Constraint{Rel: bornIn, Type: TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	if errs := k.Validate(); len(errs) != 0 {
		t.Fatalf("clean KB reported errors: %v", errs)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	k := New()
	k.InternFact("r", "a", "A", "b", "B", 0.9)

	// Unregistered signature: inject a fact bypassing InternFact.
	appendUnchecked(k, Fact{Rel: 0, X: 0, XClass: 1, Y: 1, YClass: 0, W: 0.5})
	// NULL-weight base fact.
	appendUnchecked(k, Fact{Rel: 0, X: 0, XClass: 0, Y: 1, YClass: 1, W: nan()})
	// Bad constraint injected directly.
	k.Constraints = append(k.Constraints, Constraint{Rel: 99, Type: 7, Degree: 0})

	errs := k.Validate()
	if len(errs) < 4 {
		t.Fatalf("expected several validation errors, got %v", errs)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// appendUnchecked appends f to Π with none of AddFact's deduplication
// or typing: the corruption Validate exists to catch.
func appendUnchecked(k *KB, f Fact) {
	k.facts.AppendRowOf([]int32{int32(k.NumFacts()), f.Rel, f.X, f.XClass, f.Y, f.YClass}, []float64{f.W})
	k.factSet.NoteAppended()
}
