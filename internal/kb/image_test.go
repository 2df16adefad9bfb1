package kb

import (
	"sync"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/obs"
)

func tablesBuilt(name string) int64 {
	return obs.Default.Counter("probkb_kb_image_tables_built_total", obs.L("table", name)).Value()
}

// sameRows compares two tables by their full rendering.
func sameRows(a, b *engine.Table) bool { return a.String() == b.String() }

// TestCatalogBuildsOnlyWhatIsReferenced: creating the image builds no
// table, a reference builds that table once, and the dictionary tables
// alias the dictionaries instead of copying them.
func TestCatalogBuildsOnlyWhatIsReferenced(t *testing.T) {
	k := forkFixture(t)
	t0, de0, m10 := tablesBuilt("T"), tablesBuilt("DE"), tablesBuilt("M1")
	cat := k.Catalog()
	if !cat.Frozen() || cat.Len() != 13 {
		t.Fatalf("catalog: frozen=%v with %d tables, want the 13 of Section 4.2, frozen", cat.Frozen(), cat.Len())
	}
	if tablesBuilt("T") != t0 {
		t.Fatal("creating the image built T")
	}
	T := cat.MustGet("T")
	if cat.MustGet("T") != T || k.Catalog() != cat {
		t.Fatal("a second reference rebuilt T or the image")
	}
	if tablesBuilt("T") != t0+1 || tablesBuilt("DE") != de0 || tablesBuilt("M1") != m10 {
		t.Fatalf("a reference to T built T %d times, DE %d, M1 %d; want 1, 0, 0",
			tablesBuilt("T")-t0, tablesBuilt("DE")-de0, tablesBuilt("M1")-m10)
	}
	if !sameRows(T, k.FactsTable()) {
		t.Fatalf("image T:\n%s\nFactsTable:\n%s", T, k.FactsTable())
	}
	st, err := cat.Stats("T")
	if err != nil || st.Rows != len(k.Facts) {
		t.Fatalf("Stats(T) = %+v, %v", st, err)
	}
	if again, _ := cat.Stats("T"); again != st {
		t.Fatal("T was ANALYZEd twice")
	}
	de := cat.MustGet("DE")
	if &de.StringCol(1)[0] != &k.Entities.Names()[0] {
		t.Fatal("DE copied the entity names")
	}
	parts, err := k.MLNPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(cat.MustGet("M1"), parts.Table(1)) {
		t.Fatal("image M1 differs from MLNPartitions")
	}
}

// TestCatalogValidity walks the validity rule: every mutator and every
// dictionary intern retires the image for the KB that changed — and for
// no other KB.
func TestCatalogValidity(t *testing.T) {
	k := forkFixture(t)
	writer, place := k.Classes.Intern("Writer"), k.Classes.Intern("Place")
	bornIn := k.RelDict.Intern("born_in")
	kafka, prague := k.Entities.Intern("kafka"), k.Entities.Intern("prague")

	steps := []struct {
		name    string
		retires bool
		do      func(k *KB)
	}{
		{"known relation signature", false, func(k *KB) { k.AddRelation("born_in", writer, place) }},
		{"known membership", false, func(k *KB) { k.AddMember(writer, kafka) }},
		{"known symbols interned", false, func(k *KB) { k.Entities.Intern("kafka"); k.Classes.Intern("Place"); k.RelDict.Intern("born_in") }},
		{"duplicate fact, lower weight", true, func(k *KB) {
			k.AddFact(Fact{Rel: bornIn, X: kafka, XClass: writer, Y: prague, YClass: place, W: 0.1})
		}},
		{"duplicate fact, higher weight", true, func(k *KB) {
			k.AddFact(Fact{Rel: bornIn, X: kafka, XClass: writer, Y: prague, YClass: place, W: 0.99})
		}},
		{"new fact", true, func(k *KB) { k.AddFact(Fact{Rel: bornIn, X: prague, XClass: writer, Y: kafka, YClass: place, W: 0.5}) }},
		{"SetWeight", true, func(k *KB) { k.SetWeight(k.Facts[0].Key(), 0.5) }},
		{"DeleteFacts", true, func(k *KB) { k.DeleteFacts(map[Key]bool{k.Facts[0].Key(): true}) }},
		{"ReplaceFacts", true, func(k *KB) { k.ReplaceFacts(append([]Fact(nil), k.Facts[:1]...)) }},
		{"AddRule", true, func(k *KB) {
			c, err := k.ParseRule("0.7 died_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
			if err != nil {
				t.Fatal(err)
			}
			if err := k.AddRule(c); err != nil {
				t.Fatal(err)
			}
		}},
		{"AddConstraint", true, func(k *KB) {
			if err := k.AddConstraint(Constraint{Rel: bornIn, Type: TypeII, Degree: 2}); err != nil {
				t.Fatal(err)
			}
		}},
		{"new relation signature", true, func(k *KB) { k.AddRelation("born_in", place, place) }},
		{"new membership", true, func(k *KB) { k.AddMember(place, kafka) }},
		{"DeclareSubclass", true, func(k *KB) {
			if err := k.DeclareSubclass(writer, k.Classes.Intern("Place")); err != nil {
				t.Fatal(err)
			}
		}},
		{"new entity name", true, func(k *KB) { k.Entities.Intern("brod") }},
		{"new class name", true, func(k *KB) { k.Classes.Intern("Critic") }},
		{"new relation name", true, func(k *KB) { k.RelDict.Intern("edited") }},
	}
	for _, step := range steps {
		parent := k.Fork() // k itself stays pristine for the next step
		before := parent.Catalog()
		child := parent.Fork()
		if child.Catalog() != before {
			t.Fatalf("%s: a fresh fork does not share its parent's image", step.name)
		}
		step.do(child)
		if got := child.Catalog() != before; got != step.retires {
			t.Errorf("%s: image retired for the mutated fork = %v, want %v", step.name, got, step.retires)
		}
		if parent.Catalog() != before {
			t.Errorf("%s: mutating the fork retired the parent's image", step.name)
		}
		if !sameRows(child.Catalog().MustGet("T"), child.FactsTable()) ||
			!sameRows(child.Catalog().MustGet("DE"), dictTable("DE", child.Entities.Names())) {
			t.Errorf("%s: the fork's image does not describe the fork", step.name)
		}
		// The same holds with the roles swapped: the parent mutates.
		step.do(parent)
		if got := parent.Catalog() != before; got != step.retires {
			t.Errorf("%s: image retired for the mutated parent = %v, want %v", step.name, got, step.retires)
		}
	}
}

// TestCatalogBuildsTheStateItWasCreatedFor: an image inherited by a fork
// and first read only after the parent moved on must show the state at
// the fork, not the parent's present.
func TestCatalogBuildsTheStateItWasCreatedFor(t *testing.T) {
	parent := forkFixture(t)
	cat := parent.Catalog() // nothing built yet
	want := parent.FactsTable()
	child := parent.Fork()

	parent.SetWeight(parent.Facts[0].Key(), 0.001) // in place, after the write barrier copied
	parent.InternFact("died_in", "kafka", "Writer", "vienna", "Place", 0.7)
	parent.Entities.Intern("brod")

	if child.Catalog() != cat {
		t.Fatal("the parent's mutation retired the child's image")
	}
	if got := cat.MustGet("T"); !sameRows(got, want) {
		t.Fatalf("late-built T:\n%s\nwant the state at the fork:\n%s", got, want)
	}
	if n := cat.MustGet("DE").NumRows(); n != child.Entities.Len() {
		t.Fatalf("late-built DE has %d rows, the child %d entities", n, child.Entities.Len())
	}
	if parent.Catalog() == cat {
		t.Fatal("the mutated parent kept the old image")
	}
}

// TestCatalogConcurrentReaders: readers of one frozen generation race to
// create the image and to build its tables while a writer forks and
// mutates; there is one image, each table is built once, and -race
// stays quiet.
func TestCatalogConcurrentReaders(t *testing.T) {
	gen := forkFixture(t).Fork()
	t0 := tablesBuilt("T")
	var wg sync.WaitGroup
	cats := make([]*engine.Catalog, 8)
	for i := range cats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cats[i] = gen.Catalog()
			if _, err := cats[i].Stats("T"); err != nil {
				t.Error(err)
			}
			cats[i].MustGet("DE")
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := gen.Fork()
		next.InternFact("died_in", "kafka", "Writer", "vienna", "Place", 0.7)
		next.Catalog().MustGet("T")
	}()
	wg.Wait()
	for _, c := range cats {
		if c != cats[0] {
			t.Fatal("readers of one generation got different images")
		}
	}
	if n := tablesBuilt("T") - t0; n != 2 {
		t.Fatalf("T built %d times, want once per generation (2)", n)
	}
}
