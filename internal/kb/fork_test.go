package kb

import (
	"reflect"
	"sync"
	"testing"
)

func forkFixture(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.InternFact("born_in", "kafka", "Writer", "prague", "Place", 0.9)
	k.InternFact("located_in", "prague", "Place", "czechia", "Country", 0.8)
	c, err := k.ParseRule("1.2 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(c); err != nil {
		t.Fatal(err)
	}
	if err := k.AddConstraint(Constraint{Rel: k.RelDict.Intern("born_in"), Type: TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	return k
}

// snapshotOf captures every externally observable piece of a KB so a
// test can assert the frozen side of a fork did not move.
type kbSnapshot struct {
	stats    Stats
	facts    []Fact
	members  []ClassMember
	entities []string
	classes  []string
	rels     []string
}

func snapshotOf(k *KB) kbSnapshot {
	return kbSnapshot{
		stats:    k.Stats(),
		facts:    append([]Fact(nil), k.Facts...),
		members:  append([]ClassMember(nil), k.Members...),
		entities: append([]string(nil), k.Entities.Names()...),
		classes:  append([]string(nil), k.Classes.Names()...),
		rels:     append([]string(nil), k.RelDict.Names()...),
	}
}

// TestForkIsolation is the COW contract: every mutation class applied
// to a fork — new symbols, new facts, in-place weight writes, fact
// deletion, wholesale replacement, rules, constraints, hierarchy — must
// leave the frozen parent byte-for-byte unchanged, and vice versa.
func TestForkIsolation(t *testing.T) {
	parent := forkFixture(t)
	before := snapshotOf(parent)

	fork := parent.Fork()
	// Mutate the fork through every write path.
	fork.InternFact("died_in", "kafka", "Writer", "vienna", "Place", 0.7)
	if !fork.SetWeight(fork.Facts[0].Key(), 0.123) {
		t.Fatal("SetWeight missed an existing fact")
	}
	fork.DeleteFacts(map[Key]bool{fork.Facts[1].Key(): true})
	if err := fork.DeclareSubclass(fork.Classes.Intern("Novelist"), fork.Classes.Intern("Writer")); err != nil {
		t.Fatal(err)
	}
	fork.AddMember(fork.Classes.Intern("Novelist"), fork.Entities.Intern("kafka"))
	if err := fork.AddConstraint(Constraint{Rel: fork.RelDict.Intern("died_in"), Type: TypeII, Degree: 2}); err != nil {
		t.Fatal(err)
	}

	if got := snapshotOf(parent); !reflect.DeepEqual(got, before) {
		t.Fatalf("fork mutations leaked into the frozen parent:\nbefore: %+v\nafter:  %+v", before, got)
	}

	// The reverse direction: mutate the parent, the fork must not move.
	forkBefore := snapshotOf(fork)
	parent.InternFact("wrote", "kafka", "Writer", "the_trial", "Book", 0.95)
	parent.SetWeight(parent.Facts[0].Key(), 0.5)
	if got := snapshotOf(fork); !reflect.DeepEqual(got, forkBefore) {
		t.Fatalf("parent mutations leaked into the fork:\nbefore: %+v\nafter:  %+v", forkBefore, got)
	}
}

// TestForkOfFork chains forks: generation N+2 built on N+1 built on N,
// each isolated from the others.
func TestForkOfFork(t *testing.T) {
	g1 := forkFixture(t)
	g2 := g1.Fork()
	g2.InternFact("died_in", "kafka", "Writer", "vienna", "Place", 0.7)
	g3 := g2.Fork()
	g3.InternFact("buried_in", "kafka", "Writer", "prague", "Place", 0.6)

	if got := g1.Stats().Facts; got != 2 {
		t.Errorf("g1 facts: got %d, want 2", got)
	}
	if got := g2.Stats().Facts; got != 3 {
		t.Errorf("g2 facts: got %d, want 3", got)
	}
	if got := g3.Stats().Facts; got != 4 {
		t.Errorf("g3 facts: got %d, want 4", got)
	}
}

// TestForkPreservesIDs asserts dictionary IDs survive a fork unchanged
// and new symbols extend, never renumber — cached query keys and tables
// built against generation N stay valid against N+1.
func TestForkPreservesIDs(t *testing.T) {
	parent := forkFixture(t)
	fork := parent.Fork()
	fork.InternFact("died_in", "kafka", "Writer", "vienna", "Place", 0.7)
	for _, name := range parent.Entities.Names() {
		pid, _ := parent.Entities.Lookup(name)
		fid, ok := fork.Entities.Lookup(name)
		if !ok || pid != fid {
			t.Fatalf("entity %q: parent id %d, fork id %d (ok=%v)", name, pid, fid, ok)
		}
	}
	if _, ok := parent.Entities.Lookup("vienna"); ok {
		t.Fatal("fork's new symbol visible in the frozen parent")
	}
}

// TestForkConcurrentReadsDuringWrite drives the serving-tier access
// pattern under -race: readers resolve symbols and scan facts on the
// frozen side while the fork interns, appends, deletes and rewrites
// weights concurrently.
func TestForkConcurrentReadsDuringWrite(t *testing.T) {
	parent := forkFixture(t)
	fork := parent.Fork()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if id, ok := parent.Entities.Lookup("kafka"); !ok || parent.Entities.Name(id) != "kafka" {
					t.Error("frozen parent lost a symbol mid-write")
					return
				}
				n := 0
				for _, f := range parent.Facts {
					if f.W < 0 || f.W > 1 {
						t.Errorf("frozen parent fact weight torn: %v", f.W)
						return
					}
					n++
				}
				if n != 2 {
					t.Errorf("frozen parent fact count moved: %d", n)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		fork.InternFact("rel", "e", "C", "e2", "C", float64(i%100)/100)
		fork.SetWeight(fork.Facts[0].Key(), float64(i%100)/100)
		if i%50 == 0 {
			fork.DeleteFacts(map[Key]bool{fork.Facts[len(fork.Facts)-1].Key(): true})
		}
	}
	close(stop)
	wg.Wait()
}

// TestForkStaysSharedOnKnownSymbols is the write barrier's fast path —
// what a streamed batch over known relations and entities does to the
// served generation's fork: re-adding existing signatures and
// memberships is a pure read, so the fork keeps sharing every slice and
// map with its parent (no copy), while readers scan the parent under
// -race. The first genuinely new membership or signature still pays
// for a private copy, and the parent never moves.
func TestForkStaysSharedOnKnownSymbols(t *testing.T) {
	parent := forkFixture(t)
	before := snapshotOf(parent)
	sigs := len(parent.Relations)
	fork := parent.Fork()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, f := range parent.Facts {
					if !parent.HasFact(f.Key()) {
						t.Error("frozen parent lost a fact mid-write")
						return
					}
				}
				if len(parent.Members) != len(before.members) || len(parent.Relations) != sigs {
					t.Error("frozen parent's catalog moved")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, r := range parent.Relations {
			if id := fork.AddRelation(r.Name, r.Domain, r.Range); id != r.ID {
				t.Fatalf("re-added relation %s got id %d, want %d", r.Name, id, r.ID)
			}
		}
		for _, m := range parent.Members {
			fork.AddMember(m.Class, m.Entity)
		}
	}
	sharing := func(k *KB) bool {
		return k.shared.Load() && &k.Facts[0] == &parent.Facts[0] && &k.Members[0] == &parent.Members[0]
	}
	if !sharing(fork) {
		t.Fatal("re-adding only known relations and members copied the fork")
	}

	writer, _ := fork.Classes.Lookup("Writer")
	fork.AddMember(writer, fork.Entities.Intern("musil"))
	if sharing(fork) {
		t.Fatal("a new membership did not materialize the fork")
	}
	if len(fork.Members) != len(before.members)+1 {
		t.Fatalf("fork has %d members, want %d", len(fork.Members), len(before.members)+1)
	}

	fork2 := parent.Fork()
	country, _ := fork2.Classes.Lookup("Country")
	fork2.AddRelation("born_in", writer, country)
	if sharing(fork2) {
		t.Fatal("a new relation signature did not materialize the fork")
	}
	if len(fork2.Relations) != sigs+1 {
		t.Fatalf("fork has %d signatures, want %d", len(fork2.Relations), sigs+1)
	}

	close(stop)
	wg.Wait()
	if got := snapshotOf(parent); !reflect.DeepEqual(got, before) {
		t.Fatalf("fork writes leaked into the frozen parent:\nbefore: %+v\nafter:  %+v", before, got)
	}
}

// TestKeepFactsOnFork: the pre-clean's narrowing write on a shared fork
// moves neither side's facts under the other, on the first write to the
// fork and after later ones, and leaves the index answering for exactly
// the survivors. On a private KB it filters the slice it has.
func TestKeepFactsOnFork(t *testing.T) {
	parent := forkFixture(t)
	parent.InternFact("died_in", "kafka", "Writer", "vienna", "Place", 0.7)
	before := snapshotOf(parent)
	gone := parent.Facts[1].Key()

	fork := parent.Fork()
	fork.KeepFacts([]int32{0, 2})
	if got := snapshotOf(parent); !reflect.DeepEqual(got, before) {
		t.Fatalf("KeepFacts on the fork leaked into the parent:\nbefore: %+v\nafter:  %+v", before, got)
	}
	if len(fork.Facts) != 2 || fork.Facts[0] != before.facts[0] || fork.Facts[1] != before.facts[2] {
		t.Fatalf("fork facts = %+v, want positions 0 and 2 of %+v", fork.Facts, before.facts)
	}
	if fork.HasFact(gone) || !fork.HasFact(before.facts[2].Key()) || !parent.HasFact(gone) {
		t.Fatal("fact index out of step with the kept facts")
	}
	// The fork is still a fork: later writes on either side stay apart.
	forkBefore := snapshotOf(fork)
	parent.KeepFacts([]int32{1})
	parent.SetWeight(gone, 0.25)
	if got := snapshotOf(fork); !reflect.DeepEqual(got, forkBefore) {
		t.Fatalf("parent writes leaked into the fork:\nbefore: %+v\nafter:  %+v", forkBefore, got)
	}
	fork.InternFact("wrote", "kafka", "Writer", "the_trial", "Book", 0.95)
	if len(parent.Facts) != 1 || parent.Facts[0].Key() != gone || parent.Facts[0].W != 0.25 {
		t.Fatalf("parent facts = %+v, want the one fact it kept", parent.Facts)
	}

	private := forkFixture(t)
	arr := &private.Facts[0]
	private.KeepFacts([]int32{1})
	if len(private.Facts) != 1 || &private.Facts[0] != arr || private.Facts[0].Key() != before.facts[1].Key() {
		t.Fatalf("private KeepFacts should filter in place; facts = %+v", private.Facts)
	}
}
