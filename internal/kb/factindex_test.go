package kb

import (
	"math/rand"
	"testing"
)

// factModel is the index this package used to keep: the oracle the flat
// one is checked against.
type factModel map[Key]int

func modelOf(facts []Fact) factModel {
	m := make(factModel, len(facts))
	for i, f := range facts {
		if _, dup := m[f.Key()]; dup {
			panic("modelOf: duplicate key in Facts")
		}
		m[f.Key()] = i
	}
	return m
}

// checkIndex asserts that k's index answers exactly like a map built
// from k.Facts: every present key at its position, absent keys absent.
func checkIndex(t *testing.T, what string, k *KB, absent []Key) {
	t.Helper()
	model := modelOf(k.Facts)
	for key, want := range model {
		got, ok := k.FactIndex(key)
		if !ok || got != want || !k.HasFact(key) {
			t.Fatalf("%s: FactIndex(%v) = %d, %v; want %d, true", what, key, got, ok, want)
		}
	}
	for _, key := range absent {
		if _, in := model[key]; in {
			continue
		}
		if i, ok := k.FactIndex(key); ok || k.HasFact(key) {
			t.Fatalf("%s: absent key %v found at %d", what, key, i)
		}
	}
	if n := len(k.factIx); n&(n-1) != 0 || (len(k.Facts) > 0 && n < 2*len(k.Facts)) {
		t.Fatalf("%s: %d slots for %d facts, want a power of two at most half full", what, n, len(k.Facts))
	}
}

// randomFact draws from a small key space, so duplicates, near-misses
// (keys differing in one column) and probe chains are all common.
func randomFact(rng *rand.Rand) Fact {
	return Fact{
		Rel: int32(rng.Intn(4)), X: int32(rng.Intn(40)), XClass: int32(rng.Intn(2)),
		Y: int32(rng.Intn(40)), YClass: int32(rng.Intn(2)), W: rng.Float64(),
	}
}

func TestFactIndexAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	k := New()
	var absent []Key
	for i := 0; i < 64; i++ {
		absent = append(absent, randomFact(rng).Key())
	}

	// Growth through several doublings (8 → 4096 slots), with max-merge
	// on every duplicate.
	weights := map[Key]float64{}
	for len(k.Facts) < 1500 {
		f := randomFact(rng)
		prev, dup := weights[f.Key()]
		i, fresh := k.AddFact(f)
		if fresh == dup {
			t.Fatalf("AddFact(%v) fresh = %v, model says duplicate = %v", f, fresh, dup)
		}
		want := f.W
		if dup && prev > want {
			want = prev
		}
		weights[f.Key()] = want
		if k.Facts[i].Key() != f.Key() || k.Facts[i].W != want {
			t.Fatalf("AddFact(%v) landed on %v, want weight %v", f, k.Facts[i], want)
		}
		if len(k.Facts)%97 == 0 {
			checkIndex(t, "growth", k, absent)
		}
	}
	checkIndex(t, "grown", k, absent)

	// SetWeight: assignment through the index, absent keys refused.
	key := k.Facts[700].Key()
	if !k.SetWeight(key, 0.25) || k.Facts[700].W != 0.25 {
		t.Fatalf("SetWeight: fact 700 = %v", k.Facts[700])
	}
	if k.SetWeight(Key{Rel: 99}, 1) {
		t.Fatal("SetWeight accepted an absent key")
	}

	// DeleteFacts: survivors keep their order and are re-indexed at
	// their new positions; the deleted keys are gone.
	drop := map[Key]bool{}
	var dropped []Key
	for i := 0; i < len(k.Facts); i += 3 {
		drop[k.Facts[i].Key()] = true
		dropped = append(dropped, k.Facts[i].Key())
	}
	if n := k.DeleteFacts(drop); n != len(drop) {
		t.Fatalf("DeleteFacts removed %d, want %d", n, len(drop))
	}
	checkIndex(t, "after delete", k, append(dropped, absent...))

	// ReplaceFacts: a smaller set with duplicates inside it.
	var repl []Fact
	for i := 0; i < 300; i++ {
		repl = append(repl, randomFact(rng))
	}
	old := append([]Fact(nil), k.Facts...)
	k.ReplaceFacts(repl)
	var gone []Key
	for _, f := range old {
		gone = append(gone, f.Key())
	}
	checkIndex(t, "after replace", k, gone)
	if want := len(dedup(repl)); len(k.Facts) != want {
		t.Fatalf("ReplaceFacts kept %d facts, want %d distinct", len(k.Facts), want)
	}

	// Clone re-derives the index; Fork shares it until either side writes.
	checkIndex(t, "clone", k.Clone(), gone)
	parent, child := k, k.Fork()
	if &parent.factIx[0] != &child.factIx[0] {
		t.Fatal("Fork copied the index")
	}
	for i := 0; i < 400; i++ {
		child.AddFact(randomFact(rng))
	}
	checkIndex(t, "parent after child grew", parent, gone)
	checkIndex(t, "child", child, nil)
	before := len(child.Facts)
	for i := 0; i < 400; i++ {
		parent.AddFact(randomFact(rng))
	}
	checkIndex(t, "parent after its own growth", parent, nil)
	checkIndex(t, "child after parent grew", child, nil)
	if len(child.Facts) != before {
		t.Fatal("parent's writes reached the child")
	}
}

func dedup(facts []Fact) []Fact {
	seen := map[Key]bool{}
	var out []Fact
	for _, f := range facts {
		if !seen[f.Key()] {
			seen[f.Key()] = true
			out = append(out, f)
		}
	}
	return out
}

func TestFactIndexLookupsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := New()
	for i := 0; i < 500; i++ {
		k.AddFact(randomFact(rng))
	}
	present, absent := k.Facts[123].Key(), Key{Rel: 99, X: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := k.FactIndex(present); !ok {
			t.Fatal("present key not found")
		}
		if k.HasFact(absent) {
			t.Fatal("absent key found")
		}
	})
	if allocs != 0 {
		t.Fatalf("FactIndex + HasFact allocate %v times per call, want 0", allocs)
	}
}
