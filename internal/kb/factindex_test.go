package kb

import (
	"math/rand"
	"sync"
	"testing"
)

// factModel is a map from key to position: the oracle the KB's identity
// set over TΠ is checked against.
type factModel map[Key]int

func modelOf(facts []Fact) factModel {
	m := make(factModel, len(facts))
	for i, f := range facts {
		if _, dup := m[f.Key()]; dup {
			panic("modelOf: duplicate key in Π")
		}
		m[f.Key()] = i
	}
	return m
}

// factsOf lists Π of k in order.
func factsOf(k *KB) []Fact {
	out := make([]Fact, k.NumFacts())
	for i := range out {
		out[i] = k.FactAt(i)
	}
	return out
}

// checkIDs asserts that row r of k's TΠ holds ID r and that the
// identity set covers every row.
func checkIDs(t *testing.T, what string, k *KB) {
	t.Helper()
	for r, id := range k.facts.Int32Col(TPiI) {
		if id != int32(r) {
			t.Fatalf("%s: row %d holds fact ID %d", what, r, id)
		}
	}
	if k.factSet.Len() != k.NumFacts() {
		t.Fatalf("%s: the identity set holds %d rows, TΠ %d", what, k.factSet.Len(), k.NumFacts())
	}
}

// checkIndex asserts that k answers exactly like a map built from its
// facts: every present key at its position, absent keys absent.
func checkIndex(t *testing.T, what string, k *KB, absent []Key) {
	t.Helper()
	checkIDs(t, what, k)
	model := modelOf(factsOf(k))
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
}

// randomFact draws from a small key space, so duplicates, near-misses
// (keys differing in one column) and shared hash chains are all common.
func randomFact(rng *rand.Rand) Fact {
	return Fact{
		Rel: int32(rng.Intn(4)), X: int32(rng.Intn(40)), XClass: int32(rng.Intn(2)),
		Y: int32(rng.Intn(40)), YClass: int32(rng.Intn(2)), W: rng.Float64(),
	}
}

// addChecked adds f to k and to the weight model, asserting AddFact's
// answer, the max-merge, and that every row still holds its own ID.
func addChecked(t *testing.T, k *KB, weights map[Key]float64, f Fact) {
	t.Helper()
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
	if got := k.FactAt(i); got.Key() != f.Key() || got.W != want {
		t.Fatalf("AddFact(%v) landed on %v, want weight %v", f, got, want)
	}
	checkIDs(t, "AddFact", k)
}

// deleteEvery deletes every step-th fact of k from offset on, asserting
// the count and the IDs, and returns the deleted keys.
func deleteEvery(t *testing.T, k *KB, weights map[Key]float64, offset, step int) []Key {
	t.Helper()
	drop := map[Key]bool{}
	var dropped []Key
	for i := offset; i < k.NumFacts(); i += step {
		key := k.FactAt(i).Key()
		drop[key] = true
		dropped = append(dropped, key)
		delete(weights, key)
	}
	if n := k.DeleteFacts(drop); n != len(drop) {
		t.Fatalf("DeleteFacts removed %d, want %d", n, len(drop))
	}
	checkIDs(t, "DeleteFacts", k)
	return dropped
}

// checkWeights asserts that k holds exactly the model's facts at the
// model's weights.
func checkWeights(t *testing.T, what string, k *KB, weights map[Key]float64) {
	t.Helper()
	if k.NumFacts() != len(weights) {
		t.Fatalf("%s: %d facts, model %d", what, k.NumFacts(), len(weights))
	}
	for _, f := range factsOf(k) {
		if w, ok := weights[f.Key()]; !ok || w != f.W {
			t.Fatalf("%s: fact %v, model weight %v (present %v)", what, f, w, ok)
		}
	}
}

func TestFactIndexAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	k := New()
	var absent []Key
	for i := 0; i < 64; i++ {
		absent = append(absent, randomFact(rng).Key())
	}

	// Growth, with max-merge on every duplicate.
	weights := map[Key]float64{}
	for k.NumFacts() < 1500 {
		addChecked(t, k, weights, randomFact(rng))
		if k.NumFacts()%97 == 0 {
			checkIndex(t, "growth", k, absent)
		}
	}
	checkIndex(t, "grown", k, absent)

	// SetWeight: assignment through the index, absent keys refused.
	key := k.FactAt(700).Key()
	if !k.SetWeight(key, 0.25) || k.FactAt(700).W != 0.25 {
		t.Fatalf("SetWeight: fact 700 = %v", k.FactAt(700))
	}
	weights[key] = 0.25
	if k.SetWeight(Key{Rel: 99}, 1) {
		t.Fatal("SetWeight accepted an absent key")
	}

	// DeleteFacts: survivors keep their order and are found at their new
	// positions; the deleted keys are gone. Deleting them again is a
	// no-op.
	dropped := deleteEvery(t, k, weights, 0, 3)
	checkIndex(t, "after delete", k, append(dropped, absent...))
	again := map[Key]bool{}
	for _, key := range dropped {
		again[key] = true
	}
	if n := k.DeleteFacts(again); n != 0 {
		t.Fatalf("deleting absent keys removed %d", n)
	}
	checkWeights(t, "after delete", k, weights)

	// Growth after a deletion, then sealed, then deleted from again: the
	// set follows each deletion from its base and its tail alike.
	for i := 0; i < 300; i++ {
		addChecked(t, k, weights, randomFact(rng))
	}
	checkIndex(t, "regrown", k, absent)
	k.SealFacts()
	checkIndex(t, "sealed", k, absent)
	dropped = deleteEvery(t, k, weights, 1, 5)
	checkIndex(t, "sealed, then deleted", k, append(dropped, absent...))
	checkWeights(t, "sealed, then deleted", k, weights)

	// Clone answers alike; Fork shares the set's base until either side
	// writes it.
	checkIndex(t, "clone", k.Clone(), dropped)
	parent, child := k, k.Fork()
	if !child.factSet.SharesBase(parent.factSet) {
		t.Fatal("Fork copied the identity set")
	}
	childWeights := map[Key]float64{}
	for key, w := range weights {
		childWeights[key] = w
	}
	// The parent deletes while the child still reads its set's base.
	deleteEvery(t, parent, weights, 0, 6)
	checkIndex(t, "child after parent deleted", child, nil)
	checkWeights(t, "child after parent deleted", child, childWeights)
	for i := 0; i < 400; i++ {
		addChecked(t, child, childWeights, randomFact(rng))
	}
	deleteEvery(t, child, childWeights, 2, 7)
	checkIndex(t, "parent after child grew", parent, nil)
	checkWeights(t, "parent after child grew", parent, weights)
	checkIndex(t, "child", child, nil)
	for i := 0; i < 400; i++ {
		addChecked(t, parent, weights, randomFact(rng))
	}
	deleteEvery(t, parent, weights, 0, 4)
	checkIndex(t, "parent after its own growth", parent, nil)
	checkIndex(t, "child after parent grew", child, nil)
	checkWeights(t, "child after parent grew", child, childWeights)
}

// TestSiblingForksStayApart: engine.Table.Fork lets only the first fork
// of a table append into its arrays, and every sibling of one KB reads
// the same columns and the same set base. Each of several siblings adds,
// re-weights and deletes; none sees another's writes, and the parent
// moves for none of them.
func TestSiblingForksStayApart(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	parent := New()
	weights := map[Key]float64{}
	for parent.NumFacts() < 600 {
		addChecked(t, parent, weights, randomFact(rng))
	}
	parent.SealFacts()
	before := factsOf(parent)

	const siblings = 4
	forks := make([]*KB, siblings)
	models := make([]map[Key]float64, siblings)
	for s := range forks {
		forks[s] = parent.Fork()
		models[s] = map[Key]float64{}
		for key, w := range weights {
			models[s][key] = w
		}
	}
	for round := 0; round < 3; round++ {
		for s, k := range forks {
			for i := 0; i < 50; i++ {
				addChecked(t, k, models[s], randomFact(rng))
			}
			for i := s; i < k.NumFacts(); i += 11 {
				f := k.FactAt(i)
				w := float64(s*10+round) / 100
				if !k.SetWeight(f.Key(), w) {
					t.Fatalf("fork %d: SetWeight missed fact %d", s, i)
				}
				models[s][f.Key()] = w
			}
			deleteEvery(t, k, models[s], round+s, 9+s)
		}
		for s, k := range forks {
			checkIndex(t, "sibling", k, nil)
			checkWeights(t, "sibling", k, models[s])
		}
		if got := factsOf(parent); len(got) != len(before) {
			t.Fatalf("round %d: the parent holds %d facts, had %d", round, len(got), len(before))
		}
		for i, f := range factsOf(parent) {
			if f != before[i] {
				t.Fatalf("round %d: parent fact %d = %v, was %v", round, i, f, before[i])
			}
		}
		checkIndex(t, "parent", parent, nil)
	}
}

func TestFactIndexLookupsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := New()
	for i := 0; i < 500; i++ {
		k.AddFact(randomFact(rng))
	}
	k.SealFacts()
	for i := 0; i < 100; i++ { // a tail past the sealed base
		k.AddFact(randomFact(rng))
	}
	sealed, tail := k.FactAt(123).Key(), k.FactAt(k.NumFacts()-1).Key()
	absent := Key{Rel: 99, X: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := k.FactIndex(sealed); !ok {
			t.Fatal("present key not found")
		}
		if !k.HasFact(tail) {
			t.Fatal("present key not found in the tail")
		}
		if k.HasFact(absent) {
			t.Fatal("absent key found")
		}
	})
	if allocs != 0 {
		t.Fatalf("FactIndex + HasFact allocate %v times per call, want 0", allocs)
	}
}

// TestSiblingForksConcurrently is TestSiblingForksStayApart with the
// siblings forked and written at once, each on its own goroutine, while
// another reads the parent: run it under -race.
func TestSiblingForksConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	parent := New()
	for parent.NumFacts() < 600 {
		parent.AddFact(randomFact(rng))
	}
	parent.SealFacts()
	before := factsOf(parent)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, f := range before {
				if j, ok := parent.FactIndex(f.Key()); !ok || j != i || parent.FactAt(i) != f {
					t.Errorf("parent fact %d moved under its forks", i)
					return
				}
			}
		}
	}()
	const n = 4
	forks := make([]*KB, n)
	models := make([]map[Key]float64, n)
	var siblings sync.WaitGroup
	for s := 0; s < n; s++ {
		siblings.Add(1)
		go func(s int) {
			defer siblings.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			k := parent.Fork()
			weights := map[Key]float64{}
			forks[s], models[s] = k, weights
			for _, f := range before {
				weights[f.Key()] = f.W
			}
			for i := 0; i < 200; i++ {
				f := randomFact(rng)
				k.AddFact(f)
				if w, ok := weights[f.Key()]; !ok || f.W > w {
					weights[f.Key()] = f.W
				}
			}
			drop := map[Key]bool{}
			for i := s; i < k.NumFacts(); i += 5 {
				key := k.FactAt(i).Key()
				drop[key] = true
				delete(weights, key)
			}
			k.DeleteFacts(drop)
			for i := 0; i < k.NumFacts(); i += 3 {
				key := k.FactAt(i).Key()
				k.SetWeight(key, float64(s)/10)
				weights[key] = float64(s) / 10
			}
		}(s)
	}
	siblings.Wait()
	close(stop)
	wg.Wait()
	// Judged once every sibling is done: a write one of them let into
	// another's rows shows here.
	for s, k := range forks {
		checkIndex(t, "sibling", k, nil)
		checkWeights(t, "sibling", k, models[s])
	}
	checkIndex(t, "parent", parent, nil)
}
