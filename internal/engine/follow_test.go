package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// The deletion differential. A RowSet and the EntityIndexes over a table
// follow its order-preserving deletions (FollowDeletion) instead of
// being built again; after every step of a random walk of appends and
// deletions — on a table and on Forks of it that share its bases — each
// followed structure must answer every lookup as a fresh build over the
// table does, and a parent whose base a fork shares must answer as it
// did before the fork.

// followed is one table with the structures that follow it.
type followed struct {
	t      *Table
	set    *RowSet
	byA    *EntityIndex // column a
	byAB   *EntityIndex // columns a and b
	keys   map[[2]int32]bool
	values []int32 // every a and b value ever appended, ascending, for the lookups
}

var followKey = []int{0, 1}

func newFollowed(t *Table) *followed {
	f := &followed{t: t, set: NewRowSet(t, followKey), byA: NewEntityIndex(t, 0), byAB: NewEntityIndex(t, 0, 1), keys: map[[2]int32]bool{}}
	for r := 0; r < t.NumRows(); r++ {
		f.note(r)
	}
	return f
}

func (f *followed) note(r int) {
	a, b := f.t.Int32Col(0)[r], f.t.Int32Col(1)[r]
	f.keys[[2]int32{a, b}] = true
	for _, v := range []int32{a, b} {
		if i, found := slices.BinarySearch(f.values, v); !found {
			f.values = slices.Insert(f.values, i, v)
		}
	}
}

// fork continues f on a Fork of its table, sharing its bases.
func (f *followed) fork() *followed {
	t := f.t.Fork()
	return &followed{t: t, set: f.set.Fork(t), byA: f.byA.Fork(t), byAB: f.byAB.Fork(t),
		keys: maps.Clone(f.keys), values: slices.Clone(f.values)}
}

// appendRows appends n rows with keys the table does not hold, values
// drawn from [lo, lo+span).
func (f *followed) appendRows(rng *rand.Rand, n int, lo, span int32) {
	for added := 0; added < n; {
		a, b := lo+rng.Int31n(span), lo+rng.Int31n(span)
		if f.keys[[2]int32{a, b}] {
			continue
		}
		f.t.AppendRow(a, b, rng.Int31n(4))
		f.note(f.t.NumRows() - 1)
		added++
	}
	f.set.NoteAppended()
	if rng.Intn(2) == 0 { // the entity indexes are extended lazily, as on a read
		f.byA.Extend()
		f.byAB.Extend()
	}
}

// deleteRows deletes about frac of the rows at or above from, in order,
// and has every structure follow.
func (f *followed) deleteRows(rng *rand.Rand, from int, frac float64) {
	var rows []int32
	for r := from; r < f.t.NumRows(); r++ {
		if rng.Float64() < frac {
			rows = append(rows, int32(r))
		}
	}
	for _, r := range rows {
		delete(f.keys, [2]int32{f.t.Int32Col(0)[r], f.t.Int32Col(1)[r]})
	}
	if len(rows) == 0 {
		return
	}
	before := f.t.Deletions()
	if n := f.t.DeleteRows(rows); n != len(rows) {
		panic(fmt.Sprintf("DeleteRows removed %d of %d rows", n, len(rows)))
	}
	d := f.t.LastDeletion()
	if f.t.Deletions() != before+1 || !slices.Equal(d.Rows, rows) {
		panic(fmt.Sprintf("deletion %d: %v after deleting %v", f.t.Deletions(), d.Rows, rows))
	}
	m := d.Renumbering()
	f.set.FollowDeletion(m)
	f.byA.FollowDeletion(m)
	f.byAB.FollowDeletion(m)
}

// answers lists, flat, every lookup f's structures answer: each row's
// key's row in the set (and, per value v, whether the absent key (v,
// v+1) is there), and each value's rows in both entity indexes, extended
// first, as a reader extends them.
func (f *followed) answers() []int32 {
	f.byA.Extend()
	f.byAB.Extend()
	return lookups(f.t, f.set, f.byA, f.byAB, f.values)
}

func lookups(t *Table, set *RowSet, byA, byAB *EntityIndex, values []int32) []int32 {
	out := []int32{int32(t.NumRows()), int32(set.Len())}
	for r := 0; r < t.NumRows(); r++ {
		out = append(out, int32(set.Find(t, r, followKey)))
	}
	for _, v := range values {
		in := int32(0)
		if set.ContainsKey(v, v+1) {
			in = 1
		}
		out = append(out, v, in)
		for _, ix := range []*EntityIndex{byA, byAB} {
			rows := ix.Lookup(v, nil)
			out = append(append(out, int32(len(rows))), rows...)
		}
	}
	return out
}

// fresh is what structures built over t now answer.
func (f *followed) fresh() []int32 {
	return lookups(f.t, NewRowSet(f.t, followKey), NewEntityIndex(f.t, 0), NewEntityIndex(f.t, 0, 1), f.values)
}

func TestFollowedDeletionsMatchFreshBuilds(t *testing.T) {
	forIndexShapes(t, func(t *testing.T) {
		for _, c := range []struct {
			name     string
			lo, span int32
		}{{"dense", 0, 40}, {"sparse", 1_000_000, 1 << 28}} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					// The structures are built over 200 rows, so that a fork
					// shares their bases until its rows pass 1/16 of them.
					base := NewTable("T", NewSchema(C("a", Int32), C("b", Int32), C("c", Int32)))
					base.Reserve(1024) // spare capacity, for the first fork to share
					f := newFollowed(base)
					f.appendRows(rng, 200, c.lo, c.span)
					f = newFollowed(base)
					var parent *followed
					var parentSaw []int32
					for step := 0; step < 40; step++ {
						switch op := rng.Intn(6); {
						case op == 0 && parent == nil:
							// Continue on a fork; the parent is published from
							// here on and must never change.
							f.byA.Extend()
							f.byAB.Extend()
							parent, parentSaw = f, f.answers()
							f = f.fork()
						case op <= 2:
							f.appendRows(rng, 1+rng.Intn(12), c.lo, c.span)
						case op == 3:
							// Mostly in the last rows, as a constraint pass's Δ.
							f.deleteRows(rng, max(0, f.t.NumRows()-20), 0.2)
						default:
							f.deleteRows(rng, 0, 0.03)
						}
						if got, want := f.answers(), f.fresh(); !slices.Equal(got, want) {
							t.Fatalf("step %d: the followed structures answer\n%v\nwant\n%v", step, got, want)
						}
						if parent != nil {
							if got := parent.answers(); !slices.Equal(got, parentSaw) {
								t.Fatalf("step %d: a fork's writes changed its parent:\n%v\nwas\n%v", step, got, parentSaw)
							}
						}
					}
					if parent == nil {
						t.Log("the walk never forked")
					}
				})
			}
		}
	})
}

// TestFollowDeletionRefusesAStaleSet: a set that missed rows appended
// before the deletion cannot follow it.
func TestFollowDeletionRefusesAStaleSet(t *testing.T) {
	tab := threeCol(rand.New(rand.NewSource(1)), 10, 0, 1000)
	s := NewRowSet(tab, followKey)
	tab.AppendRow(5000, 5000, 0)
	tab.DeleteRows([]int32{2})
	defer func() {
		if recover() == nil {
			t.Fatal("FollowDeletion by a set that missed an append did not panic")
		}
	}()
	s.FollowDeletion(tab.LastDeletion().Renumbering())
}

// TestDeleteRowsCopiesRuns: a deletion moves each run of survivors in
// place, allocates nothing, and refuses rows out of order.
func TestDeleteRowsCopiesRuns(t *testing.T) {
	tab := NewTable("T", NewSchema(C("a", Int32), C("w", Float64), C("s", String)))
	for i := 0; i < 10; i++ {
		tab.AppendRow(i, float64(i), fmt.Sprint(i))
	}
	col := tab.Int32Col(0)
	victims := []int32{0, 4, 5, 9}
	if allocs := testing.AllocsPerRun(1, func() {
		if tab.NumRows() == 10 {
			tab.DeleteRows(victims)
		}
	}); allocs > 1 { // the deletion record
		t.Fatalf("DeleteRows allocated %v times", allocs)
	}
	if got := tab.Int32Col(0); &got[0] != &col[0] || !slices.Equal(got, []int32{1, 2, 3, 6, 7, 8}) {
		t.Fatalf("after the deletion a = %v, want 1 2 3 6 7 8 in place", got)
	}
	if s := tab.StringCol(2); s[5] != "8" || tab.Float64Col(1)[3] != 6 {
		t.Fatalf("columns moved apart:\n%s", tab)
	}
	if d := tab.LastDeletion(); d == nil || tab.Deletions() != 1 || !slices.Equal(d.Rows, victims) {
		t.Fatalf("LastDeletion = %+v after %d deletions", d, tab.Deletions())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DeleteRows out of order did not panic")
		}
	}()
	tab.DeleteRows([]int32{3, 1})
}
