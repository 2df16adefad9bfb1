package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFilterInt32MatchesPredicate: the typed filter against the general
// one with the predicate SQL's three-valued logic prescribes, over a
// column with NULLs and both extremes: same rows, same order, same
// label, same morsel count, at every worker count and across Rebind.
func TestFilterInt32MatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := NewTable("t", NewSchema(C("pad", Float64), C("v", Int32)))
	for i := 0; i < 5000; i++ {
		v := int32(rng.Intn(21) - 10)
		switch rng.Intn(25) {
		case 0:
			v = NullInt32
		case 1:
			v = math.MaxInt32
		case 2:
			v = math.MinInt32 + 1
		}
		in.AppendRow(float64(i), v)
	}
	ops := map[CmpOp]func(a, b int32) bool{
		CmpEq: func(a, b int32) bool { return a == b },
		CmpNe: func(a, b int32) bool { return a != b },
		CmpLt: func(a, b int32) bool { return a < b },
		CmpLe: func(a, b int32) bool { return a <= b },
		CmpGt: func(a, b int32) bool { return a > b },
		CmpGe: func(a, b int32) bool { return a >= b },
	}
	for op, cmp := range ops {
		for _, lit := range []int32{0, 3, -10, 10, 11, math.MaxInt32, math.MinInt32 + 1} {
			pred := func(t *Table, r int) bool {
				v := t.Int32Col(1)[r]
				return v != NullInt32 && cmp(v, lit)
			}
			for _, workers := range []int{1, 2, 8} {
				o := Opts{Workers: workers, MorselSize: 512}
				want := NewFilter(NewScan(in), "v ? lit", pred)
				got := NewFilterInt32(NewScan(in), "v ? lit", 1, op, lit)
				rebound := Rebind(got, in).(*FilterNode)
				for _, n := range []*FilterNode{want, got, rebound} {
					Configure(n, o)
				}
				wantOut, err := want.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []*FilterNode{got, rebound} {
					out, err := n.Run()
					if err != nil {
						t.Fatal(err)
					}
					if out.String() != wantOut.String() {
						t.Fatalf("op %03b lit %d workers %d: typed filter kept %d rows, predicate %d", op, lit, workers, out.NumRows(), wantOut.NumRows())
					}
					if n.Label() != want.Label() || n.Stats().Morsels != want.Stats().Morsels {
						t.Fatalf("typed filter reports %q morsels=%d, predicate %q morsels=%d",
							n.Label(), n.Stats().Morsels, want.Label(), want.Stats().Morsels)
					}
				}
			}
		}
	}
}

func TestFilterInt32RejectsBadArguments(t *testing.T) {
	in := NewTable("t", NewSchema(C("f", Float64), C("v", Int32)))
	for name, build := range map[string]func(){
		"float column": func() { NewFilterInt32(NewScan(in), "x", 0, CmpEq, 1) },
		"NULL literal": func() { NewFilterInt32(NewScan(in), "x", 1, CmpEq, NullInt32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}

// TestCatalogLazyEntries: a lazy entry builds on first reference, once,
// however many goroutines ask; its statistics likewise; a failed build
// stays failed; Put starts an entry over; a frozen catalog takes no more
// entries.
func TestCatalogLazyEntries(t *testing.T) {
	var builds atomic.Int32
	cat := NewCatalog()
	cat.PutLazy("L", func() (*Table, error) {
		builds.Add(1)
		l := NewTable("L", NewSchema(C("a", Int32)))
		l.AppendRow(int32(1))
		l.AppendRow(int32(1))
		return l, nil
	})
	cat.PutLazy("bad", func() (*Table, error) { builds.Add(1); return nil, errors.New("no such relation") })
	if got := cat.Names(); len(got) != 2 || cat.Len() != 2 || builds.Load() != 0 {
		t.Fatalf("registering built something: names %v, %d builds", got, builds.Load())
	}

	var wg sync.WaitGroup
	tables := make([]*Table, 8)
	stats := make([]*TableStats, 8)
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = cat.MustGet("L")
			stats[i], _ = cat.Stats("L")
		}()
	}
	wg.Wait()
	for i := range tables {
		if tables[i] != tables[0] || stats[i] != stats[0] {
			t.Fatal("concurrent references saw different tables or statistics")
		}
	}
	if builds.Load() != 1 || stats[0].Rows != 2 || stats[0].Cols[0].Distinct != 1 {
		t.Fatalf("%d builds, stats %+v", builds.Load(), stats[0])
	}
	for i := 0; i < 2; i++ {
		if _, err := cat.Get("bad"); err == nil {
			t.Fatal("failed build returned a table")
		}
		if _, err := cat.Stats("bad"); err == nil {
			t.Fatal("failed build returned statistics")
		}
	}
	if builds.Load() != 2 {
		t.Fatalf("failed build retried: %d builds", builds.Load())
	}
	if _, err := cat.Stats("missing"); err == nil {
		t.Fatal("Stats of a missing table succeeded")
	}

	// Put replaces the entry, statistics included.
	tables[0].AppendRow(int32(2))
	cat.Put(tables[0])
	if st, _ := cat.Stats("L"); st == stats[0] || st.Rows != 3 || st.Cols[0].Distinct != 2 {
		t.Fatalf("stats after re-Put = %+v", st)
	}

	cat.Freeze()
	if !cat.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	for name, mutate := range map[string]func(){
		"Put":     func() { cat.Put(tables[0]) },
		"PutLazy": func() { cat.PutLazy("M", nil) },
		"Drop":    func() { cat.Drop("L") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen catalog did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if cat.MustGet("L") != tables[0] {
		t.Fatal("frozen catalog lost a table")
	}
}
