package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// buildABW makes an (a int, b int, w float) table with n rows drawn from
// a small key domain so joins and groups collide heavily.
func buildABW(rng *rand.Rand, name string, n int) *Table {
	t := NewTable(name, NewSchema(C("a", Int32), C("b", Int32), C("w", Float64)))
	for i := 0; i < n; i++ {
		t.AppendRow(rng.Int31n(7), rng.Int31n(5), rng.Float64())
	}
	return t
}

// tablesIdentical requires bit-identical contents including row order;
// floats compare by bit pattern so NaN-boxed NULLs match too.
func tablesIdentical(a, b *Table) bool {
	if a.Schema().String() != b.Schema().String() || a.NumRows() != b.NumRows() {
		return false
	}
	for c := 0; c < a.Schema().NumCols(); c++ {
		switch a.Schema().Cols[c].Type {
		case Int32:
			av, bv := a.Int32Col(c), b.Int32Col(c)
			for r := range av {
				if av[r] != bv[r] {
					return false
				}
			}
		case Float64:
			av, bv := a.Float64Col(c), b.Float64Col(c)
			for r := range av {
				if math.Float64bits(av[r]) != math.Float64bits(bv[r]) {
					return false
				}
			}
		case String:
			av, bv := a.StringCol(c), b.StringCol(c)
			for r := range av {
				if av[r] != bv[r] {
					return false
				}
			}
		}
	}
	return true
}

// runWorkers executes a freshly built plan under the given options.
func runWorkers(build func() Node, o Opts) *Table {
	p := build()
	Configure(p, o)
	out, err := p.Run()
	if err != nil {
		panic(err)
	}
	return out
}

// TestParallelMatchesSerial: every parallel operator must produce output
// bit-identical (row order included) to Workers=1, across worker counts
// and with a tiny morsel size that forces multi-morsel merges even on
// small inputs.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := buildABW(rng, "T", 300)
	right := buildABW(rng, "R", 200)

	plans := map[string]func() Node{
		"filter": func() Node {
			return NewFilter(NewScan(in), "a > 2", func(t *Table, r int) bool { return t.Int32Col(0)[r] > 2 })
		},
		"project": func() Node {
			return NewProject(NewScan(in), ColExpr("b", 1), ConstI32Expr("c", 9), NullF64Expr("nw"))
		},
		"distinct": func() Node { return NewDistinct(NewScan(in), []int{0, 1}) },
		"join": func() Node {
			return NewHashJoin(NewScan(in), NewScan(right), []int{0}, []int{0},
				[]JoinOut{BuildCol("a", 0), BuildCol("b", 1), ProbeCol("rb", 1)}, "T.a = R.a")
		},
		"groupby": func() Node {
			return NewGroupBy(NewScan(in), []int{0}, []AggSpec{
				{Kind: AggCount, Name: "n"},
				{Kind: AggCountDistinct, Col: 1, Name: "nd"},
				{Kind: AggMinF64, Col: 2, Name: "mn"},
				{Kind: AggMaxF64, Col: 2, Name: "mx"},
				{Kind: AggSumF64, Col: 2, Name: "sm"},
			})
		},
	}
	for name, build := range plans {
		serial := runWorkers(build, Opts{Workers: 1, MorselSize: 16})
		for _, w := range []int{2, 3, 4, 8} {
			par := runWorkers(build, Opts{Workers: w, MorselSize: 16})
			if !tablesIdentical(serial, par) {
				t.Fatalf("%s: Workers=%d output differs from serial\nserial:\n%s\nparallel:\n%s",
					name, w, serial, par)
			}
		}
	}
}

// TestGroupBySingleMorselMatchesLegacySerial: inputs that fit one morsel
// must take the merge-free path, keeping historical bitwise behavior.
func TestGroupBySingleMorselMatchesLegacySerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := buildABW(rng, "T", 500)
	var st NodeStats
	one, err := GroupByTableOpts(in, []int{0}, []AggSpec{{Kind: AggSumF64, Col: 2, Name: "s"}},
		Opts{Workers: 8}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Morsels != 1 {
		t.Fatalf("500 rows at default morsel size should be 1 morsel, got %d", st.Morsels)
	}
	legacy, err := GroupByTableOpts(in, []int{0}, []AggSpec{{Kind: AggSumF64, Col: 2, Name: "s"}},
		Opts{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesIdentical(one, legacy) {
		t.Fatal("single-morsel groupby differs from legacy serial kernel")
	}
}

// TestExplainExecNote: after a parallel run, Explain annotates operators
// with worker and morsel counts.
func TestExplainExecNote(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := buildABW(rng, "T", 100)
	f := NewFilter(NewScan(in), "true", func(*Table, int) bool { return true })
	Configure(f, Opts{Workers: 4, MorselSize: 16})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	exp := Explain(f)
	if !strings.Contains(exp, "workers=4") || !strings.Contains(exp, "morsels=7") {
		t.Fatalf("Explain missing exec note:\n%s", exp)
	}
	// Workers=1 runs record the note too (morsels still counted).
	Configure(f, Opts{Workers: 1, MorselSize: 16})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(f), "workers=1 morsels=7") {
		t.Fatalf("serial Explain missing exec note:\n%s", Explain(f))
	}
}

// TestRunMorselsPanicPropagates: a panic on a worker goroutine re-raises
// on the caller, so the MPP segment runner's recover still sees it.
func TestRunMorselsPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	runMorsels("test", 100, Opts{Workers: 4, MorselSize: 8}, nil, func(m, lo, hi int) {
		if m == 5 {
			panic("boom")
		}
	})
}

// TestCatalogConcurrent is the -race regression test for Catalog locking:
// goroutines mutate the catalog while others resolve tables and execute
// parallel plans over them.
func TestCatalogConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cat := NewCatalog()
	cat.Put(buildABW(rng, "base", 256))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g)
			for i := 0; i < 50; i++ {
				tab := NewTable(name, NewSchema(C("a", Int32), C("b", Int32), C("w", Float64)))
				tab.AppendRow(int32(g), int32(i), 0.5)
				cat.Put(tab)
				base := cat.MustGet("base")
				f := NewFilter(NewScan(base), "a>3", func(t *Table, r int) bool { return t.Int32Col(0)[r] > 3 })
				Configure(f, Opts{Workers: 2, MorselSize: 32})
				if _, err := f.Run(); err != nil {
					panic(err)
				}
				if _, err := cat.Get(name); err != nil {
					panic(err)
				}
				cat.Names()
				cat.Len()
				if i%10 == 9 {
					cat.Drop(name)
				}
			}
		}(g)
	}
	wg.Wait()
}
