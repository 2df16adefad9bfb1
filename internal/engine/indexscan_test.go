package engine

import (
	"math/rand"
	"sync"
	"testing"
)

// TestIndexScanMatchesFilter: an Index Scan returns what the typed
// equality filter over a Seq Scan returns, the same rows in the same
// order, for values present, absent and past either end, on both index
// layouts — a NULL cell in the column makes its span sparse — and its
// label and op kind follow the Seq Scan's.
func TestIndexScanMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, c := range []struct {
		name     string
		lo, span int32
		nulls    bool
	}{
		{"dense", -30, 40, false},
		{"sparse", -1 << 20, 1 << 30, false},
		{"nulls", 0, 50, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl := threeCol(rng, 500, c.lo, c.span)
			if c.nulls {
				for r := 0; r < tbl.NumRows(); r += 7 {
					tbl.Int32Col(1)[r] = NullInt32
				}
			}
			ix := NewEntityIndex(tbl, 1)
			if sparse := ix.base.keys != nil; sparse != (c.name != "dense") {
				t.Fatalf("layout sparse=%v", sparse)
			}
			vals := []int32{c.lo - 1, c.lo + c.span, NullInt32 + 1}
			for r := 0; r < tbl.NumRows(); r += 37 {
				vals = append(vals, tbl.Int32Col(1)[r])
			}
			for _, v := range vals {
				if v == NullInt32 {
					continue
				}
				want, err := NewFilterInt32(NewScan(tbl), "b = v", 1, CmpEq, v).Run()
				if err != nil {
					t.Fatal(err)
				}
				scan := NewIndexScan(ix, v, "b = v")
				got, err := scan.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() || scan.Stats().Rows != want.NumRows() {
					t.Fatalf("b = %d:\n%s\nwant\n%s", v, got, want)
				}
			}
		})
	}
	tbl := threeCol(rng, 10, 0, 5)
	scan := NewIndexScan(NewEntityIndex(tbl, 0), 3, "T.a = 3")
	if got, want := scan.Label(), "Index Scan on T (T.a = 3)"; got != want {
		t.Fatalf("Label %q, want %q", got, want)
	}
	if got, want := scan.OpKind(), opKind(scan.Label()); got != want {
		t.Fatalf("OpKind %q, label reduces to %q", got, want)
	}
	for name, bad := range map[string]func(){
		"two columns":  func() { NewIndexScan(NewEntityIndex(tbl, 0, 1), 3, "x") },
		"NULL literal": func() { NewIndexScan(NewEntityIndex(tbl, 0), NullInt32, "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestCatalogIndexBuiltOncePerColumn: concurrent first requests share
// one index per column, built over the entry's table; a column that is
// missing or not INT is an error.
func TestCatalogIndexBuiltOncePerColumn(t *testing.T) {
	var builds int
	cat := NewCatalog(nil, map[string]func() (*Table, error){"T": func() (*Table, error) {
		builds++
		tbl := NewTable("T", NewSchema(C("a", Int32), C("w", Float64)))
		for i := 0; i < 100; i++ {
			tbl.AppendRow(int32(i%10), float64(i))
		}
		return tbl, nil
	}})
	got := make([][2]*EntityIndex, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i][0], _ = cat.Index("T", 0)
			got[i][1], _ = cat.Index("T", 0)
		}()
	}
	wg.Wait()
	ix := got[0][0]
	for _, g := range got {
		if g[0] != ix || g[1] != ix {
			t.Fatal("concurrent first requests got different indexes")
		}
	}
	if builds != 1 || ix.Table() != cat.MustGet("T") || ix.Len() != 100 || len(ix.Lookup(3, nil)) != 10 {
		t.Fatalf("%d builds, index over %d rows", builds, ix.Len())
	}
	for _, col := range []int{-1, 1, 2} {
		if _, err := cat.Index("T", col); err == nil {
			t.Errorf("column %d indexed", col)
		}
	}
	if _, err := cat.Index("missing", 0); err == nil {
		t.Error("a missing table indexed")
	}
}
