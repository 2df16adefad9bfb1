package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// threeCol builds n rows of three Int32 columns: a and b drawn from
// [lo, lo+span), c from [0, 4).
func threeCol(rng *rand.Rand, n int, lo, span int32) *Table {
	t := NewTable("T", NewSchema(C("a", Int32), C("b", Int32), C("c", Int32)))
	for i := 0; i < n; i++ {
		t.AppendRow(lo+rng.Int31n(span), lo+rng.Int31n(span), rng.Int31n(4))
	}
	return t
}

// scanRows is the oracle: the rows of t holding v in any of cols, in
// order, each once.
func scanRows(t *Table, v int32, cols []int) []int32 {
	var out []int32
	for r := 0; r < t.NumRows(); r++ {
		for _, c := range cols {
			if t.Int32Col(c)[r] == v {
				out = append(out, int32(r))
				break
			}
		}
	}
	return out
}

func checkIndex(t *testing.T, tbl *Table, ix *EntityIndex, lo, span int32) {
	t.Helper()
	for v := lo - 2; v < lo+span+2; v++ {
		got := ix.Lookup(v, nil)
		if want := scanRows(tbl, v, ix.Cols()); !slices.Equal(got, want) {
			t.Fatalf("cols %v value %d: rows %v, want %v", ix.Cols(), v, got, want)
		}
	}
}

// TestEntityIndexMatchesScan checks both layouts — dense spans and
// sparse ones far wider than the table — on one column and on two (a
// row holding the value in both listed once), before and after Extend.
func TestEntityIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name     string
		lo, span int32
	}{
		{"dense", 0, 50},
		{"dense-negative", -30, 40},
		{"sparse", 1_000_000, 1 << 30},
		{"sparse-tail", 5, 400}, // a dense base, a sparse tail
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, cols := range [][]int{{0}, {1}, {0, 1}} {
				tbl := threeCol(rng, 300, c.lo, c.span)
				if c.name == "sparse" {
					// Values far apart still repeat: reuse a few of them.
					for r := 0; r < 300; r += 3 {
						tbl.Int32Col(1)[r] = tbl.Int32Col(0)[r/2]
					}
				}
				ix := NewEntityIndex(tbl, cols...)
				probe := c.span
				if c.name == "sparse" {
					probe = 0 // too wide to walk; check the values present
					for r := 0; r < tbl.NumRows(); r++ {
						for _, col := range cols {
							v := tbl.Int32Col(col)[r]
							if got, want := ix.Lookup(v, nil), scanRows(tbl, v, cols); !slices.Equal(got, want) {
								t.Fatalf("value %d: rows %v, want %v", v, got, want)
							}
						}
					}
				}
				checkIndex(t, tbl, ix, c.lo, probe)
				more := threeCol(rng, 40, c.lo, c.span)
				tbl.AppendTable(more)
				ix.Extend()
				tbl.AppendTable(threeCol(rng, 7, c.lo, c.span))
				ix.Extend() // re-covers every row appended since the build
				if ix.Len() != tbl.NumRows() {
					t.Fatalf("Len %d after Extend, table has %d rows", ix.Len(), tbl.NumRows())
				}
				checkIndex(t, tbl, ix, c.lo, probe)
			}
		})
	}
}

func TestEntityIndexEmpty(t *testing.T) {
	tbl := NewTable("T", NewSchema(C("a", Int32)))
	ix := NewEntityIndex(tbl, 0)
	if got := ix.Lookup(0, nil); len(got) != 0 {
		t.Fatalf("empty index lists %v", got)
	}
	tbl.AppendRow(int32(7))
	ix.Extend()
	if got := ix.Lookup(7, nil); !slices.Equal(got, []int32{0}) {
		t.Fatalf("after Extend: %v", got)
	}
}

// TestIndexJoinMatchesHashJoin checks the index join against the hash
// join it replaces, row for row: without a group column it is
// HashJoin(outer, Scan(inner)); with one, the concatenation of that join
// over each run of the outer input.
func TestIndexJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		span := int32(5 + rng.Intn(60))
		inner := threeCol(rng, 1+rng.Intn(400), 0, span)
		outer := threeCol(rng, rng.Intn(80), 0, span+3)
		// Runs of equal group values, ascending like a delta's fact IDs.
		g := outer.Int32Col(2)
		for r, run := 0, int32(0); r < len(g); r++ {
			if rng.Intn(3) == 0 {
				run++
			}
			g[r] = run
		}
		lookCol := rng.Intn(2)
		outerKeys, innerKeys := []int{0}, []int{lookCol}
		if rng.Intn(2) == 0 {
			outerKeys, innerKeys = []int{0, 1}, []int{lookCol, 2}
		}
		outs := []JoinOut{BuildCol("oa", 0), ProbeCol("ia", 0), BuildCol("og", 2), ProbeCol("ib", 1), ProbeCol("ic", 2)}
		ix := NewEntityIndex(inner, lookCol)

		want, err := NewHashJoin(NewScan(outer), NewScan(inner), outerKeys, innerKeys, outs, "").Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewIndexJoin(NewScan(outer), ix, outerKeys, innerKeys, -1, outs, "").Run()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := got.String(), want.String(); a != b {
			t.Fatalf("trial %d ungrouped:\n%s\nwant\n%s", trial, a, b)
		}

		want = NewTable("join", got.Schema())
		for lo := 0; lo < outer.NumRows(); {
			hi := lo + 1
			for hi < outer.NumRows() && g[hi] == g[lo] {
				hi++
			}
			run := NewTable("run", outer.Schema())
			run.AppendRowsFrom(outer, rangeRows(lo, hi))
			part, err := NewHashJoin(NewScan(run), NewScan(inner), outerKeys, innerKeys, outs, "").Run()
			if err != nil {
				t.Fatal(err)
			}
			want.AppendTable(part)
			lo = hi
		}
		if got, err = NewIndexJoin(NewScan(outer), ix, outerKeys, innerKeys, 2, outs, "").Run(); err != nil {
			t.Fatal(err)
		}
		if a, b := got.String(), want.String(); a != b {
			t.Fatalf("trial %d grouped:\n%s\nwant\n%s", trial, a, b)
		}
	}
}

func rangeRows(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, int32(r))
	}
	return out
}

func TestIndexJoinLabel(t *testing.T) {
	inner := threeCol(rand.New(rand.NewSource(3)), 10, 0, 5)
	j := NewIndexJoin(NewScan(inner), NewEntityIndex(inner, 1), []int{0}, []int{1}, -1,
		[]JoinOut{BuildCol("a", 0)}, "T.a = U.b")
	if got, want := j.Label(), "Index Join on T.b (T.a = U.b)"; got != want {
		t.Fatalf("Label %q, want %q", got, want)
	}
	if j.OpKind() != "Index Join" {
		t.Fatalf("OpKind %q", j.OpKind())
	}
}
