package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func aggInput() *Table {
	t := NewTable("T", NewSchema(C("g", Int32), C("v", Int32), C("w", Float64)))
	t.AppendRow(1, 10, 1.0)
	t.AppendRow(1, 10, 2.0)
	t.AppendRow(1, 11, 3.0)
	t.AppendRow(2, 10, -1.0)
	t.AppendRow(3, 12, 0.0)
	return t
}

func TestGroupByCountAndDistinct(t *testing.T) {
	in := aggInput()
	g := NewGroupBy(NewScan(in), []int{0}, []AggSpec{
		{Kind: AggCount, Name: "n"},
		{Kind: AggCountDistinct, Col: 1, Name: "nd"},
	})
	out, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantN := map[int32][2]int32{1: {3, 2}, 2: {1, 1}, 3: {1, 1}}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	for r := 0; r < out.NumRows(); r++ {
		gk := out.Int32Col(0)[r]
		w := wantN[gk]
		if out.Int32Col(1)[r] != w[0] || out.Int32Col(2)[r] != w[1] {
			t.Fatalf("group %d: (n=%d, nd=%d), want %v", gk, out.Int32Col(1)[r], out.Int32Col(2)[r], w)
		}
	}
}

func TestGroupByMinMaxSum(t *testing.T) {
	in := aggInput()
	g := NewGroupBy(NewScan(in), []int{0}, []AggSpec{
		{Kind: AggMinF64, Col: 2, Name: "mn"},
		{Kind: AggMaxF64, Col: 2, Name: "mx"},
		{Kind: AggSumF64, Col: 2, Name: "sm"},
	})
	out, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	type trio struct{ mn, mx, sm float64 }
	want := map[int32]trio{1: {1, 3, 6}, 2: {-1, -1, -1}, 3: {0, 0, 0}}
	for r := 0; r < out.NumRows(); r++ {
		gk := out.Int32Col(0)[r]
		w := want[gk]
		if out.Float64Col(1)[r] != w.mn || out.Float64Col(2)[r] != w.mx || out.Float64Col(3)[r] != w.sm {
			t.Fatalf("group %d: got (%v,%v,%v), want %+v", gk,
				out.Float64Col(1)[r], out.Float64Col(2)[r], out.Float64Col(3)[r], w)
		}
	}
}

func TestGroupByMultiKey(t *testing.T) {
	in := NewTable("T", NewSchema(C("a", Int32), C("b", Int32)))
	in.AppendRow(1, 1)
	in.AppendRow(1, 1)
	in.AppendRow(1, 2)
	in.AppendRow(2, 1)
	g := NewGroupBy(NewScan(in), []int{0, 1}, []AggSpec{{Kind: AggCount, Name: "n"}})
	out, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	in := NewTable("T", NewSchema(C("a", Int32)))
	g := NewGroupBy(NewScan(in), []int{0}, []AggSpec{{Kind: AggCount, Name: "n"}})
	out, err := g.Run()
	if err != nil || out.NumRows() != 0 {
		t.Fatalf("empty groupby: rows=%d err=%v", out.NumRows(), err)
	}
}

// TestGroupByCountAgreesWithBruteForce: per-group counts must match a map
// computed directly.
func TestGroupByCountAgreesWithBruteForce(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NewTable("T", NewSchema(C("g", Int32), C("v", Int32)))
		want := make(map[int32]int32)
		wantDistinct := make(map[int32]map[int32]bool)
		for i := 0; i < int(n)%64; i++ {
			gk := rng.Int31n(5)
			v := rng.Int31n(3)
			in.AppendRow(gk, v)
			want[gk]++
			if wantDistinct[gk] == nil {
				wantDistinct[gk] = map[int32]bool{}
			}
			wantDistinct[gk][v] = true
		}
		g := NewGroupBy(NewScan(in), []int{0}, []AggSpec{
			{Kind: AggCount, Name: "n"},
			{Kind: AggCountDistinct, Col: 1, Name: "nd"},
		})
		out, err := g.Run()
		if err != nil {
			return false
		}
		if out.NumRows() != len(want) {
			return false
		}
		for r := 0; r < out.NumRows(); r++ {
			gk := out.Int32Col(0)[r]
			if out.Int32Col(1)[r] != want[gk] {
				return false
			}
			if int(out.Int32Col(2)[r]) != len(wantDistinct[gk]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupBySumAgreesWithBruteForce checks float sums per group.
func TestGroupBySumAgreesWithBruteForce(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NewTable("T", NewSchema(C("g", Int32), C("w", Float64)))
		want := make(map[int32]float64)
		for i := 0; i < int(n)%48; i++ {
			gk := rng.Int31n(4)
			w := float64(rng.Intn(100)) / 10
			in.AppendRow(gk, w)
			want[gk] += w
		}
		g := NewGroupBy(NewScan(in), []int{0}, []AggSpec{{Kind: AggSumF64, Col: 1, Name: "s"}})
		out, err := g.Run()
		if err != nil || out.NumRows() != len(want) {
			return false
		}
		for r := 0; r < out.NumRows(); r++ {
			if math.Abs(out.Float64Col(1)[r]-want[out.Int32Col(0)[r]]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{
		AggCount: "count(*)", AggCountDistinct: "count(distinct)",
		AggMinF64: "min", AggMaxF64: "max", AggSumF64: "sum",
	} {
		if k.String() != want {
			t.Errorf("AggKind %d = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestGroupByHavingPattern exercises the shape of Query 3 in the paper:
// GROUP BY ... HAVING COUNT(*) > MIN(deg).
func TestGroupByHavingPattern(t *testing.T) {
	// (relation R, entity x, object y, degree deg)
	in := NewTable("TJ", NewSchema(C("R", Int32), C("x", Int32), C("y", Int32), C("deg", Float64)))
	// Entity 1 maps to two distinct y under functional relation (deg 1): violation.
	in.AppendRow(1, 1, 100, 1.0)
	in.AppendRow(1, 1, 101, 1.0)
	// Entity 2 maps to one y: fine.
	in.AppendRow(1, 2, 100, 1.0)
	// Entity 3 under a pseudo-functional relation with deg 2 and two
	// values: fine.
	in.AppendRow(2, 3, 100, 2.0)
	in.AppendRow(2, 3, 101, 2.0)
	g := NewGroupBy(NewScan(in), []int{0, 1}, []AggSpec{
		{Kind: AggCountDistinct, Col: 2, Name: "ny"},
		{Kind: AggMinF64, Col: 3, Name: "deg"},
	})
	having := NewFilter(g, "count(distinct y) > min(deg)", func(t *Table, r int) bool {
		return float64(t.Int32Col(2)[r]) > t.Float64Col(3)[r]
	})
	out, err := having.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Int32Col(1)[0] != 1 {
		t.Fatalf("HAVING selected wrong groups: %s", out)
	}
}
