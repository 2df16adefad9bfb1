package engine

import (
	"math"
	"math/rand"
	"testing"
)

// Collision and order tests for rowIndex, through the kernels built on it.
// Each runs under two index shapes: "one-bucket", where the bucket cap
// forces every row into a single chain (every lookup walks colliding
// rows, so only the stored-hash and key comparisons keep rows apart), and
// "grown", the default, where every incrementally built index starts at
// indexMinBuckets and the inputs below push it across several doublings.

func forIndexShapes(t *testing.T, f func(t *testing.T)) {
	for _, shape := range []struct {
		name string
		max  int
	}{{"one-bucket", 1}, {"grown", indexMaxBuckets}} {
		t.Run(shape.name, func(t *testing.T) {
			defer func(old int) { indexMaxBuckets = old }(indexMaxBuckets)
			indexMaxBuckets = shape.max
			f(t)
		})
	}
}

var indexWorkers = []int{1, 2, 8}

// TestHashRowPinned pins HashRow's values: it is also the MPP placement
// function, so it may get faster but never different.
func TestHashRowPinned(t *testing.T) {
	tab := NewTable("T", NewSchema(C("a", Int32), C("b", Int32), C("c", Int32), C("d", Int32), C("e", Int32)))
	tab.AppendRow(int32(1<<30), int32(0), int32(-1<<31), int32(123456789), int32(42))
	tab.AppendRow(int32(7), int32(-9), int32(0), int32(0), int32(0))
	for _, c := range []struct {
		row  int
		cols []int
		want uint64
	}{
		{0, []int{0, 1, 2, 3, 4}, 0x9da7714eceb79583},
		{1, []int{0, 1}, 0x1e3024d52a6afb46},
		{1, nil, 0xcbf29ce484222325},
	} {
		if got := HashRow(tab, c.row, c.cols); got != c.want {
			t.Errorf("HashRow(row %d, %v) = %#x, want %#x", c.row, c.cols, got, c.want)
		}
		hs := make([]uint64, 1)
		if hashRange(hs, tab, c.cols, c.row); hs[0] != c.want {
			t.Errorf("hashRange(row %d, %v) = %#x, want %#x", c.row, c.cols, hs[0], c.want)
		}
	}
}

func TestRowIndexChainsAscendAfterBuildAndGrowth(t *testing.T) {
	forIndexShapes(t, func(t *testing.T) {
		hashes := make([]uint64, 300)
		for i := range hashes {
			hashes[i] = uint64(i % 7) // seven keys, ~43 rows each
		}
		built := newRowIndex(append([]uint64(nil), hashes...))
		grown := newRowIndex(nil)
		for _, h := range hashes {
			grown.add(h)
		}
		for h := uint64(0); h < 7; h++ {
			var got []int32
			for c := built.first(h); c >= 0; c = built.after(h, c) {
				got = append(got, c)
			}
			n := 0
			for c := grown.first(h); c >= 0; c = grown.after(h, c) {
				n++
			}
			if len(got) != n || n < 42 {
				t.Fatalf("hash %d: built chain has %d rows, grown chain %d", h, len(got), n)
			}
			for i, c := range got {
				if uint64(c%7) != h || (i > 0 && c <= got[i-1]) {
					t.Fatalf("hash %d: built chain %v is not its rows in increasing order", h, got)
				}
			}
		}
		if built.first(99) >= 0 || grown.first(99) >= 0 {
			t.Fatal("absent hash found")
		}
	})
}

// TestHashJoinOrderUnderCollisions: the hash join's output is, row for
// row, the probe-major nested loop (probe rows in order, each one's
// matches in increasing build-row order), at every worker count — which
// also makes it the nested-loop join's bag.
func TestHashJoinOrderUnderCollisions(t *testing.T) {
	forIndexShapes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		bt, pt := buildABW(rng, "B", 700), buildABW(rng, "P", 500)
		residual := func(b *Table, br int, p *Table, pr int) bool {
			return b.Float64Col(2)[br] < 0.8 || p.Float64Col(2)[pr] < 0.5
		}
		outs := []JoinOut{BuildCol("ba", 0), ProbeCol("pb", 1), BuildCol("bw", 2), ProbeCol("pw", 2)}
		// NestedLoopJoin loops its first input outermost, so handing it the
		// probe side first yields the probe-major order.
		swapped := []JoinOut{ProbeCol("ba", 0), BuildCol("pb", 1), ProbeCol("bw", 2), BuildCol("pw", 2)}
		want := NestedLoopJoin(pt, bt, []int{0, 1}, []int{0, 1},
			func(p *Table, pr int, b *Table, br int) bool { return residual(b, br, p, pr) }, swapped)
		if want.NumRows() < 1000 {
			t.Fatalf("oracle has only %d rows; the test wants long candidate lists", want.NumRows())
		}
		for _, w := range indexWorkers {
			got, err := HashJoinTablesOpts(bt, pt, []int{0, 1}, []int{0, 1}, residual, outs,
				Opts{Workers: w, MorselSize: 64}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !tablesIdentical(got, want) {
				t.Fatalf("workers=%d: hash join differs from the probe-major nested loop (%d vs %d rows)",
					w, got.NumRows(), want.NumRows())
			}
		}
	})
}

func TestDistinctKeepsFirstOccurrenceUnderCollisions(t *testing.T) {
	forIndexShapes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		in := NewTable("T", NewSchema(C("k1", Int32), C("k2", Int32), C("seq", Int32)))
		for i := 0; i < 3000; i++ {
			in.AppendRow(rng.Int31n(40), rng.Int31n(25), int32(i))
		}
		// Oracle: the rows whose key was not seen before, in row order.
		var want []int32
		seen := map[[2]int32]bool{}
		for r := 0; r < in.NumRows(); r++ {
			k := [2]int32{in.Int32Col(0)[r], in.Int32Col(1)[r]}
			if !seen[k] {
				seen[k] = true
				want = append(want, int32(r))
			}
		}
		for _, w := range indexWorkers {
			got := distinctTable(in, []int{0, 1}, in.Schema(), Opts{Workers: w, MorselSize: 128}, nil)
			if got.NumRows() != len(want) {
				t.Fatalf("workers=%d: %d distinct rows, want %d", w, got.NumRows(), len(want))
			}
			for i, seq := range got.Int32Col(2) {
				if seq != want[i] {
					t.Fatalf("workers=%d: output row %d is input row %d, want first occurrence %d", w, i, seq, want[i])
				}
			}
		}
	})
}

func TestGroupByFirstOccurrenceOrderUnderCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := NewTable("T", NewSchema(C("k1", Int32), C("k2", Int32), C("v", Int32), C("w", Float64)))
	for i := 0; i < 3000; i++ {
		in.AppendRow(rng.Int31n(40), rng.Int31n(25), rng.Int31n(9), rng.Float64())
	}
	aggs := []AggSpec{{Kind: AggCount, Name: "n"}, {Kind: AggCountDistinct, Col: 2, Name: "nv"},
		{Kind: AggSumF64, Col: 3, Name: "sw"}, {Kind: AggMinF64, Col: 3, Name: "lo"}}
	type group struct {
		n    int32
		vals map[int32]bool
		sum  float64
	}
	var order [][2]int32
	groups := map[[2]int32]*group{}
	for r := 0; r < in.NumRows(); r++ {
		k := [2]int32{in.Int32Col(0)[r], in.Int32Col(1)[r]}
		g := groups[k]
		if g == nil {
			g = &group{vals: map[int32]bool{}}
			groups[k] = g
			order = append(order, k)
		}
		g.n++
		g.vals[in.Int32Col(2)[r]] = true
		g.sum += in.Float64Col(3)[r]
	}
	var ref *Table // the first result; every shape and worker count must reproduce its bits
	forIndexShapes(t, func(t *testing.T) {
		for _, w := range indexWorkers {
			got, err := GroupByTableOpts(in, []int{0, 1}, aggs, Opts{Workers: w, MorselSize: 128}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
			} else if !tablesIdentical(got, ref) {
				t.Fatalf("workers=%d: result (float sums included) differs from the first run's", w)
			}
			if got.NumRows() != len(order) {
				t.Fatalf("workers=%d: %d groups, want %d", w, got.NumRows(), len(order))
			}
			for i, k := range order {
				g := groups[k]
				if got.Int32Col(0)[i] != k[0] || got.Int32Col(1)[i] != k[1] {
					t.Fatalf("workers=%d: group %d is (%d,%d), want first-occurrence order (%d,%d)",
						w, i, got.Int32Col(0)[i], got.Int32Col(1)[i], k[0], k[1])
				}
				if got.Int32Col(2)[i] != g.n || int(got.Int32Col(3)[i]) != len(g.vals) ||
					math.Abs(got.Float64Col(4)[i]-g.sum) > 1e-9 {
					t.Fatalf("workers=%d: group %v aggregates wrong", w, k)
				}
			}
		}
	})
}

// TestRowSetAgainstOracle builds a set over a small table, grows it by
// NoteAppended across several bucket doublings, deletes rows and rebuilds,
// checking Contains and Len against a map after every step.
func TestRowSetAgainstOracle(t *testing.T) {
	forIndexShapes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		sch := NewSchema(C("a", Int32), C("b", Int32), C("c", Int32), C("d", Int32), C("e", Int32))
		key := []int{0, 1, 2, 3, 4}
		draw := func() [5]int32 {
			return [5]int32{rng.Int31n(6), rng.Int31n(6), rng.Int31n(4), rng.Int31n(3), rng.Int31n(2)}
		}
		tab, probe := NewTable("T", sch), NewTable("P", sch)
		for i := 0; i < 400; i++ {
			k := draw()
			probe.AppendRow(k[0], k[1], k[2], k[3], k[4])
		}
		keyAt := func(t *Table, r int) (k [5]int32) {
			for c := range k {
				k[c] = t.Int32Col(c)[r]
			}
			return k
		}
		oracle := map[[5]int32]bool{}
		check := func(step string, s *RowSet) {
			t.Helper()
			if s.Len() != tab.NumRows() {
				t.Fatalf("%s: Len = %d, table has %d rows", step, s.Len(), tab.NumRows())
			}
			for r := 0; r < probe.NumRows(); r++ {
				k := keyAt(probe, r)
				if got := s.Contains(probe, r, key); got != oracle[k] {
					t.Fatalf("%s: Contains(%v) = %v, oracle says %v", step, k, got, oracle[k])
				}
				if got := s.ContainsKey(k[:]...); got != oracle[k] {
					t.Fatalf("%s: ContainsKey(%v) = %v, oracle says %v", step, k, got, oracle[k])
				}
			}
		}
		add := func(n int) {
			for i := 0; i < n; i++ {
				k := draw()
				tab.AppendRow(k[0], k[1], k[2], k[3], k[4])
				oracle[k] = true
			}
		}

		add(5)
		s := NewRowSet(tab, key)
		check("built", s)
		for i := 0; i < 40; i++ { // 5 -> 405 rows: 16 buckets double to 512
			add(10)
			s.NoteAppended()
			check("grown", s)
		}
		s.NoteAppended() // nothing new: a no-op, not a double index
		check("idle", s)

		gone := map[[5]int32]bool{}
		tab.DeleteWhere(func(r int) bool {
			if tab.Int32Col(0)[r] >= 3 {
				gone[keyAt(tab, r)] = true
				return true
			}
			return false
		})
		for k := range gone {
			delete(oracle, k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("NoteAppended on a shrunken table did not panic")
				}
			}()
			s.NoteAppended()
		}()
		s = NewRowSet(tab, key)
		check("rebuilt", s)
		add(50)
		s.NoteAppended()
		check("regrown", s)
	})
}
