package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks (ROADMAP item 1's kernel tier): the hash kernels at
// the sizes paper-scale grounding runs them at, on a synthetic table shaped like TΠ
// — (I, R, x, C1, y, C2, w), about four facts per entity, so the self-join
// on (y, C2) = (x, C1) fans out ~4x like the benchmark's 317K x 317K ->
// 1.18M rows. `make bench-kernels` runs them; `make check` executes each
// once so they cannot rot.

var kernelSizes = []int{100_000, 300_000}

// Column positions of the synthetic TΠ.
const (
	kI, kR, kX, kC1, kY, kC2, kW = 0, 1, 2, 3, 4, 5, 6
)

var kFactKey = []int{kR, kX, kC1, kY, kC2}

// syntheticFacts builds n TΠ-shaped rows over n/4 entities, 200
// relations and 12 classes (an entity's class is a function of the
// entity). Duplicate keys are possible and left in: Distinct and RowSet
// must cope with them.
func syntheticFacts(n int) *Table {
	rng := rand.New(rand.NewSource(int64(n)))
	t := NewTable("T", NewSchema(C("I", Int32), C("R", Int32), C("x", Int32), C("C1", Int32),
		C("y", Int32), C("C2", Int32), C("w", Float64)))
	ents := int32(n / 4)
	for i := 0; i < n; i++ {
		x, y := rng.Int31n(ents), rng.Int31n(ents)
		t.AppendRow(int32(i), rng.Int31n(200), x, x%12, y, y%12, rng.Float64())
	}
	return t
}

var benchSink *Table

func benchSizes(b *testing.B, f func(b *testing.B, t *Table)) {
	for _, n := range kernelSizes {
		t := syntheticFacts(n)
		b.Run(fmt.Sprintf("%dK", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			f(b, t)
		})
	}
}

// BenchmarkHashJoin is build + probe of TΠ against itself on
// (y, C2) = (x, C1): the shape of the length-3 rule joins.
func BenchmarkHashJoin(b *testing.B) {
	outs := []JoinOut{BuildCol("R1", kR), BuildCol("x", kX), BuildCol("C1", kC1),
		ProbeCol("R2", kR), ProbeCol("z", kY), ProbeCol("C3", kC2)}
	benchSizes(b, func(b *testing.B, t *Table) {
		for i := 0; i < b.N; i++ {
			out, err := HashJoinTablesOpts(t, t, []int{kY, kC2}, []int{kX, kC1}, nil, outs, Opts{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
		b.ReportMetric(float64(benchSink.NumRows()), "rows_out")
	})
}

func BenchmarkNewRowSet(b *testing.B) {
	benchSizes(b, func(b *testing.B, t *Table) {
		for i := 0; i < b.N; i++ {
			if s := NewRowSet(t, kFactKey); s.Len() != t.NumRows() {
				b.Fatalf("Len = %d, want %d", s.Len(), t.NumRows())
			}
		}
	})
}

// BenchmarkRowSetContains probes a set over TΠ with every row of TΠ (all
// hits) and every row of a differently seeded table (nearly all misses);
// ns/op is per pass over both.
func BenchmarkRowSetContains(b *testing.B) {
	benchSizes(b, func(b *testing.B, t *Table) {
		s := NewRowSet(t, kFactKey)
		miss := syntheticFacts(t.NumRows() + 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits := 0
			for r := 0; r < t.NumRows(); r++ {
				if s.Contains(t, r, kFactKey) {
					hits++
				}
				if s.Contains(miss, r, kFactKey) {
					hits++
				}
			}
			if hits < t.NumRows() {
				b.Fatalf("hits = %d", hits)
			}
		}
	})
}

// BenchmarkDistinct dedups the (x, C1) pairs of TΠ — ~4 duplicates per
// key, the duplication a round's candidate facts carry.
func BenchmarkDistinct(b *testing.B) {
	benchSizes(b, func(b *testing.B, t *Table) {
		for i := 0; i < b.N; i++ {
			benchSink = distinctTable(t, []int{kX, kC1}, t.Schema(), Opts{}, nil)
		}
		b.ReportMetric(float64(benchSink.NumRows()), "rows_out")
	})
}

// BenchmarkGroupBy is the shape of the functional-constraint query
// (Query 3): group by (x, C1), count rows and distinct y.
func BenchmarkGroupBy(b *testing.B) {
	aggs := []AggSpec{{Kind: AggCount, Name: "n"}, {Kind: AggCountDistinct, Col: kY, Name: "ny"}}
	benchSizes(b, func(b *testing.B, t *Table) {
		for i := 0; i < b.N; i++ {
			out, err := GroupByTableOpts(t, []int{kX, kC1}, aggs, Opts{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
		b.ReportMetric(float64(benchSink.NumRows()), "rows_out")
	})
}

// BenchmarkFilterInt32EqLiteral is the point select `T.x = <entity>`
// over TΠ (~4 of n rows kept): "closure" is the predicate the SQL
// planner compiles for a general comparison — a value closure per
// operand, float64 on both sides, NULL tests, a switch on the operator,
// all per row — and "typed" is NewFilterInt32's loop over the column.
func BenchmarkFilterInt32EqLiteral(b *testing.B) {
	value := func(col int) func(t *Table, row int) (float64, bool) {
		return func(t *Table, row int) (float64, bool) {
			v := t.Int32Col(col)[row]
			return float64(v), v == NullInt32
		}
	}
	literal := func(v float64) func(*Table, int) (float64, bool) {
		return func(*Table, int) (float64, bool) { return v, false }
	}
	benchSizes(b, func(b *testing.B, t *Table) {
		lit := t.Int32Col(kX)[t.NumRows()/2]
		lv, rv, op := value(kX), literal(float64(lit)), "="
		pred := func(t *Table, row int) bool {
			a, an := lv(t, row)
			b, bn := rv(t, row)
			if an || bn {
				return false
			}
			switch op {
			case "=":
				return a == b
			case "<>":
				return a != b
			case "<":
				return a < b
			}
			return false
		}
		for name, node := range map[string]*FilterNode{
			"closure": NewFilter(NewScan(t), "x = lit", pred),
			"typed":   NewFilterInt32(NewScan(t), "x = lit", kX, CmpEq, lit),
		} {
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := node.Run()
					if err != nil || out.NumRows() == 0 {
						b.Fatalf("%d rows, %v", out.NumRows(), err)
					}
					benchSink = out
				}
				b.ReportMetric(float64(benchSink.NumRows()), "rows_out")
			})
		}
	})
}
