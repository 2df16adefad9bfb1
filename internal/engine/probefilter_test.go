package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The hash join's probe filter (newProbeFilter) must drop only probe rows
// that cannot match: on every input the join equals, row for row, the
// probe-major nested loop, whether the filter applies or not.

// probeMajorJoin is the oracle: probe rows in order, each one's matches
// in increasing build-row order, sharing no code with the kernel.
func probeMajorJoin(bt, pt *Table, buildKeys, probeKeys []int,
	residual func(b *Table, br int, p *Table, pr int) bool, outs []JoinOut) *Table {
	out := NewTable("oracle", JoinSchema(bt.Schema(), pt.Schema(), outs))
	for pr := 0; pr < pt.NumRows(); pr++ {
		for br := 0; br < bt.NumRows(); br++ {
			eq := true
			for k := range buildKeys {
				if bt.Int32Col(buildKeys[k])[br] != pt.Int32Col(probeKeys[k])[pr] {
					eq = false
					break
				}
			}
			if !eq || (residual != nil && !residual(bt, br, pt, pr)) {
				continue
			}
			row := make([]any, len(outs))
			for i, o := range outs {
				src, r := bt, br
				if o.Side == ProbeSide {
					src, r = pt, pr
				}
				row[i] = src.Int32Col(o.Col)[r]
			}
			out.AppendRow(row...)
		}
	}
	return out
}

// firstKeyDomain draws the first key column's values.
type firstKeyDomain struct {
	name string
	// draw returns a build value (build) or a probe value.
	draw func(rng *rand.Rand, build bool) int32
}

var firstKeyDomains = []firstKeyDomain{
	{"narrow", func(rng *rand.Rand, build bool) int32 { return 1000 + rng.Int31n(12) }},
	{"negative", func(rng *rand.Rand, build bool) int32 { return -1 - rng.Int31n(40) }},
	{"straddles-zero", func(rng *rand.Rand, build bool) int32 { return rng.Int31n(60) - 30 }},
	{"spread", func(rng *rand.Rand, build bool) int32 { return rng.Int31n(250) }},
	{"wide", func(rng *rand.Rand, build bool) int32 { return (rng.Int31n(40) - 20) * 100_000_000 }},
	// The build holds a few values next to one end of int32, the probe
	// also the other end and zero: offsets from the build's minimum wrap.
	{"near-max", func(rng *rand.Rand, build bool) int32 {
		if build || rng.Intn(2) == 0 {
			return math.MaxInt32 - rng.Int31n(4)
		}
		return []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 5}[rng.Intn(5)]
	}},
	{"near-min", func(rng *rand.Rand, build bool) int32 {
		if build || rng.Intn(2) == 0 {
			return math.MinInt32 + rng.Int31n(4)
		}
		return []int32{math.MaxInt32, math.MaxInt32 - 1, -1, 0, 5}[rng.Intn(5)]
	}},
	{"both-ends", func(rng *rand.Rand, build bool) int32 {
		return []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32}[rng.Intn(4)]
	}},
}

// filterTable builds n rows of (k, v, w): k from the domain, v in [0, 3).
func filterTable(rng *rand.Rand, name string, n int, d firstKeyDomain, build bool) *Table {
	t := NewTable(name, NewSchema(C("k", Int32), C("v", Int32), C("w", Int32)))
	for i := 0; i < n; i++ {
		t.AppendRow(d.draw(rng, build), rng.Int31n(3), rng.Int31n(100))
	}
	return t
}

func TestProbeFilterMatchesNestedLoop(t *testing.T) {
	outs := []JoinOut{BuildCol("bk", 0), BuildCol("bw", 2), ProbeCol("pk", 0), ProbeCol("pv", 1), ProbeCol("pw", 2)}
	residual := func(b *Table, br int, p *Table, pr int) bool {
		return b.Int32Col(2)[br]+p.Int32Col(2)[pr] < 120
	}
	type shape struct {
		name         string
		nBuild, nPro int
		keys         int // key columns: 0 (cross join), 1 or 2
		residual     bool
	}
	shapes := []shape{
		{"probe>build", 20, 300, 2, false},
		{"probe>build/one-key", 30, 200, 1, false},
		{"probe>build/residual", 25, 250, 2, true},
		{"probe=build", 60, 60, 2, false},
		{"probe<build", 200, 50, 2, false},
		{"empty-build", 0, 150, 2, false},
		{"empty-probe", 40, 0, 2, false},
		{"no-keys", 6, 40, 0, false},
		{"no-keys/residual", 6, 40, 0, true},
	}
	keyCols := [][]int{nil, {0}, {0, 1}}
	matched, filtered := 0, 0
	for _, d := range firstKeyDomains {
		for _, s := range shapes {
			t.Run(d.name+"/"+s.name, func(t *testing.T) {
				for seed := int64(0); seed < 12; seed++ {
					rng := rand.New(rand.NewSource(seed))
					bt := filterTable(rng, "B", s.nBuild, d, true)
					pt := filterTable(rng, "P", s.nPro, d, false)
					keys := keyCols[s.keys]
					var res func(b *Table, br int, p *Table, pr int) bool
					if s.residual {
						res = residual
					}
					f := newProbeFilter(bt, pt, keys)
					if f != nil {
						filtered++
						if s.nPro <= s.nBuild || uint64(f.span) > uint64(s.nPro) {
							t.Fatalf("seed %d: filter applied to a %d-row build and %d-row probe (span %d)", seed, s.nBuild, s.nPro, f.span)
						}
					}
					want := probeMajorJoin(bt, pt, keys, keys, res, outs)
					matched += want.NumRows()
					for _, w := range indexWorkers {
						st := &NodeStats{}
						got, err := HashJoinTablesOpts(bt, pt, keys, keys, res, outs, Opts{Workers: w, MorselSize: 16}, st)
						if err != nil {
							t.Fatal(err)
						}
						if !tablesIdentical(got, want) {
							t.Fatalf("seed %d, workers=%d (filtered=%v): %d rows, the probe-major nested loop %d",
								seed, w, f != nil, got.NumRows(), want.NumRows())
						}
						if w > 1 && st.Morsels != morselCount(s.nBuild, 16)+morselCount(s.nPro, 16) {
							t.Fatalf("seed %d, workers=%d: %d morsels, want the build's and the probe's %d",
								seed, w, st.Morsels, morselCount(s.nBuild, 16)+morselCount(s.nPro, 16))
						}
					}
				}
			})
		}
	}
	if filtered == 0 || matched == 0 {
		t.Fatalf("the inputs exercised %d filtered joins and %d matched rows; the test needs both", filtered, matched)
	}
}

// TestProbeFilterRule pins when the filter applies: a probe larger than
// the build, and a first-key span no larger than the probe.
func TestProbeFilterRule(t *testing.T) {
	col := func(vals ...int32) *Table {
		t := NewTable("T", NewSchema(C("k", Int32)))
		for _, v := range vals {
			t.AppendRow(v)
		}
		return t
	}
	rows := func(n int) *Table {
		vals := make([]int32, n)
		return col(vals...)
	}
	for _, c := range []struct {
		name   string
		bt, pt *Table
		keys   []int
		want   bool
	}{
		{"span equals probe rows", col(0, 9), rows(10), []int{0}, true},
		{"span one past probe rows", col(0, 10), rows(10), []int{0}, false},
		{"probe equals build", col(0, 1), rows(2), []int{0}, false},
		{"empty build", col(), rows(10), []int{0}, false},
		{"no keys", col(0), rows(10), nil, false},
		{"whole int32 span", col(math.MinInt32, math.MaxInt32), rows(100), []int{0}, false},
		{"span across zero", col(-3, 3), rows(7), []int{0}, true},
	} {
		if got := newProbeFilter(c.bt, c.pt, c.keys) != nil; got != c.want {
			t.Errorf("%s: filter applies = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestProbeFilterSelectsExactlyTheBuildValues: next to the int32
// extremes, exactly the probe rows holding a build value pass.
func TestProbeFilterSelectsExactlyTheBuildValues(t *testing.T) {
	build := []int32{math.MaxInt32, math.MaxInt32 - 2}
	bt := NewTable("B", NewSchema(C("k", Int32)))
	for _, v := range build {
		bt.AppendRow(v)
	}
	probe := []int32{math.MinInt32, math.MaxInt32, 0, math.MaxInt32 - 1, math.MaxInt32 - 2, -1, math.MaxInt32 - 3}
	pt := NewTable("P", NewSchema(C("k", Int32)))
	for _, v := range probe {
		pt.AppendRow(v)
	}
	f := newProbeFilter(bt, pt, []int{0})
	if f == nil {
		t.Fatal("no filter for a 3-value span and a 7-row probe")
	}
	got := fmt.Sprint(f.selectRows(nil, pt.Int32Col(0), 100))
	if want := "[101 104]"; got != want {
		t.Fatalf("selected rows %s, want %s", got, want)
	}
}
