package engine

import (
	"testing"

	"probkb/internal/obs"
)

// parityPlan is one plan holding every engine operator: a filtered,
// projected join, deduplicated, grouped, sorted and limited.
func parityPlan() (Node, []Node) {
	a := NewTable("A", NewSchema(C("k", Int32), C("v", Int32)))
	b := NewTable("B", NewSchema(C("k", Int32), C("w", Int32)))
	for i := int32(0); i < 40; i++ {
		a.AppendRow(i%7, i)
		b.AppendRow(i%5, -i)
	}
	sa, sb := NewScan(a), NewScan(b)
	f := NewFilter(sa, "A.v >= 0", func(t *Table, r int) bool { return t.Int32Col(1)[r] >= 0 })
	fi := NewFilterInt32(sb, "B.w <= 0", 1, CmpLe, 0)
	j := NewHashJoin(f, fi, []int{0}, []int{0},
		[]JoinOut{BuildCol("k", 0), BuildCol("v", 1), ProbeCol("w", 1)}, "A.k = B.k")
	p := NewProject(j, ColExpr("k", 0), ColExpr("v", 1))
	d := NewDistinct(p, []int{0, 1})
	g := NewGroupBy(d, []int{0}, []AggSpec{{Kind: AggCount, Name: "n"}})
	s := NewSort(g, SortKey{Col: 0})
	l := NewLimit(s, 3)
	return l, []Node{sa, sb, f, fi, j, p, d, g, s, l}
}

// TestOpKindMatchesLabel: every operator's OpKind is the kind metrics
// were labelled with when it was cut out of the rendered Label.
func TestOpKindMatchesLabel(t *testing.T) {
	_, nodes := parityPlan()
	for _, n := range nodes {
		if got, want := n.OpKind(), opKind(n.Label()); got != want {
			t.Errorf("%T: OpKind %q, label %q reduces to %q", n, got, n.Label(), want)
		}
	}
}

// TestObservedHandlesAreTheByNameSeries runs the parity plan morsel-
// parallel and checks that each per-kind handle is the series a by-name
// lookup returns, and that ObservePlan moves each op kind's series by
// what its nodes report.
func TestObservedHandlesAreTheByNameSeries(t *testing.T) {
	root, nodes := parityPlan()
	Configure(root, Opts{Workers: 2, MorselSize: 8})
	before := obs.Default.Snapshot()
	if _, err := root.Run(); err != nil {
		t.Fatal(err)
	}
	ObservePlan("parity", root)
	after := obs.Default.Snapshot()

	for _, op := range []string{"filter", "project", "groupby", "join-build", "join-probe", "join-emit", "distinct"} {
		key := `probkb_engine_morsels_total{op="` + op + `"}`
		if after[key] == before[key] {
			t.Errorf("region %s recorded no morsels", op)
		}
		if morselMetrics.get(op) != obs.Default.Counter("probkb_engine_morsels_total", obs.L("op", op)) {
			t.Errorf("region %s: morsel handle is not the by-name series", op)
		}
		if utilizationMetrics.get(op) != obs.Default.Histogram("probkb_engine_worker_utilization_ratio", nil, obs.L("op", op)) {
			t.Errorf("region %s: utilization handle is not the by-name series", op)
		}
	}

	rows, count := map[string]float64{}, map[string]float64{}
	for _, n := range nodes {
		kind := opKind(n.Label())
		rows[kind] += float64(n.Stats().Rows)
		count[kind]++
		h := opMetrics.get(kind)
		if h.rows != obs.Default.Counter("probkb_engine_operator_rows_total", obs.L("op", kind)) ||
			h.seconds != obs.Default.Histogram("probkb_engine_operator_seconds", nil, obs.L("op", kind)) {
			t.Errorf("%s: operator handles are not the by-name series", kind)
		}
	}
	for kind := range count {
		rk := `probkb_engine_operator_rows_total{op="` + kind + `"}`
		ck := `probkb_engine_operator_seconds_count{op="` + kind + `"}`
		if got := after[rk] - before[rk]; got != rows[kind] {
			t.Errorf("%s rows moved by %v, nodes report %v", kind, got, rows[kind])
		}
		if got := after[ck] - before[ck]; got != count[kind] {
			t.Errorf("%s seconds count moved by %v, want %v", kind, got, count[kind])
		}
	}
}
