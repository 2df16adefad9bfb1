package ground

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"probkb/internal/mpp"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// labelKind reduces a plan label to the op kind metrics were labelled
// with before nodes reported their own OpKind: the oracle here.
func labelKind(label string) string {
	if i := strings.IndexAny(label, "(["); i > 0 {
		label = label[:i]
	}
	if i := strings.Index(label, " on "); i > 0 {
		label = label[:i]
	}
	return strings.TrimSpace(label)
}

// TestPlanMetricsMatchCapturedPlans grounds one KB single-node and on
// a two-segment cluster (with and without views) under a journal, then
// checks that the operator and partition metrics moved exactly as the
// plans report them: per op kind (derived from each captured
// node's label) the rows and the number of observed nodes, per
// phase/partition the number of batch queries.
func TestPlanMetricsMatchCapturedPlans(t *testing.T) {
	k := randomKB(rand.New(rand.NewSource(7)))
	grounders := map[string]func(Options) (*Result, error){
		"single-node": func(o Options) (*Result, error) { return Ground(k, o) },
		"mpp-views": func(o Options) (*Result, error) {
			g, err := NewMPP(k, o, mpp.NewCluster(2), true)
			if err != nil {
				return nil, err
			}
			return g.Ground()
		},
		"mpp-motions": func(o Options) (*Result, error) {
			g, err := NewMPP(k, o, mpp.NewCluster(2), false)
			if err != nil {
				return nil, err
			}
			return g.Ground()
		},
	}
	for name, ground := range grounders {
		t.Run(name, func(t *testing.T) {
			jr := journal.New()
			before := obs.Default.Snapshot()
			if _, err := ground(Options{Journal: jr, SemiNaive: true}); err != nil {
				t.Fatal(err)
			}
			after := obs.Default.Snapshot()
			if jr.Dropped() != 0 {
				t.Fatalf("journal dropped %d events", jr.Dropped())
			}
			want := map[string]float64{}
			profiles := 0
			for _, ev := range jr.Events() {
				if ev.Type != journal.TypeQueryProfile {
					continue
				}
				var p journal.QueryProfile
				if err := json.Unmarshal(ev.Data, &p); err != nil {
					t.Fatal(err)
				}
				profiles++
				phase := p.Query[strings.LastIndexByte(p.Query, '-')+1:]
				want[fmt.Sprintf(`probkb_ground_partition_seconds_count{partition="P%d",phase=%q}`, p.Partition, phase)]++
				var walk func(n journal.PlanNode)
				walk = func(n journal.PlanNode) {
					kind := labelKind(n.Label)
					want[fmt.Sprintf(`probkb_engine_operator_rows_total{op=%q}`, kind)] += float64(n.Rows)
					want[fmt.Sprintf(`probkb_engine_operator_seconds_count{op=%q}`, kind)]++
					for _, c := range n.Children {
						walk(c)
					}
				}
				walk(p.Plan)
			}
			if profiles == 0 {
				t.Fatal("journal captured no plans")
			}
			for key, v := range after {
				if !strings.HasPrefix(key, "probkb_engine_operator_rows_total") &&
					!strings.HasPrefix(key, "probkb_engine_operator_seconds_count") &&
					!strings.HasPrefix(key, "probkb_ground_partition_seconds_count") {
					continue
				}
				if got := v - before[key]; got != want[key] {
					t.Errorf("%s moved by %v, captured plans say %v", key, got, want[key])
				}
				delete(want, key)
			}
			for key, v := range want {
				if v != 0 {
					t.Errorf("%s: captured plans say %v, no series recorded", key, v)
				}
			}
		})
	}
}

// TestBackendCapturesOnlyWhenAsked: a backend snapshots the executed
// plan tree only when the grounder has a journal to give it to.
func TestBackendCapturesOnlyWhenAsked(t *testing.T) {
	k := randomKB(rand.New(rand.NewSource(3)))
	g, err := NewBatch(k, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := g.parts.NonEmpty()[0]
	tpi := k.FactsTable()
	for _, capture := range []bool{false, true} {
		_, prof, err := g.run("factors", g.factorsPlan(p, tpi), capture)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Query != "ground-factors" {
			t.Errorf("capture=%v: query %q, want ground-factors", capture, prof.Query)
		}
		if got := prof.Plan.Label != ""; got != capture {
			t.Errorf("capture=%v: profile carries a plan tree: %v", capture, got)
		}
	}
}
