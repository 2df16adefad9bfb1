package mpp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"probkb/internal/engine"
)

// placing maps base tables to their cluster copies: the place argument
// of Lower in tests.
type placing map[*engine.Table]*DistTable

func (p placing) place(t *engine.Table) *DistTable { return p[t] }

// The four ways a lowering test places an operator's input relative to
// the columns the operator is keyed on.
const (
	replicated = "replicated"
	onKey      = "hashed on the key"
	offKey     = "hashed off the key"
	random     = "random"
)

var placements = []string{replicated, onKey, offKey, random}

// placed loads t onto the cluster the given way; on and off are the
// hash keys that count as "on the key" and "off the key" for the
// operator under test. A random table is what a Gather leaves behind:
// rows with no placement invariant.
func placed(t *testing.T, c *Cluster, tab *engine.Table, how string, on, off []int) *DistTable {
	t.Helper()
	switch how {
	case replicated:
		return c.Replicate(tab)
	case onKey:
		return c.Distribute(tab, on)
	case offKey:
		return c.Distribute(tab, off)
	}
	g, err := NewGather(NewScan(c.Distribute(tab, on))).Run()
	if err != nil {
		t.Fatal(err)
	}
	g.SetName(tab.Name())
	return g
}

// threeColTable builds (a, b, c) with c a function of (a, b), so that a
// DISTINCT or GROUP BY on (a, b) keeps the same rows whichever duplicate
// an engine sees first.
func threeColTable(rng *rand.Rand, name string, n int, domain int32) *engine.Table {
	t := engine.NewTable(name, engine.NewSchema(
		engine.C("a", engine.Int32), engine.C("b", engine.Int32), engine.C("c", engine.Int32)))
	for i := 0; i < n; i++ {
		a, b := rng.Int31n(domain), rng.Int31n(domain)
		t.AppendRow(a, b, (a+2*b)%3)
	}
	return t
}

// shape renders the physical tree compactly, naming only what the
// lowering decides: the operator kinds, the motions it inserted (with
// their keys) and the tables the scans read.
func shape(n Node) string {
	var name string
	switch op := n.(type) {
	case *ScanNode:
		return op.d.Name()
	case *RedistributeNode:
		name = fmt.Sprintf("redistribute%v", op.key)
	case *BroadcastNode:
		name = "broadcast"
	case *segLocal:
		name = op.kind
	default:
		name = fmt.Sprintf("%T", n)
	}
	kids := make([]string, len(n.Children()))
	for i, k := range n.Children() {
		kids[i] = shape(k)
	}
	return name + "(" + strings.Join(kids, ", ") + ")"
}

// lowerCase is one row of the lowering table: an engine plan over base
// tables L (and R), how each is placed, and what Lower must produce with
// and without motions — the physical shape and output distribution, or
// the deferred error.
type lowerCase struct {
	name         string
	plan         func(l, r *engine.Table) engine.Node
	lHow, rHow   string // rHow "" for single-input plans
	lOn, lOff    []int
	rOn, rOff    []int
	shape        string // with motions
	dist         string
	staticShape  string // without motions; "" means same as shape
	staticErrHas string // without motions: deferred error, "" for none
}

func lowerCases() []lowerCase {
	filter := func(l, _ *engine.Table) engine.Node {
		return engine.NewFilter(engine.NewScan(l), "a > 2", func(t *engine.Table, r int) bool { return t.Int32Col(0)[r] > 2 })
	}
	project := func(l, _ *engine.Table) engine.Node {
		return engine.NewProject(engine.NewScan(l), engine.ColExpr("b", 1), engine.ColExpr("a", 0))
	}
	distinct := func(l, _ *engine.Table) engine.Node {
		return engine.NewDistinct(engine.NewScan(l), []int{0, 1})
	}
	groupby := func(l, _ *engine.Table) engine.Node {
		return engine.NewGroupBy(engine.NewScan(l), []int{0, 1}, []engine.AggSpec{
			{Kind: engine.AggCount, Name: "n"}, {Kind: engine.AggCountDistinct, Col: 2, Name: "cs"}})
	}
	join := func(l, r *engine.Table) engine.Node {
		return engine.NewHashJoin(engine.NewScan(l), engine.NewScan(r), []int{0}, []int{1},
			[]engine.JoinOut{
				engine.BuildCol("la", 0), engine.BuildCol("lb", 1), engine.BuildCol("lc", 2),
				engine.ProbeCol("ra", 0), engine.ProbeCol("rb", 1), engine.ProbeCol("rc", 2),
			}, "L.a = R.b")
	}

	var cases []lowerCase
	// Filter and Project never need a motion: they carry the input's
	// distribution through, remapped by the projection list.
	for _, how := range placements {
		keep := map[string]string{replicated: "replicated", onKey: "hashed[0]", offKey: "hashed[2]", random: "random"}[how]
		cases = append(cases, lowerCase{name: "filter", plan: filter, lHow: how,
			lOn: []int{0}, lOff: []int{2}, shape: "filter(L)", dist: keep})
		// (b, a) keeps column 0 at position 1 and drops column 2.
		remap := map[string]string{replicated: "replicated", onKey: "hashed[1]", offKey: "random", random: "random"}[how]
		cases = append(cases, lowerCase{name: "project", plan: project, lHow: how,
			lOn: []int{0}, lOff: []int{2}, shape: "project(L)", dist: remap})
	}
	// Distinct and GroupBy on (a, b): an input replicated or hashed on a
	// subset of the keys is collocated; anything else is redistributed by
	// the full key tuple, or is an error when motions are off.
	for _, op := range []struct {
		name string
		plan func(l, r *engine.Table) engine.Node
		what string
	}{{"distinct", distinct, "Distinct"}, {"groupby", groupby, "GroupBy"}} {
		moved := op.name + "(redistribute[0 1](L))"
		notCollocated := "mpp: " + op.what + " on [0 1] over input distributed "
		cases = append(cases,
			lowerCase{name: op.name, plan: op.plan, lHow: replicated, lOn: []int{1}, lOff: []int{2},
				shape: op.name + "(L)", dist: "replicated"},
			lowerCase{name: op.name, plan: op.plan, lHow: onKey, lOn: []int{1}, lOff: []int{2},
				shape: op.name + "(L)", dist: "hashed[1]"},
			lowerCase{name: op.name, plan: op.plan, lHow: offKey, lOn: []int{1}, lOff: []int{2},
				shape: moved, dist: "hashed[0 1]",
				staticShape: op.name + "(L)", staticErrHas: notCollocated + "hashed[2]: equal keys not collocated"},
			lowerCase{name: op.name, plan: op.plan, lHow: random, lOn: []int{1}, lOff: []int{2},
				shape: moved, dist: "hashed[0 1]",
				staticShape: op.name + "(L)", staticErrHas: notCollocated + "random: equal keys not collocated"},
		)
	}
	// Join L.a = R.b. A side is placed when replicated or hashed on its
	// join key. Both placed: join directly. One placed: redistribute the
	// other. Neither: broadcast the build side. With motions off, the
	// join runs only if it is collocated as placed: a replicated side, or
	// both sides hashed on their keys.
	const (
		direct     = "join(L, R)"
		moveProbe  = "join(L, redistribute[1](R))"
		moveBuild  = "join(redistribute[0](L), R)"
		bcastBuild = "join(broadcast(L), R)"
	)
	joinWant := map[[2]string]struct {
		shape, dist string
		staticOK    bool
	}{
		{replicated, replicated}: {direct, "replicated", true},
		{replicated, onKey}:      {direct, "hashed[4]", true},
		{replicated, offKey}:     {moveProbe, "hashed[4]", true},
		{replicated, random}:     {moveProbe, "hashed[4]", true},
		{onKey, replicated}:      {direct, "hashed[0]", true},
		{onKey, onKey}:           {direct, "hashed[0]", true},
		{onKey, offKey}:          {moveProbe, "hashed[0]", false},
		{onKey, random}:          {moveProbe, "hashed[0]", false},
		{offKey, replicated}:     {moveBuild, "hashed[0]", true},
		{offKey, onKey}:          {moveBuild, "hashed[0]", false},
		{offKey, offKey}:         {bcastBuild, "hashed[3]", false},
		{offKey, random}:         {bcastBuild, "random", false},
		{random, replicated}:     {moveBuild, "hashed[0]", true},
		{random, onKey}:          {moveBuild, "hashed[0]", false},
		{random, offKey}:         {bcastBuild, "hashed[3]", false},
		{random, random}:         {bcastBuild, "random", false},
	}
	for _, lHow := range placements {
		for _, rHow := range placements {
			w := joinWant[[2]string{lHow, rHow}]
			c := lowerCase{name: "join", plan: join, lHow: lHow, rHow: rHow,
				lOn: []int{0}, lOff: []int{1}, rOn: []int{1}, rOff: []int{0},
				shape: w.shape, dist: w.dist, staticShape: direct}
			if !w.staticOK {
				c.staticErrHas = "mpp: HashJoin inputs not collocated: build "
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestLowerTable is the lowering unit table: for each operator, input
// placement and motions mode it pins the motion Lower inserts (or the
// deferred error), the derived output distribution, and — on 1, 2 and 8
// segments — that the distributed result equals the single-node run of
// the very same plan as a multiset.
func TestLowerTable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := threeColTable(rng, "L", 90, 6)
	r := threeColTable(rng, "R", 70, 6)
	for _, c := range lowerCases() {
		want, err := c.plan(l, r).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, motions := range []bool{true, false} {
			for _, segs := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/%s", c.name, c.lHow)
				if c.rHow != "" {
					name += " x " + c.rHow
				}
				t.Run(fmt.Sprintf("%s/motions=%v/segs=%d", name, motions, segs), func(t *testing.T) {
					cl := NewCluster(segs)
					at := placing{l: placed(t, cl, l, c.lHow, c.lOn, c.lOff)}
					if c.rHow != "" {
						at[r] = placed(t, cl, r, c.rHow, c.rOn, c.rOff)
					}
					plan := Lower(c.plan(l, r), at.place, nil, motions)

					wantShape, wantErr := c.shape, ""
					if !motions {
						wantErr = c.staticErrHas
						if c.staticShape != "" {
							wantShape = c.staticShape
						}
					}
					if got := shape(plan); got != wantShape {
						t.Fatalf("shape = %s, want %s", got, wantShape)
					}
					out, err := plan.Run()
					if wantErr != "" {
						if err == nil || !strings.Contains(err.Error(), wantErr) {
							t.Fatalf("err = %v, want one containing %q", err, wantErr)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					// Without motions a collocated plan keeps whatever
					// distribution its inputs had; the table pins the
					// derived one for the motion-placing mode.
					if got := plan.OutDist().String(); motions && got != c.dist {
						t.Fatalf("output distribution = %s, want %s", got, c.dist)
					}
					if !flatEqual(sortedFlat(Gather(out)), sortedFlat(want)) {
						t.Fatal("distributed result differs from the single-node run")
					}
				})
			}
		}
	}
}

// TestLowerViewSubstitution: a misplaced base-table scan under a join is
// swapped for the registered view distributed by the join key — in both
// modes, since reading a view ships nothing — and the plan computes the
// same join.
func TestLowerViewSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := threeColTable(rng, "T", 200, 10)
	small := threeColTable(rng, "M", 20, 10)
	c := NewCluster(3)
	dT := c.Distribute(base, []int{0})
	at := placing{base: dT, small: c.Distribute(small, []int{1})}

	views := NewViews(c)
	views.Materialize(dT, []int{1})
	if views.Count() != 1 {
		t.Fatalf("views count = %d, want 1", views.Count())
	}
	if _, ok := views.Lookup("T", []int{1}); !ok {
		t.Fatal("registered view not found")
	}
	if _, ok := views.Lookup("T", []int{0, 1}); ok {
		t.Fatal("lookup found view with wrong key")
	}

	// M (build, hashed on its join key) against T on T.b: without the
	// view T needs a motion (or fails, motion-free); with it neither.
	join := func() engine.Node {
		return engine.NewHashJoin(engine.NewScan(small), engine.NewScan(base), []int{1}, []int{1},
			[]engine.JoinOut{engine.BuildCol("ma", 0), engine.ProbeCol("tb", 1)}, "M.b = T.b")
	}
	noViews := Lower(join(), at.place, nil, true)
	if got := shape(noViews); got != "join(M, redistribute[1](T))" {
		t.Fatalf("plan without views = %s", got)
	}
	if _, err := Lower(join(), at.place, nil, false).Run(); err == nil {
		t.Fatal("motion-free plan without views ran non-collocated")
	}
	want, err := noViews.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, motions := range []bool{true, false} {
		withViews := Lower(join(), at.place, views, motions)
		if got := shape(withViews); got != "join(M, T_by_1)" {
			t.Fatalf("motions=%v: plan with views = %s", motions, got)
		}
		got, err := withViews.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !flatEqual(sortedFlat(Gather(got)), sortedFlat(Gather(want))) {
			t.Fatalf("motions=%v: view-based plan computed a different join result", motions)
		}
	}
}

// TestLowerUnsupportedOperators: Sort, Limit and UnionAll cannot run
// segment-local. Lowering them must not panic; the plan fails at Run
// with an error naming the operator, also from beneath a supported one.
func TestLowerUnsupportedOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := threeColTable(rng, "T", 30, 5)
	scan := func() engine.Node { return engine.NewScan(base) }
	for _, motions := range []bool{true, false} {
		c := NewCluster(2)
		at := placing{base: c.Distribute(base, []int{0})}
		for _, tc := range []struct {
			plan engine.Node
			want string
		}{
			{engine.NewSort(scan(), engine.SortKey{Col: 0}), "mpp: Sort (1 keys) cannot run distributed"},
			{engine.NewLimit(scan(), 3), "mpp: Limit 3 cannot run distributed"},
			{engine.NewProject(engine.NewLimit(scan(), 3), engine.ColExpr("a", 0)), "mpp: Limit 3 cannot run distributed"},
		} {
			plan := Lower(tc.plan, at.place, nil, motions)
			if plan.Label() != tc.plan.Label() {
				t.Fatalf("lowered label = %q, want the engine's %q", plan.Label(), tc.plan.Label())
			}
			if _, err := plan.Run(); err == nil || err.Error() != tc.want {
				t.Fatalf("motions=%v %s: err = %v, want %q", motions, tc.plan.Label(), err, tc.want)
			}
		}
		// A base table nobody placed is the same kind of failure.
		stray := threeColTable(rng, "S", 5, 5)
		plan := Lower(engine.NewDistinct(engine.NewScan(stray), []int{0, 1, 2}), at.place, nil, motions)
		if _, err := plan.Run(); err == nil || err.Error() != "mpp: table S has no copy on the cluster" {
			t.Fatalf("unplaced table: err = %v", err)
		}
	}
}

// TestLowerCarriesEstimates: the optimizer's estimates stamped on the
// engine plan reach the lowered nodes; motions have none.
func TestLowerCarriesEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := threeColTable(rng, "T", 30, 5)
	c := NewCluster(2)
	at := placing{base: c.Distribute(base, []int{2})}
	scan := engine.NewScan(base)
	engine.SetEstRows(scan, 30)
	distinct := engine.NewDistinct(scan, []int{0, 1})
	engine.SetEstRows(distinct, 12)

	plan := Lower(distinct, at.place, nil, true)
	if got := plan.Stats().EstRows; got != 12 {
		t.Fatalf("distinct estimate = %v, want 12", got)
	}
	motion := plan.Children()[0]
	if _, ok := motion.(*RedistributeNode); !ok || motion.Stats().EstRows != 0 {
		t.Fatalf("expected an unestimated redistribute, got %s est=%v", motion.Label(), motion.Stats().EstRows)
	}
	if got := motion.Children()[0].Stats().EstRows; got != 30 {
		t.Fatalf("scan estimate = %v, want 30", got)
	}
}
