package mpp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"probkb/internal/engine"
)

func twoColTable(name string, a, b []int32) *engine.Table {
	t := engine.NewTable(name, engine.NewSchema(engine.C("a", engine.Int32), engine.C("b", engine.Int32)))
	for i := range a {
		t.AppendRow(a[i], b[i])
	}
	return t
}

func randomTable(rng *rand.Rand, name string, n int, domain int32) *engine.Table {
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = rng.Int31n(domain)
		b[i] = rng.Int31n(domain)
	}
	return twoColTable(name, a, b)
}

// sortedFlat renders a table's rows as a sorted [][]int32 for comparison.
func sortedFlat(t *engine.Table) [][]int32 {
	out := make([][]int32, t.NumRows())
	for r := range out {
		row := make([]int32, t.Schema().NumCols())
		for c := range row {
			row[c] = t.Int32Col(c)[r]
		}
		out[r] = row
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

func flatEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestDistributeGatherRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := randomTable(rng, "T", 500, 50)
	c := NewCluster(4)
	d := c.Distribute(base, []int{0})
	if d.NumRows() != 500 {
		t.Fatalf("NumRows = %d, want 500", d.NumRows())
	}
	if !flatEqual(sortedFlat(Gather(d)), sortedFlat(base)) {
		t.Fatal("gather after distribute lost or changed rows")
	}
	// Placement invariant: every row sits on its hash segment.
	for i := 0; i < c.NumSegments(); i++ {
		seg := d.Segment(i)
		for r := 0; r < seg.NumRows(); r++ {
			if segmentOf(seg, r, []int{0}, c.NumSegments()) != i {
				t.Fatalf("row on segment %d hashes elsewhere", i)
			}
		}
	}
	if d.Dist().String() != "hashed[0]" {
		t.Fatalf("dist = %s", d.Dist())
	}
}

func TestReplicate(t *testing.T) {
	base := twoColTable("M", []int32{1, 2}, []int32{3, 4})
	c := NewCluster(3)
	d := c.Replicate(base)
	if !d.Replicated() {
		t.Fatal("replicated table not marked replicated")
	}
	if d.NumRows() != 2 {
		t.Fatalf("replicated NumRows = %d, want 2 (one copy)", d.NumRows())
	}
	for i := 0; i < 3; i++ {
		if d.Segment(i).NumRows() != 2 {
			t.Fatalf("segment %d has %d rows, want 2", i, d.Segment(i).NumRows())
		}
	}
	if !flatEqual(sortedFlat(Gather(d)), sortedFlat(base)) {
		t.Fatal("gather of replicated table should yield one copy")
	}
}

func TestDistributeEmptyKeyError(t *testing.T) {
	c := NewCluster(2)
	d := c.Distribute(twoColTable("T", nil, nil), nil)
	if d.Err() == nil {
		t.Fatal("Distribute with empty key did not record an error")
	}
	// The deferred error surfaces when a plan over the table runs.
	if _, err := NewScan(d).Run(); err == nil {
		t.Fatal("scan over invalid distribution ran without error")
	}
}

func TestNewClusterValidation(t *testing.T) {
	c := NewCluster(0)
	if c.Err() == nil {
		t.Fatal("NewCluster(0) did not record an error")
	}
	// The broken cluster must still be safe to plan against: the error
	// surfaces at Run, not as a crash.
	d := c.Distribute(twoColTable("T", []int32{1}, []int32{2}), []int{0})
	if _, err := NewScan(d).Run(); err == nil {
		t.Fatal("scan on zero-segment cluster ran without error")
	}
}

func TestRedistributeMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := randomTable(rng, "T", 300, 20)
	c := NewCluster(4)
	d := c.Distribute(base, []int{0})
	re := NewRedistribute(NewScan(d), []int{1})
	out, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !flatEqual(sortedFlat(Gather(out)), sortedFlat(base)) {
		t.Fatal("redistribute changed the row multiset")
	}
	if out.Dist().String() != "hashed[1]" {
		t.Fatalf("output dist = %s, want hashed[1]", out.Dist())
	}
	for i := 0; i < c.NumSegments(); i++ {
		seg := out.Segment(i)
		for r := 0; r < seg.NumRows(); r++ {
			if segmentOf(seg, r, []int{1}, c.NumSegments()) != i {
				t.Fatal("redistributed row on wrong segment")
			}
		}
	}
	if !strings.Contains(re.Stats().Extra, "moved=") {
		t.Fatalf("redistribute stats missing motion annotation: %q", re.Stats().Extra)
	}
}

func TestRedistributeReplicatedInput(t *testing.T) {
	base := twoColTable("M", []int32{1, 2, 3}, []int32{4, 5, 6})
	c := NewCluster(3)
	re := NewRedistribute(NewScan(c.Replicate(base)), []int{0})
	out, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !flatEqual(sortedFlat(Gather(out)), sortedFlat(base)) {
		t.Fatal("redistributing a replicated table should keep exactly one copy")
	}
}

func TestBroadcastMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randomTable(rng, "T", 100, 10)
	c := NewCluster(4)
	d := c.Distribute(base, []int{0})
	bc := NewBroadcast(NewScan(d))
	out, err := bc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Replicated() {
		t.Fatal("broadcast output not replicated")
	}
	for i := 0; i < 4; i++ {
		if !flatEqual(sortedFlat(out.Segment(i)), sortedFlat(base)) {
			t.Fatalf("segment %d missing broadcast rows", i)
		}
	}
	if MotionBytes(bc) <= 0 {
		t.Fatal("broadcast should account moved bytes")
	}
	// Broadcasting an already-replicated input moves nothing.
	bc2 := NewBroadcast(NewScan(c.Replicate(base)))
	if _, err := bc2.Run(); err != nil {
		t.Fatal(err)
	}
	if MotionBytes(bc2) != 0 {
		t.Fatal("broadcast of replicated input should move 0 bytes")
	}
}

// TestDistributedJoinAgreesWithSingleNode is the core MPP property: for
// random tables under every collocation scenario, the join as Lower
// places it equals the single-node join result.
func TestDistributedJoinAgreesWithSingleNode(t *testing.T) {
	outs := []engine.JoinOut{
		engine.BuildCol("ba", 0), engine.BuildCol("bb", 1),
		engine.ProbeCol("pa", 0), engine.ProbeCol("pb", 1),
	}
	prop := func(seed int64, nl, nr uint8, scenario uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		left := randomTable(rng, "L", int(nl)%40, 8)
		right := randomTable(rng, "R", int(nr)%40, 8)
		c := NewCluster(3)

		var at placing
		switch scenario % 4 {
		case 0: // both collocated on join keys
			at = placing{left: c.Distribute(left, []int{0}), right: c.Distribute(right, []int{1})}
		case 1: // build replicated
			at = placing{left: c.Replicate(left), right: c.Distribute(right, []int{0})}
		case 2: // probe needs redistribution (wrong key: join uses col 1)
			at = placing{left: c.Distribute(left, []int{0}), right: c.Distribute(right, []int{0})}
		case 3: // neither placed usefully: broadcast build
			at = placing{left: c.Distribute(left, []int{1}), right: c.Distribute(right, []int{0})}
		}
		join := engine.NewHashJoin(engine.NewScan(left), engine.NewScan(right), []int{0}, []int{1}, outs, "L.a = R.b")
		got, err := Lower(join, at.place, nil, true).Run()
		if err != nil {
			return false
		}
		want := engine.NestedLoopJoin(left, right, []int{0}, []int{1}, nil, outs)
		return flatEqual(sortedFlat(Gather(got)), sortedFlat(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeRefresh(t *testing.T) {
	base := twoColTable("T", []int32{1}, []int32{2})
	c := NewCluster(2)
	d := c.Distribute(base, []int{0})
	views := NewViews(c)
	views.Materialize(d, []int{1})
	// Table grows; refresh replaces the old copy.
	d.Segment(0).AppendRow(int32(9), int32(9))
	views.Materialize(d, []int{1})
	if views.Count() != 1 {
		t.Fatalf("refresh duplicated the view: count = %d", views.Count())
	}
	v, _ := views.Lookup("T", []int{1})
	if v.NumRows() != 2 {
		t.Fatalf("refreshed view rows = %d, want 2", v.NumRows())
	}
}

// TestMaterializeEqualsDistributeOfGather: a view scattered straight
// from the base's segments holds, on every segment, the rows of
// Distribute(Gather(base), key) in the same order — for a hashed base, a
// replicated one, and one whose segments were appended to unevenly.
func TestMaterializeEqualsDistributeOfGather(t *testing.T) {
	for nseg := 1; nseg <= 3; nseg++ {
		rng := rand.New(rand.NewSource(int64(nseg)))
		c := NewCluster(nseg)
		hashed := c.Distribute(randomTable(rng, "T", 500, 40), []int{0})
		uneven := c.Distribute(randomTable(rng, "U", 300, 40), []int{1})
		uneven.Segment(nseg - 1).AppendTable(randomTable(rng, "U", 50, 40))
		replicated := c.Replicate(randomTable(rng, "M", 120, 40))
		for _, base := range []*DistTable{hashed, uneven, replicated} {
			for _, key := range [][]int{{1}, {0, 1}} {
				view := NewViews(c).Materialize(base, key)
				want := c.Distribute(Gather(base), key)
				if view.Err() != nil || want.Err() != nil {
					t.Fatalf("%d segments, %s by %v: %v / %v", nseg, base.Name(), key, view.Err(), want.Err())
				}
				for s := 0; s < nseg; s++ {
					if got, w := view.Segment(s), want.Segment(s); !slices.Equal(rowsOf(got), rowsOf(w)) {
						t.Fatalf("%d segments, %s by %v, segment %d: view %d rows, Distribute(Gather) %d, or their order differs",
							nseg, base.Name(), key, s, got.NumRows(), w.NumRows())
					}
				}
			}
		}
	}
}

// rowsOf renders a two-column Int32 table's rows, in order.
func rowsOf(t *engine.Table) [][2]int32 {
	out := make([][2]int32, t.NumRows())
	for r := range out {
		out[r] = [2]int32{t.Int32Col(0)[r], t.Int32Col(1)[r]}
	}
	return out
}

func TestExplainShowsMotions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	left := randomTable(rng, "L", 30, 4)
	right := randomTable(rng, "R", 30, 4)
	c := NewCluster(2)
	at := placing{left: c.Distribute(left, []int{1}), right: c.Distribute(right, []int{1})}
	p := Lower(engine.NewHashJoin(engine.NewScan(left), engine.NewScan(right),
		[]int{0}, []int{0}, []engine.JoinOut{engine.BuildCol("a", 0)}, "L.a = R.a"), at.place, nil, true)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if r, b := CountMotions(p); r != 0 || b != 1 {
		t.Fatalf("unkeyed join: %d redistribute, %d broadcast; want 0, 1", r, b)
	}
	if MotionBytes(p) == 0 {
		t.Fatal("broadcast shipped no bytes")
	}
	exp := Explain(p)
	if !strings.Contains(exp, "Broadcast Motion") {
		t.Fatalf("explain missing broadcast motion:\n%s", exp)
	}
	if !strings.Contains(exp, "Seq Scan on L") {
		t.Fatalf("explain missing scans:\n%s", exp)
	}
}

// TestRedistributePreservesMultiset: any chain of redistributions keeps
// the exact row multiset and lands rows on their hash segments.
func TestRedistributePreservesMultiset(t *testing.T) {
	prop := func(seed int64, n uint8, segs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomTable(rng, "T", int(n)%60, 10)
		c := NewCluster(1 + int(segs)%5)
		var node Node = NewScan(c.Distribute(base, []int{0}))
		keys := [][]int{{1}, {0, 1}, {0}}
		for _, k := range keys {
			node = NewRedistribute(node, k)
		}
		out, err := node.Run()
		if err != nil {
			return false
		}
		if !flatEqual(sortedFlat(Gather(out)), sortedFlat(base)) {
			return false
		}
		for i := 0; i < c.NumSegments(); i++ {
			seg := out.Segment(i)
			for r := 0; r < seg.NumRows(); r++ {
				if segmentOf(seg, r, []int{0}, c.NumSegments()) != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionString(t *testing.T) {
	if HashedBy(1, 2).String() != "hashed[1 2]" {
		t.Fatalf("HashedBy string = %s", HashedBy(1, 2))
	}
	if !ReplicatedDist().Replicated || ReplicatedDist().String() != "replicated" {
		t.Fatal("ReplicatedDist wrong")
	}
	if !RandomDist().Random() || RandomDist().String() != "random" {
		t.Fatal("RandomDist wrong")
	}
}

func TestLabelsAndSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base := randomTable(rng, "T", 20, 4)
	c := NewCluster(2)
	d := c.Distribute(base, []int{0})
	if !d.Schema().Equal(base.Schema()) {
		t.Fatal("DistTable schema wrong")
	}
	scan := NewScan(d)
	for _, n := range []Node{scan, NewRedistribute(scan, []int{1}), NewBroadcast(scan)} {
		if n.Label() == "" {
			t.Fatalf("%T has empty label", n)
		}
	}
	// A lowered operator keeps the engine operator's label and schema,
	// residual predicate included.
	dims := randomTable(rng, "D", 20, 4)
	join := engine.NewHashJoin(engine.NewScan(dims), engine.NewScan(base), []int{0}, []int{0},
		[]engine.JoinOut{engine.BuildCol("a", 0)}, "cond").
		WithResidual("res", func(b *engine.Table, br int, pt *engine.Table, pr int) bool { return true })
	j := Lower(join, placing{dims: c.Replicate(dims), base: d}.place, nil, false)
	if j.Label() != join.Label() || !j.OutSchema().Equal(join.OutSchema()) {
		t.Fatalf("lowered join is %q %s, want %q %s", j.Label(), j.OutSchema(), join.Label(), join.OutSchema())
	}
	if out, err := j.Run(); err != nil || out.NumRows() == 0 {
		t.Fatalf("residual join: %v", err)
	}
}

func TestDistTableAppendFrom(t *testing.T) {
	base := twoColTable("T", []int32{1, 2, 3}, []int32{4, 5, 6})
	c := NewCluster(3)
	d := c.Distribute(base, []int{0})
	rep := c.Replicate(base)

	// Grow the master copy and ship only the delta.
	base.AppendRow(int32(9), int32(9))
	base.AppendRow(int32(10), int32(10))
	if err := d.AppendFrom(base, 3); err != nil {
		t.Fatal(err)
	}
	if err := rep.AppendFrom(base, 3); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 5 {
		t.Fatalf("hashed append rows = %d, want 5", d.NumRows())
	}
	if !flatEqual(sortedFlat(Gather(d)), sortedFlat(base)) {
		t.Fatal("hashed append changed contents")
	}
	for i := 0; i < 3; i++ {
		if rep.Segment(i).NumRows() != 5 {
			t.Fatalf("replicated append segment %d rows = %d", i, rep.Segment(i).NumRows())
		}
	}
	// Empty delta is a no-op.
	if err := d.AppendFrom(base, base.NumRows()); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 5 {
		t.Fatal("empty delta changed table")
	}
	// Appending into a random-dist table is an error.
	g := c.newDistTable("gather", base.Schema(), RandomDist())
	if err := g.AppendFrom(base, 0); err == nil {
		t.Fatal("AppendFrom into random dist did not return an error")
	}
}

func TestViewsAppendFrom(t *testing.T) {
	base := twoColTable("T", []int32{1, 2}, []int32{3, 4})
	c := NewCluster(2)
	d := c.Distribute(base, []int{0})
	views := NewViews(c)
	views.Materialize(d, []int{1})
	base.AppendRow(int32(7), int32(8))
	views.AppendFrom("T", base, 2)
	v, _ := views.Lookup("T", []int{1})
	if v.NumRows() != 3 {
		t.Fatalf("view rows after append = %d, want 3", v.NumRows())
	}
}

// TestDistTableDeleteWhere: deleting from a distributed table leaves each
// segment, row for row, what distributing the surviving rows gives; a
// replicated table drops them from every copy; a second identical call
// removes nothing; an errored table reports its error.
func TestDistTableDeleteWhere(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base := randomTable(rng, "T", 200, 40)
	gone := func(v int32) bool { return v%3 == 0 }
	survivors := base.Clone()
	survivors.DeleteWhere(func(r int) bool { return gone(survivors.Int32Col(0)[r]) })

	c := NewCluster(3)
	d, rep := c.Distribute(base, []int{1}), c.Replicate(base)
	want := c.Distribute(survivors, []int{1})
	for pass := 1; pass <= 2; pass++ {
		if err := d.DeleteWhere(0, gone); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			got, w := d.Segment(s), want.Segment(s)
			if !slices.Equal(got.Int32Col(0), w.Int32Col(0)) || !slices.Equal(got.Int32Col(1), w.Int32Col(1)) {
				t.Fatalf("call %d: segment %d differs from a fresh distribution of the survivors", pass, s)
			}
		}
	}
	if err := rep.DeleteWhere(0, gone); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if !flatEqual(sortedFlat(rep.Segment(s)), sortedFlat(survivors)) {
			t.Fatalf("replicated segment %d differs from the survivors", s)
		}
	}
	if err := NewCluster(0).Distribute(base, []int{0}).DeleteWhere(0, gone); err == nil {
		t.Fatal("DeleteWhere on an errored table returned no error")
	}
}
