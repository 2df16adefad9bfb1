package proptest

import (
	"fmt"
	"math"
	"sort"

	"probkb/internal/engine"
	"probkb/internal/mpp"
)

// Worker counts the parallel engine leg exercises, and segment counts the
// MPP leg exercises — the issue's "serial ≡ parallel ≡ cluster" triangle.
var (
	workerCounts  = []int{2, 8}
	segmentCounts = []int{1, 2, 8}
)

// morselSize used by the engine legs: small enough that even the tiny
// generated tables split into many morsels.
const morselSize = 16

// BaseTable materializes a TableSpec as an engine table.
func BaseTable(ts TableSpec) *engine.Table {
	cols := make([]engine.ColDef, 0, ts.NInt+1)
	for c := 0; c < ts.NInt; c++ {
		cols = append(cols, engine.C(fmt.Sprintf("c%d", c), engine.Int32))
	}
	if ts.HasFloat {
		cols = append(cols, engine.C("w", engine.Float64))
	}
	t := engine.NewTable(ts.Name, engine.NewSchema(cols...))
	for _, row := range ts.Rows {
		vals := make([]any, 0, len(row)+1)
		for _, v := range row {
			vals = append(vals, v)
		}
		if ts.HasFloat {
			vals = append(vals, floatOf(row))
		}
		t.AppendRow(vals...)
	}
	return t
}

func aggSpecs(sels []AggSel) []engine.AggSpec {
	out := make([]engine.AggSpec, len(sels))
	for i, s := range sels {
		out[i] = engine.AggSpec{Kind: s.Kind, Col: s.Col, Name: fmt.Sprintf("a%d", i)}
	}
	return out
}

func joinOuts(p *PlanSpec) []engine.JoinOut {
	var outs []engine.JoinOut
	for i, c := range p.BOuts {
		outs = append(outs, engine.BuildCol(fmt.Sprintf("b%d", i), c))
	}
	for i, c := range p.POuts {
		outs = append(outs, engine.ProbeCol(fmt.Sprintf("p%d", i), c))
	}
	return outs
}

func filterPred(col int, val int32) func(t *engine.Table, row int) bool {
	return func(t *engine.Table, row int) bool { return t.Int32Col(col)[row] > val }
}

// BuildEngine compiles the spec to a single-node engine plan over tabs.
func BuildEngine(p *PlanSpec, tabs []*engine.Table) engine.Node {
	switch p.Op {
	case OpScan:
		return engine.NewScan(tabs[p.Table])
	case OpFilter:
		return engine.NewFilter(BuildEngine(p.Left, tabs),
			fmt.Sprintf("c%d > %d", p.Col, p.Val), filterPred(p.Col, p.Val))
	case OpProject:
		exprs := make([]engine.OutExpr, len(p.Cols))
		for i, c := range p.Cols {
			exprs[i] = engine.ColExpr(fmt.Sprintf("x%d", i), c)
		}
		return engine.NewProject(BuildEngine(p.Left, tabs), exprs...)
	case OpDistinct:
		return engine.NewDistinct(BuildEngine(p.Left, tabs), p.Keys)
	case OpGroupBy:
		return engine.NewGroupBy(BuildEngine(p.Left, tabs), p.Keys, aggSpecs(p.Aggs))
	case OpJoin:
		return engine.NewHashJoin(BuildEngine(p.Left, tabs), BuildEngine(p.Right, tabs),
			p.Keys, p.PKeys, joinOuts(p), "proptest join")
	}
	panic(fmt.Sprintf("proptest: unknown op %d", p.Op))
}

// runEngine executes the spec on the single-node engine with the given
// worker count.
func runEngine(c *Case, tabs []*engine.Table, workers int) (*engine.Table, error) {
	root := BuildEngine(c.Plan, tabs)
	engine.Configure(root, engine.Opts{Workers: workers, MorselSize: morselSize})
	return root.Run()
}

// Check runs one case through every leg of the differential triangle:
//
//   - engine Workers=1 vs Workers∈workerCounts: results must be
//     bit-identical including row order (the morsel model's determinism
//     contract).
//   - engine vs MPP at each segment count (2 workers per segment):
//     results must be equal as multisets; Float64 aggregates compare
//     under a small relative tolerance because per-segment partial sums
//     associate differently.
//
// The returned error describes the first divergence.
func Check(c *Case) error {
	tabs := make([]*engine.Table, len(c.Tables))
	for i, ts := range c.Tables {
		tabs[i] = BaseTable(ts)
	}

	ref, err := runEngine(c, tabs, 1)
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	for _, w := range workerCounts {
		got, err := runEngine(c, tabs, w)
		if err != nil {
			return fmt.Errorf("workers=%d run: %w", w, err)
		}
		if err := bitIdentical(ref, got); err != nil {
			return fmt.Errorf("workers=%d diverges from serial: %w", w, err)
		}
	}
	for _, ns := range segmentCounts {
		cl := mpp.NewCluster(ns)
		cl.SetWorkers(2)
		// The same engine plan, lowered by the production planner: base
		// tables hashed by column 0 (or replicated, per the spec), and
		// mpp.Lower inserts whatever motions collocation requires, so the
		// harness also exercises Redistribute and Broadcast.
		placed := make(map[*engine.Table]*mpp.DistTable, len(tabs))
		for i, t := range tabs {
			if c.Tables[i].Replicated {
				placed[t] = cl.Replicate(t)
			} else {
				placed[t] = cl.Distribute(t, []int{0})
			}
		}
		place := func(t *engine.Table) *mpp.DistTable { return placed[t] }
		dt, err := mpp.Lower(BuildEngine(c.Plan, tabs), place, nil, true).Run()
		if err != nil {
			return fmt.Errorf("segments=%d run: %w", ns, err)
		}
		if err := multisetEqual(ref, mpp.Gather(dt)); err != nil {
			return fmt.Errorf("segments=%d diverges from single-node: %w", ns, err)
		}
	}
	return nil
}

// bitIdentical reports the first difference between two tables compared
// exactly: same schema shape, same row count, same row order, floats
// compared by bit pattern.
func bitIdentical(a, b *engine.Table) error {
	if err := sameShape(a, b); err != nil {
		return err
	}
	for ci, col := range a.Schema().Cols {
		switch col.Type {
		case engine.Int32:
			av, bv := a.Int32Col(ci), b.Int32Col(ci)
			for r := range av {
				if av[r] != bv[r] {
					return fmt.Errorf("col %d row %d: %d vs %d", ci, r, av[r], bv[r])
				}
			}
		case engine.Float64:
			av, bv := a.Float64Col(ci), b.Float64Col(ci)
			for r := range av {
				if math.Float64bits(av[r]) != math.Float64bits(bv[r]) {
					return fmt.Errorf("col %d row %d: %v vs %v (bits differ)", ci, r, av[r], bv[r])
				}
			}
		}
	}
	return nil
}

func sameShape(a, b *engine.Table) error {
	if a.Schema().NumCols() != b.Schema().NumCols() {
		return fmt.Errorf("column counts differ: %d vs %d", a.Schema().NumCols(), b.Schema().NumCols())
	}
	for i, ac := range a.Schema().Cols {
		if bc := b.Schema().Cols[i]; ac.Type != bc.Type {
			return fmt.Errorf("col %d type differs: %v vs %v", i, ac.Type, bc.Type)
		}
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	return nil
}

// canonRow is one row split into its Int32 and Float64 parts, in schema
// order within each part.
type canonRow struct {
	ints   []int32
	floats []float64
}

func canonRows(t *engine.Table) []canonRow {
	var intCols, floatCols []int
	for i, c := range t.Schema().Cols {
		switch c.Type {
		case engine.Int32:
			intCols = append(intCols, i)
		case engine.Float64:
			floatCols = append(floatCols, i)
		}
	}
	rows := make([]canonRow, t.NumRows())
	for r := range rows {
		row := canonRow{ints: make([]int32, len(intCols)), floats: make([]float64, len(floatCols))}
		for i, ci := range intCols {
			row.ints[i] = t.Int32Col(ci)[r]
		}
		for i, ci := range floatCols {
			row.floats[i] = t.Float64Col(ci)[r]
		}
		rows[r] = row
	}
	sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
	return rows
}

func rowLess(a, b canonRow) bool {
	for i := range a.ints {
		if a.ints[i] != b.ints[i] {
			return a.ints[i] < b.ints[i]
		}
	}
	for i := range a.floats {
		if a.floats[i] != b.floats[i] {
			return a.floats[i] < b.floats[i]
		}
	}
	return false
}

// floatTol is the relative tolerance for Float64 values in the multiset
// comparison. Divergence from summation order is a few ulps; anything
// near 1e-9 relative is a real bug.
const floatTol = 1e-9

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= floatTol*(1+math.Abs(a)+math.Abs(b))
}

// multisetEqual compares two tables as unordered bags of rows. Int32
// values must match exactly; Float64 values within floatTol. Rows are
// paired by canonical sort order, which is unambiguous because float
// divergence (ulps) is far below any genuine value difference.
func multisetEqual(a, b *engine.Table) error {
	if err := sameShape(a, b); err != nil {
		return err
	}
	ar, br := canonRows(a), canonRows(b)
	for i := range ar {
		for j := range ar[i].ints {
			if ar[i].ints[j] != br[i].ints[j] {
				return fmt.Errorf("sorted row %d int col %d: %d vs %d", i, j, ar[i].ints[j], br[i].ints[j])
			}
		}
		for j := range ar[i].floats {
			if !floatsClose(ar[i].floats[j], br[i].floats[j]) {
				return fmt.Errorf("sorted row %d float col %d: %v vs %v", i, j, ar[i].floats[j], br[i].floats[j])
			}
		}
	}
	return nil
}
