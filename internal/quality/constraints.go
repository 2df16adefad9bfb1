// Package quality implements the quality-control methods of Section 5 of
// the paper: semantic (functional) constraints, ambiguity detection, and
// rule cleaning. These are what keep a machine-constructed KB from
// drowning in propagated errors during knowledge expansion.
package quality

import (
	"fmt"
	"slices"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/obs"
)

var (
	violationsTotal = obs.NewCounter("probkb_quality_violations_total",
		"Functional-constraint violations found by Query 3 runs.")
	factsDeletedTotal = obs.NewCounter("probkb_quality_facts_deleted_total",
		"Facts deleted to repair constraint violations.")
)

// Violation is one entity flagged by a functional constraint: Entity (in
// class Class) participates in relation Rel with more distinct partners
// than the constraint's degree allows. Type tells which argument position
// the entity held.
type Violation struct {
	Entity int32
	Class  int32
	Rel    int32
	Type   int // kb.TypeI or kb.TypeII
	Count  int // distinct partners observed
	Degree int // allowed degree δ
}

// Checker applies a KB's functional constraints to facts tables in
// batches (Query 3 of the paper): one grouped join per constraint type
// instead of one trigger per relation.
//
// A checker remembers what it removed. Beside TΩ it owns TΩ⁻, the
// (entity, class, position) violators its passes have deleted, and a
// violator stays deleted: a row that puts a tombstoned entity back in its
// violated position is removed again before anything is counted. That is
// what lets the grounders' closure loop end — under greedy deletion
// alone it re-derives each iteration what the last one removed
// (DESIGN.md §5) — and what lets every pass after the first cost what
// was appended since instead of the whole table. One checker follows one
// facts table, or the tables cloned and grown from it (ground.Extend).
type Checker struct {
	fc *engine.Table

	// tomb is TΩ⁻, tombSet its index on all three columns. tombEnts has
	// bit e set when entity e is in TΩ⁻ under any class and position:
	// entity IDs are dictionary-dense, so one load in front of tombSet
	// turns away nearly every row of a scan.
	tomb     *engine.Table
	tombSet  *engine.RowSet
	tombEnts []uint64

	// What the last pass left: the table's row count and its last row's
	// fact ID (rows < 0 before the first pass). Fact IDs grow strictly
	// with the row index and rows only leave a facts table by
	// order-preserving deletion (ground.Options.Observer), so a table
	// whose row rows-1 still carries lastID holds the checked rows
	// untouched as a prefix and everything past them was appended since.
	rows   int
	lastID int32
}

// tombKeyCols is TΩ⁻'s key: all of (e, C, arg).
var tombKeyCols = []int{0, 1, 2}

// NewChecker builds a checker from the KB's constraint set Ω.
func NewChecker(k *kb.KB) *Checker {
	tomb := engine.NewTable("FCdel", engine.NewSchema(
		engine.C("e", engine.Int32),
		engine.C("C", engine.Int32),
		engine.C("arg", engine.Int32), // the violated position: kb.TypeI (subject) or kb.TypeII (object)
	))
	return &Checker{
		fc:      k.ConstraintsTable(),
		tomb:    tomb,
		tombSet: engine.NewRowSet(tomb, tombKeyCols),
		rows:    -1,
	}
}

// Clone returns a checker with a copy of c's memory, for a run that
// continues c's table in a Clone of it: what the copy goes on to remove
// is not c's to remember.
func (c *Checker) Clone() *Checker {
	n := *c
	n.tomb = c.tomb.Clone()
	n.tombSet = engine.NewRowSet(n.tomb, tombKeyCols)
	n.tombEnts = slices.Clone(c.tombEnts)
	return &n
}

// NumConstraints returns the number of constraints loaded.
func (c *Checker) NumConstraints() int { return c.fc.NumRows() }

// Violations computes, without deleting anything, every entity that
// violates a functional constraint in tpi.
func (c *Checker) Violations(tpi *engine.Table) []Violation {
	return c.violations(tpi, nil)
}

// violations runs Query 3 for both functionality types on the
// single-node engine: over all of tpi, or, given the rows appended to it
// since the last pass, over the groups those rows landed in.
func (c *Checker) violations(tpi, delta *engine.Table) []Violation {
	var out []Violation
	for _, typ := range []int{kb.TypeI, kb.TypeII} {
		var rows engine.Node
		if delta == nil {
			rows = c.constrainedRows(tpi, typ)
		} else {
			touched := run(c.touchedGroups(delta, typ))
			if touched.NumRows() == 0 {
				continue
			}
			rows = groupRows(touched, tpi, typ)
		}
		out = append(out, violationsOf(run(having(rows)), typ)...)
	}
	return out
}

// run executes a constraint plan. The plans are static program data;
// failures are programming errors, not runtime conditions.
func run(plan engine.Node) *engine.Table {
	res, err := plan.Run()
	if err != nil {
		panic(fmt.Sprintf("quality: constraint query failed: %v", err))
	}
	return res
}

// Plan builds Query 3 for one functionality type over tpi: the grouped
// join whose output rows (R, ent, entCls, otherCls, n, deg) are the
// violating entities. It is the single statement of the constraint
// query — run as is on one node, or lowered onto a cluster by mpp.Lower.
//
// Type I groups by (R, x, C1, C2) and counts distinct y; Type II groups
// by (R, y, C2, C1) and counts distinct x.
func (c *Checker) Plan(tpi *engine.Table, typ int) engine.Node {
	return having(c.constrainedRows(tpi, typ))
}

// argCols returns the TΠ columns holding, for functionality type typ,
// the constrained entity, its class, its partner and the partner's class.
func argCols(typ int) (ent, entCls, other, otherCls int) {
	if typ == kb.TypeII {
		return kb.TPiY, kb.TPiC2, kb.TPiX, kb.TPiC1
	}
	return kb.TPiX, kb.TPiC1, kb.TPiY, kb.TPiC2
}

// constrainedRows is Query 3's join, T ⋈ FC on T.R = FC.R for the
// constraints of one type: a row (R, ent, entCls, otherCls, other, deg)
// per row of t a constraint covers.
func (c *Checker) constrainedRows(t *engine.Table, typ int) engine.Node {
	fcFiltered := engine.NewFilter(engine.NewScan(c.fc),
		fmt.Sprintf("FC.arg = %d", typ),
		func(t *engine.Table, r int) bool {
			return t.Int32Col(kb.TOmegaType)[r] == int32(typ)
		})
	ent, entCls, other, otherCls := argCols(typ)
	return engine.NewHashJoin(fcFiltered, engine.NewScan(t),
		[]int{kb.TOmegaR}, []int{kb.TPiR},
		[]engine.JoinOut{
			engine.ProbeCol("R", kb.TPiR),
			engine.ProbeCol("ent", ent),
			engine.ProbeCol("entCls", entCls),
			engine.ProbeCol("otherCls", otherCls),
			engine.ProbeCol("other", other),
			engine.BuildCol("deg", kb.TOmegaDeg),
		},
		"T.R = FC.R")
}

// having closes Query 3 over constrainedRows-shaped input: GROUP BY R,
// ent, entCls, otherCls HAVING COUNT(DISTINCT other) > MIN(deg).
func having(rows engine.Node) engine.Node {
	grouped := engine.NewGroupBy(rows, []int{0, 1, 2, 3}, []engine.AggSpec{
		{Kind: engine.AggCountDistinct, Col: 4, Name: "n"},
		{Kind: engine.AggMinF64, Col: 5, Name: "deg"},
	})
	return engine.NewFilter(grouped, "count(distinct) > min(deg)",
		func(t *engine.Table, r int) bool {
			return float64(t.Int32Col(4)[r]) > t.Float64Col(5)[r]
		})
}

// touchedGroups is the (R, ent, entCls, otherCls, deg) groups of one
// type that the rows of delta fall in — the only groups whose distinct
// count can have grown since those rows were appended.
func (c *Checker) touchedGroups(delta *engine.Table, typ int) engine.Node {
	return engine.NewGroupBy(c.constrainedRows(delta, typ), []int{0, 1, 2, 3},
		[]engine.AggSpec{{Kind: engine.AggMinF64, Col: 5, Name: "deg"}})
}

// groupRows is constrainedRows restricted to the touched groups: every
// row of tpi in one of them, old or new, since a group is judged whole.
func groupRows(touched, tpi *engine.Table, typ int) engine.Node {
	ent, entCls, other, otherCls := argCols(typ)
	return engine.NewHashJoin(engine.NewScan(touched), engine.NewScan(tpi),
		[]int{0, 1, 2, 3}, []int{kb.TPiR, ent, entCls, otherCls},
		[]engine.JoinOut{
			engine.BuildCol("R", 0),
			engine.BuildCol("ent", 1),
			engine.BuildCol("entCls", 2),
			engine.BuildCol("otherCls", 3),
			engine.ProbeCol("other", other),
			engine.BuildCol("deg", 4),
		},
		"T in a group the delta touched")
}

// violationsOf decodes the result rows of a type-typ Plan.
func violationsOf(res *engine.Table, typ int) []Violation {
	out := make([]Violation, 0, res.NumRows())
	for r := 0; r < res.NumRows(); r++ {
		out = append(out, Violation{
			Rel:    res.Int32Col(0)[r],
			Entity: res.Int32Col(1)[r],
			Class:  res.Int32Col(2)[r],
			Type:   typ,
			Count:  int(res.Int32Col(4)[r]),
			Degree: int(res.Float64Col(5)[r]),
		})
	}
	return out
}

// Repair summarizes one constraint pass that acted: how many entities it
// found violating a constraint and how many facts it removed. Run
// journals record one Repair per acting Query 3 pass.
type Repair struct {
	Violations int
	Deleted    int
}

// Apply is one pass of applyConstraints (Algorithm 1 line 6) over tpi,
// the ConstraintHook the grounders call each iteration, and returns the
// number of rows it deleted.
//
// Matching the paper's Query 3, deletion is by the *violated position*:
// a Type I violator (x, C1) loses the facts where it appears as the
// subject with that class; a Type II violator (y, C2) those where it is
// the object. The pass (i) deletes the rows appended since the last pass
// that match TΩ⁻, before counting anything; (ii) runs Query 3 over the
// groups the surviving appended rows landed in — a group's distinct
// count grows no other way — and adds what it finds to TΩ⁻; (iii) scans
// the older rows only if TΩ⁻ grew. The first pass over a table finds
// every row new, which makes it Query 3 in full. Every row a checker
// deletes matches TΩ⁻, so a derivation repeated later is deleted again:
// naive and semi-naive evaluation reach the same table.
func (c *Checker) Apply(tpi *engine.Table) int {
	n, _ := c.apply(tpi)
	return n
}

// apply is Apply, additionally reporting how many new violations drove
// the deletion.
func (c *Checker) apply(tpi *engine.Table) (deleted, violations int) {
	if c.fc.NumRows() == 0 {
		return 0, 0
	}
	ids := tpi.Int32Col(kb.TPiI)
	from := c.rows
	if from < 0 || from > len(ids) || (from > 0 && ids[from-1] != c.lastID) {
		from = 0 // not the table the last pass left: every row is new
	}
	if from > 0 && from == len(ids) {
		return 0, 0 // nothing appended since the last pass
	}
	if c.tomb.NumRows() > 0 {
		deleted = c.deleteTombstoned(tpi, from)
	}
	var viol []Violation
	switch {
	case from == 0:
		viol = c.violations(tpi, nil)
	case from < tpi.NumRows():
		delta := engine.NewTable("T_delta", tpi.Schema())
		rows := make([]int32, tpi.NumRows()-from)
		for i := range rows {
			rows[i] = int32(from + i)
		}
		delta.AppendRowsFrom(tpi, rows)
		viol = c.violations(tpi, delta)
	}
	for _, v := range viol {
		if !c.tombstoned(v.Entity, v.Class, int32(v.Type)) {
			c.tomb.AppendRow(v.Entity, v.Class, int32(v.Type))
			c.tombSet.NoteAppended()
			if w := int(v.Entity >> 6); w >= len(c.tombEnts) {
				c.tombEnts = append(c.tombEnts, make([]uint64, w+1-len(c.tombEnts))...)
			}
			c.tombEnts[v.Entity>>6] |= 1 << (v.Entity & 63)
		}
	}
	if len(viol) > 0 {
		deleted += c.deleteTombstoned(tpi, 0)
	}
	c.rows, c.lastID = tpi.NumRows(), -1
	if c.rows > 0 {
		c.lastID = tpi.Int32Col(kb.TPiI)[c.rows-1]
	}
	if len(viol) > 0 || deleted > 0 {
		violationsTotal.Add(int64(len(viol)))
		factsDeletedTotal.Add(int64(deleted))
	}
	return deleted, len(viol)
}

// tombstoned reports whether (ent, cls, arg) is in TΩ⁻.
func (c *Checker) tombstoned(ent, cls, arg int32) bool {
	w := int(ent >> 6)
	return w < len(c.tombEnts) && c.tombEnts[w]&(1<<(ent&63)) != 0 &&
		c.tombSet.ContainsKey(ent, cls, arg)
}

// deleteTombstoned deletes the rows of tpi from row from on that put a
// tombstoned entity in its violated position.
func (c *Checker) deleteTombstoned(tpi *engine.Table, from int) int {
	xs, c1s := tpi.Int32Col(kb.TPiX), tpi.Int32Col(kb.TPiC1)
	ys, c2s := tpi.Int32Col(kb.TPiY), tpi.Int32Col(kb.TPiC2)
	return tpi.DeleteWhere(func(r int) bool {
		return r >= from && (c.tombstoned(xs[r], c1s[r], kb.TypeI) || c.tombstoned(ys[r], c2s[r], kb.TypeII))
	})
}

// Hook adapts the checker to ground.Options.ConstraintHook.
func (c *Checker) Hook() func(*engine.Table) int {
	return c.Apply
}

// HookWithObserver is Hook plus a repair observer: onRepair fires after
// every pass that found violations or deleted rows, carrying both counts
// (a run journal's constraint_repair feed).
func (c *Checker) HookWithObserver(onRepair func(Repair)) func(*engine.Table) int {
	return func(tpi *engine.Table) int {
		deleted, violations := c.apply(tpi)
		if (violations > 0 || deleted > 0) && onRepair != nil {
			onRepair(Repair{Violations: violations, Deleted: deleted})
		}
		return deleted
	}
}

// PreClean runs Query 3 once over a KB's own fact set — the "run once
// before inference starts" step of Section 6.1.1 — removing violating
// entities' facts in place and returning how many facts were dropped.
// Its violators are not remembered: a later checker over the cleaned KB
// starts with an empty TΩ⁻ and finds again those that the rules bring
// back.
func PreClean(k *kb.KB) int {
	tpi := k.FactsTable()
	n := NewChecker(k).Apply(tpi)
	if n > 0 {
		// Fact i got ID i, so the surviving IDs are the surviving positions.
		k.KeepFacts(tpi.Int32Col(kb.TPiI))
	}
	return n
}
