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
	// fc is TΩ split by functionality type: fc[typ-1] holds the
	// constraints of kb.TypeI or kb.TypeII, as Query 3's WHERE FC.arg
	// selects them.
	fc [2]*engine.Table

	// tomb is TΩ⁻, tombSet its index on all three columns. tombEnts has
	// bit e set when entity e is in TΩ⁻ under any class and position:
	// entity IDs are dictionary-dense, so one load in front of tombSet
	// turns away nearly every row of a scan.
	tomb     *engine.Table
	tombSet  *engine.RowSet
	tombEnts bitmap

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
	c := &Checker{tomb: tomb, tombSet: engine.NewRowSet(tomb, tombKeyCols), rows: -1}
	fc := k.ConstraintsTable()
	var byType [2][]int32
	for r, typ := range fc.Int32Col(kb.TOmegaType) {
		byType[typ-1] = append(byType[typ-1], int32(r))
	}
	for i, rows := range byType {
		c.fc[i] = engine.NewTable(fc.Name(), fc.Schema())
		c.fc[i].Reserve(len(rows))
		c.fc[i].AppendRowsFrom(fc, rows)
	}
	return c
}

// NewCheckerAfterPreClean is NewChecker for a KB that PreClean has just
// cleaned, to check the tables a grounding run grows from the KB's facts
// (kb.KB.FactsTable): its first pass takes those facts, rows [0, n) with
// IDs 0..n-1, as already checked and counts only the groups the rows
// appended past them touch. PreClean leaves no group violating — a
// deletion only lowers counts — so that pass finds what Query 3 in full
// would. Like any checker's, its TΩ⁻ starts empty.
func NewCheckerAfterPreClean(k *kb.KB) *Checker {
	c := NewChecker(k)
	c.rows, c.lastID = k.NumFacts(), int32(k.NumFacts()-1)
	return c
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
func (c *Checker) NumConstraints() int { return c.fc[0].NumRows() + c.fc[1].NumRows() }

// Violations computes, without deleting anything, every entity that
// violates a functional constraint in tpi.
func (c *Checker) Violations(tpi *engine.Table) []Violation {
	return c.violations(tpi, 0, nil, nil)
}

// violations runs Query 3 for both functionality types on the
// single-node engine over the rows of tpi not in gone (ascending, at or
// above from, the appended rows a pass has already removed): over all of
// them when from is 0, and otherwise over the groups the rows appended
// since from landed in. marks is the pass's scratch bitmap, which it
// leaves empty.
func (c *Checker) violations(tpi *engine.Table, from int, gone []int32, marks *bitmap) []Violation {
	live := func(int) bool { return true }
	if len(gone) > 0 {
		live = func(r int) bool {
			_, found := slices.BinarySearch(gone, int32(r))
			return r < int(gone[0]) || !found
		}
	}
	var delta *engine.Table
	if from > 0 {
		delta = engine.NewTable("T_delta", tpi.Schema())
		delta.AppendRowsFrom(tpi, survivors(from, tpi.NumRows(), gone))
	}
	var out []Violation
	for _, typ := range []int{kb.TypeI, kb.TypeII} {
		switch {
		case delta == nil && len(gone) == 0:
			out = append(out, violationsIn(c.constrainedRows(engine.NewScan(tpi), typ), typ)...)
		case delta == nil:
			out = append(out, violationsIn(c.constrainedRows(engine.NewFilter(engine.NewScan(tpi), "not removed",
				func(_ *engine.Table, r int) bool { return live(r) }), typ), typ)...)
		default:
			touched := run(c.touchedGroups(delta, typ))
			if touched.NumRows() == 0 {
				continue
			}
			heads := touched.Int32Col(1)
			marks.set(heads)
			out = append(out, violationsIn(groupRows(touched, tpi, typ, *marks, live), typ)...)
			marks.unset(heads)
		}
	}
	return out
}

// violationsIn closes Query 3 over constrainedRows-shaped rows of type
// typ and returns its violations.
func violationsIn(rows engine.Node, typ int) []Violation {
	return violationsOf(run(having(rows)), typ)
}

// survivors returns rows [from, to) without those in gone (ascending).
func survivors(from, to int, gone []int32) []int32 {
	rows := make([]int32, 0, to-from-len(gone))
	for r := from; r < to; r++ {
		if len(gone) > 0 && gone[0] == int32(r) {
			gone = gone[1:]
			continue
		}
		rows = append(rows, int32(r))
	}
	return rows
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
	return having(c.constrainedRows(engine.NewScan(tpi), typ))
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
// per row of t (a TΠ-shaped input) a constraint covers.
func (c *Checker) constrainedRows(t engine.Node, typ int) engine.Node {
	ent, entCls, other, otherCls := argCols(typ)
	return engine.NewHashJoin(engine.NewScan(c.fc[typ-1]), t,
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
// count can have grown since those rows were appended. The join builds
// on delta and probes with the type's constraints, so what it allocates
// follows the delta, not TΩ.
func (c *Checker) touchedGroups(delta *engine.Table, typ int) engine.Node {
	ent, entCls, _, otherCls := argCols(typ)
	rows := engine.NewHashJoin(engine.NewScan(delta), engine.NewScan(c.fc[typ-1]),
		[]int{kb.TPiR}, []int{kb.TOmegaR},
		[]engine.JoinOut{
			engine.BuildCol("R", kb.TPiR),
			engine.BuildCol("ent", ent),
			engine.BuildCol("entCls", entCls),
			engine.BuildCol("otherCls", otherCls),
			engine.ProbeCol("deg", kb.TOmegaDeg),
		},
		"T.R = FC.R")
	return engine.NewGroupBy(rows, []int{0, 1, 2, 3},
		[]engine.AggSpec{{Kind: engine.AggMinF64, Col: 4, Name: "deg"}})
}

// groupRows is constrainedRows restricted to the touched groups: every
// live row of tpi in one of them, old or new, since a group is judged
// whole. Only rows whose constrained entity heads a touched group — has
// its bit set in heads — reach the probe: one load turns the rest away,
// so the join hashes what the groups hold, not all of TΠ.
func groupRows(touched, tpi *engine.Table, typ int, heads bitmap, live func(row int) bool) engine.Node {
	ent, entCls, other, otherCls := argCols(typ)
	entCol := tpi.Int32Col(ent)
	inGroup := engine.NewFilter(engine.NewScan(tpi), "entity in a touched group",
		func(_ *engine.Table, r int) bool { return heads.has(entCol[r]) && live(r) })
	return engine.NewHashJoin(engine.NewScan(touched), inGroup,
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
// the object. The pass (i) takes the rows appended since the last pass
// that match TΩ⁻ as removed, before counting anything; (ii) runs Query 3
// over the groups the other appended rows landed in — a group's distinct
// count grows no other way — and adds what it finds to TΩ⁻; (iii) if
// TΩ⁻ grew, tests the older rows against the new violators only (no
// older row matched TΩ⁻ as it was), and then deletes every row it took,
// in one order-preserving deletion. The first pass over a table finds
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
	if c.NumConstraints() == 0 {
		return 0, 0
	}
	n, ids := tpi.NumRows(), tpi.Int32Col(kb.TPiI)
	from := c.rows
	if from < 0 || from > n || (from > 0 && ids[from-1] != c.lastID) {
		from = 0 // not the table the last pass left: every row is new
	}
	if from > 0 && from == n {
		return 0, 0 // nothing appended since the last pass
	}
	// marks holds one set of entities at a time: the heads of the groups
	// the delta touched, then the new violators.
	var marks bitmap
	gone := c.victims(nil, tpi, from, n, c.tombEnts)
	viol := c.violations(tpi, from, gone, &marks)
	victims := gone
	if grown := c.remember(viol); len(grown) > 0 {
		marks.set(grown)
		victims = c.victims(nil, tpi, 0, from, marks)
		victims = c.victims(victims, tpi, from, n, c.tombEnts)
	}
	deleted = tpi.DeleteRows(victims)
	c.rows, c.lastID = tpi.NumRows(), -1
	if c.rows > 0 {
		// Read again: a deletion among rows a Fork shares moves the columns.
		c.lastID = tpi.Int32Col(kb.TPiI)[c.rows-1]
	}
	if len(viol) > 0 || deleted > 0 {
		violationsTotal.Add(int64(len(viol)))
		factsDeletedTotal.Add(int64(deleted))
	}
	return deleted, len(viol)
}

// remember adds the violators TΩ⁻ does not hold yet to it and returns
// their entities.
func (c *Checker) remember(viol []Violation) []int32 {
	var grown []int32
	for _, v := range viol {
		if !c.tombstoned(v.Entity, v.Class, int32(v.Type)) {
			c.tomb.AppendRow(v.Entity, v.Class, int32(v.Type))
			c.tombSet.NoteAppended()
			grown = append(grown, v.Entity)
			c.tombEnts.set(grown[len(grown)-1:])
		}
	}
	return grown
}

// tombstoned reports whether (ent, cls, arg) is in TΩ⁻.
func (c *Checker) tombstoned(ent, cls, arg int32) bool {
	return c.tombEnts.has(ent) && c.tombSet.ContainsKey(ent, cls, arg)
}

// victims appends to dst, ascending, the rows in [lo, hi) of tpi that
// put an entity of TΩ⁻ in its violated position, testing only the
// entities ents has.
func (c *Checker) victims(dst []int32, tpi *engine.Table, lo, hi int, ents bitmap) []int32 {
	if len(ents) == 0 {
		return dst
	}
	xs, c1s := tpi.Int32Col(kb.TPiX), tpi.Int32Col(kb.TPiC1)
	ys, c2s := tpi.Int32Col(kb.TPiY), tpi.Int32Col(kb.TPiC2)
	for r := lo; r < hi; r++ {
		if (ents.has(xs[r]) && c.tombSet.ContainsKey(xs[r], c1s[r], kb.TypeI)) ||
			(ents.has(ys[r]) && c.tombSet.ContainsKey(ys[r], c2s[r], kb.TypeII)) {
			dst = append(dst, int32(r))
		}
	}
	return dst
}

// bitmap is a set of entity IDs, bit e for entity e: IDs are
// dictionary-dense, so a test is one load.
type bitmap []uint64

func (b bitmap) has(e int32) bool {
	w := int(e >> 6)
	return w < len(b) && b[w]&(1<<(e&63)) != 0
}

// set adds es, growing b to reach the highest.
func (b *bitmap) set(es []int32) {
	for _, e := range es {
		if w := int(e >> 6); w >= len(*b) {
			*b = append(*b, make(bitmap, w+1-len(*b))...)
		}
		(*b)[e>>6] |= 1 << (e & 63)
	}
}

// unset zeroes the words holding es' bits: it empties a bitmap that
// held es and nothing else.
func (b bitmap) unset(es []int32) {
	for _, e := range es {
		b[e>>6] = 0
	}
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
// entities' facts from the KB's TΠ in place (kb.KB.DeleteFactsWith) and
// returning how many facts were dropped. Its violators are not
// remembered: a later checker over the cleaned KB starts with an empty
// TΩ⁻ and finds again those that the rules bring back.
func PreClean(k *kb.KB) int {
	return k.DeleteFactsWith(NewChecker(k).Apply)
}
