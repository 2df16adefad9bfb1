// Package quality implements the quality-control methods of Section 5 of
// the paper: semantic (functional) constraints, ambiguity detection, and
// rule cleaning. These are what keep a machine-constructed KB from
// drowning in propagated errors during knowledge expansion.
package quality

import (
	"fmt"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/obs"
)

func init() {
	obs.Default.Help("probkb_quality_violations_total", "Functional-constraint violations found by Query 3 runs.")
	obs.Default.Help("probkb_quality_facts_deleted_total", "Facts deleted to repair constraint violations.")
}

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
type Checker struct {
	fc *engine.Table
}

// NewChecker builds a checker from the KB's constraint set Ω.
func NewChecker(k *kb.KB) *Checker {
	return &Checker{fc: k.ConstraintsTable()}
}

// NumConstraints returns the number of constraints loaded.
func (c *Checker) NumConstraints() int { return c.fc.NumRows() }

// Violations computes, without deleting anything, every entity that
// violates a functional constraint in tpi.
func (c *Checker) Violations(tpi *engine.Table) []Violation {
	var out []Violation
	out = append(out, c.violationsOfType(tpi, kb.TypeI)...)
	out = append(out, c.violationsOfType(tpi, kb.TypeII)...)
	return out
}

// Plan builds Query 3 for one functionality type over tpi: the grouped
// join whose output rows (R, ent, entCls, otherCls, n, deg) are the
// violating entities. It is the single statement of the constraint
// query — run as is on one node, or lowered onto a cluster by mpp.Lower.
//
// Type I groups by (R, x, C1, C2) and counts distinct y; Type II groups
// by (R, y, C2, C1) and counts distinct x.
func (c *Checker) Plan(tpi *engine.Table, typ int) engine.Node {
	fcFiltered := engine.NewFilter(engine.NewScan(c.fc),
		fmt.Sprintf("FC.arg = %d", typ),
		func(t *engine.Table, r int) bool {
			return t.Int32Col(kb.TOmegaType)[r] == int32(typ)
		})

	entCol, entClsCol, otherCol, otherClsCol := kb.TPiX, kb.TPiC1, kb.TPiY, kb.TPiC2
	if typ == kb.TypeII {
		entCol, entClsCol, otherCol, otherClsCol = kb.TPiY, kb.TPiC2, kb.TPiX, kb.TPiC1
	}

	// Join: T ⋈ FC on T.R = FC.R; output (R, ent, entCls, otherCls,
	// other, deg).
	join := engine.NewHashJoin(fcFiltered, engine.NewScan(tpi),
		[]int{kb.TOmegaR}, []int{kb.TPiR},
		[]engine.JoinOut{
			engine.ProbeCol("R", kb.TPiR),
			engine.ProbeCol("ent", entCol),
			engine.ProbeCol("entCls", entClsCol),
			engine.ProbeCol("otherCls", otherClsCol),
			engine.ProbeCol("other", otherCol),
			engine.BuildCol("deg", kb.TOmegaDeg),
		},
		"T.R = FC.R")

	// GROUP BY R, ent, entCls, otherCls HAVING COUNT(DISTINCT other) >
	// MIN(deg).
	grouped := engine.NewGroupBy(join, []int{0, 1, 2, 3}, []engine.AggSpec{
		{Kind: engine.AggCountDistinct, Col: 4, Name: "n"},
		{Kind: engine.AggMinF64, Col: 5, Name: "deg"},
	})
	return engine.NewFilter(grouped, "count(distinct) > min(deg)",
		func(t *engine.Table, r int) bool {
			return float64(t.Int32Col(4)[r]) > t.Float64Col(5)[r]
		})
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

// violationsOfType runs the grouped join for one functionality type on
// the single-node engine.
func (c *Checker) violationsOfType(tpi *engine.Table, typ int) []Violation {
	res, err := c.Plan(tpi, typ).Run()
	if err != nil {
		// The plan is static program data; failures are programming
		// errors, not runtime conditions.
		panic(fmt.Sprintf("quality: constraint query failed: %v", err))
	}
	return violationsOf(res, typ)
}

// Repair summarizes one constraint pass that found violations: how many
// entities violated a constraint and how many facts the greedy deletion
// removed. Run journals record one Repair per acting Query 3 pass.
type Repair struct {
	Violations int
	Deleted    int
}

// Apply is Query 3: find every violating entity and greedily delete its
// facts. Matching the paper's query exactly, deletion is by the
// *violated position*: a Type I violator (x, C1) loses the facts where
// it appears as the subject with that class; a Type II violator (y, C2)
// those where it is the object. It returns the number of deleted rows.
// This is the ConstraintHook the grounders call each iteration.
func (c *Checker) Apply(tpi *engine.Table) int {
	n, _ := c.apply(tpi)
	return n
}

// apply runs Query 3 and additionally reports how many violations drove
// the deletion.
func (c *Checker) apply(tpi *engine.Table) (deleted, violations int) {
	if c.fc.NumRows() == 0 {
		return 0, 0
	}
	viol := c.Violations(tpi)
	if len(viol) == 0 {
		return 0, 0
	}
	type entCls struct{ e, c int32 }
	badSubj := make(map[entCls]bool)
	badObj := make(map[entCls]bool)
	for _, v := range viol {
		if v.Type == kb.TypeI {
			badSubj[entCls{v.Entity, v.Class}] = true
		} else {
			badObj[entCls{v.Entity, v.Class}] = true
		}
	}
	xs, c1s := tpi.Int32Col(kb.TPiX), tpi.Int32Col(kb.TPiC1)
	ys, c2s := tpi.Int32Col(kb.TPiY), tpi.Int32Col(kb.TPiC2)
	deleted = tpi.DeleteWhere(func(r int) bool {
		return badSubj[entCls{xs[r], c1s[r]}] || badObj[entCls{ys[r], c2s[r]}]
	})
	obs.Default.Counter("probkb_quality_violations_total").Add(int64(len(viol)))
	obs.Default.Counter("probkb_quality_facts_deleted_total").Add(int64(deleted))
	return deleted, len(viol)
}

// Hook adapts the checker to ground.Options.ConstraintHook.
func (c *Checker) Hook() func(*engine.Table) int {
	return c.Apply
}

// HookWithObserver is Hook plus a repair observer: onRepair fires after
// every pass that found violations, carrying the violation and deletion
// counts (a run journal's constraint_repair feed).
func (c *Checker) HookWithObserver(onRepair func(Repair)) func(*engine.Table) int {
	return func(tpi *engine.Table) int {
		deleted, violations := c.apply(tpi)
		if violations > 0 && onRepair != nil {
			onRepair(Repair{Violations: violations, Deleted: deleted})
		}
		return deleted
	}
}

// PreClean runs Query 3 once over a KB's own fact set — the "run once
// before inference starts" step of Section 6.1.1 — removing violating
// entities' facts in place and returning how many facts were dropped.
func PreClean(k *kb.KB) int {
	checker := NewChecker(k)
	tpi := k.FactsTable()
	n := checker.Apply(tpi)
	if n > 0 {
		kept := make([]kb.Fact, 0, tpi.NumRows())
		for r := 0; r < tpi.NumRows(); r++ {
			kept = append(kept, kb.FactAtRow(tpi, r))
		}
		k.ReplaceFacts(kept)
	}
	return n
}

// AmbiguousEntities implements the ambiguity detection of Section 5.2:
// entities flagged by functional-constraint violations, the dominant
// symptom of one surface name covering several real-world entities. It
// returns the distinct (entity, class) pairs.
func (c *Checker) AmbiguousEntities(tpi *engine.Table) []Violation {
	viol := c.Violations(tpi)
	type entCls struct{ e, c int32 }
	seen := make(map[entCls]bool)
	out := make([]Violation, 0, len(viol))
	for _, v := range viol {
		k := entCls{v.Entity, v.Class}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}
