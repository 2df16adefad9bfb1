// Package ground implements MLN grounding over the relational model of
// Section 4 of the paper — the system's core contribution.
//
// Two grounders share identical semantics:
//
//   - BatchGrounder (probkb mode, Algorithm 1): applies *all rules of a
//     partition at once* by joining the MLN table Mi against the facts
//     table TΠ — O(k) queries per iteration for k non-empty partitions,
//     regardless of rule count. Queries 1-p and 2-p are stated once, as
//     engine plans, and one closure loop runs them through a backend:
//     as built on the single-node engine, or lowered by mpp.Lower onto
//     a Greenplum-style cluster with redistributed materialized views
//     (MPPGrounder, which owns the cluster copies of TΠ and Mi).
//
//   - TuffyGrounder (the Tuffy-T baseline of Section 6.1): one table per
//     relation and one join query per rule — O(n) queries per iteration
//     for n rules.
//
// Grounding is two phases (Algorithm 1): groundAtoms computes the
// transitive closure of the facts under the rules, then groundFactors
// replays the joins carrying fact IDs to emit the ground factor table TΦ
// (Definition 7), including singleton factors for the observed facts.
package ground

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// Grounding metrics, accumulated across runs by every grounder
// (batch, MPP, and the Tuffy baseline).
func init() {
	obs.Default.Help("probkb_ground_iterations_total", "Grounding closure iterations executed.")
	obs.Default.Help("probkb_ground_facts_total", "New facts produced by grounding iterations.")
	obs.Default.Help("probkb_ground_facts_deduped_total", "Candidate facts dropped as duplicates during merge.")
	obs.Default.Help("probkb_ground_facts_deleted_total", "Facts removed by the constraint hook during grounding.")
	obs.Default.Help("probkb_ground_queries_total", "Join queries issued, by grounding phase.")
	obs.Default.Help("probkb_ground_partition_seconds", "Per-rule-partition batch query time, by phase.")
}

// ctxOf returns the options' tracing context, defaulting to background.
func (o Options) ctxOf() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// observeIteration accumulates one closure iteration's counters.
func observeIteration(st IterStats, deduped int) {
	obs.Default.Counter("probkb_ground_iterations_total").Inc()
	obs.Default.Counter("probkb_ground_facts_total").Add(int64(st.NewFacts))
	obs.Default.Counter("probkb_ground_facts_deduped_total").Add(int64(deduped))
	obs.Default.Counter("probkb_ground_facts_deleted_total").Add(int64(st.Deleted))
	obs.Default.Counter("probkb_ground_queries_total", obs.L("phase", "atoms")).Add(int64(st.Queries))
}

// partitionLabels are the partition label values P0..P<NumPartitions>,
// rendered once rather than per query.
var partitionLabels = func() (ls [mln.NumPartitions + 1]string) {
	for p := range ls {
		ls[p] = "P" + strconv.Itoa(p)
	}
	return ls
}()

// observePartition records one partition batch query's wall time.
func observePartition(phase string, partition int, elapsed time.Duration) {
	obs.Default.Histogram("probkb_ground_partition_seconds", nil,
		obs.L("phase", phase), obs.L("partition", partitionLabels[partition])).
		Observe(elapsed.Seconds())
}

// Factor-table column indices (Definition 7): a row (I1, I2, I3, w) is a
// weighted ground rule I1 ← I2 [, I3]; I2 and I3 are NULL for factors of
// size 2 or 1.
const (
	TPhiI1 = 0
	TPhiI2 = 1
	TPhiI3 = 2
	TPhiW  = 3
)

// FactorSchema returns the schema of TΦ.
func FactorSchema() engine.Schema {
	return engine.NewSchema(
		engine.C("I1", engine.Int32),
		engine.C("I2", engine.Int32),
		engine.C("I3", engine.Int32),
		engine.C("w", engine.Float64),
	)
}

// IterStats records what one grounding iteration did.
type IterStats struct {
	Iteration int
	// NewFacts counts the rows the merge appended to TΠ, before the
	// constraint hook ran; Deleted counts the rows the hook removed, old
	// and new alike. A fact derived again after a checker removed it
	// (naive evaluation repeats such derivations every iteration) is
	// counted in both, so NewFacts can stay positive in the iteration
	// that reaches the fixpoint: what ends the loop is that none of the
	// appended rows is left.
	NewFacts int
	Deleted  int
	Queries  int
	Elapsed  time.Duration
}

// Result is the output of a grounding run.
type Result struct {
	// Facts is the final TΠ: observed facts (weighted) plus inferred
	// facts (NULL weight), one row per distinct fact.
	Facts *engine.Table
	// Factors is TΦ.
	Factors *engine.Table
	// BaseFacts is the number of facts present before inference.
	BaseFacts int
	// Iterations actually executed.
	Iterations int
	// Converged reports whether a fixpoint was reached (nothing the final
	// iteration appended survived its constraint pass) rather than the
	// iteration cap.
	Converged bool
	// PerIteration has one entry per executed iteration.
	PerIteration []IterStats
	// AtomQueries and FactorQueries count the join queries issued in each
	// phase — the O(k) vs O(n) comparison of Section 4.3.1.
	AtomQueries   int
	FactorQueries int
	// LoadTime, AtomTime, FactorTime break down the wall clock.
	LoadTime   time.Duration
	AtomTime   time.Duration
	FactorTime time.Duration

	// tphi is the last TΦ computed along this result's lineage on the
	// single-node backend — Factors itself, or, after SkipFactors, the one
	// the run continued from — which Extend maintains rather than
	// recomputes (deltafactors.go).
	tphi *factorState
}

// InferredFacts returns how many facts grounding added.
func (r *Result) InferredFacts() int {
	return r.Facts.NumRows() - r.BaseFacts
}

// Options configures a grounding run.
type Options struct {
	// Ctx carries the caller's tracing context; grounders attach their
	// "ground" span tree beneath the span it carries (see internal/obs).
	// nil means context.Background().
	Ctx context.Context
	// MaxIterations caps the closure loop; 0 means run to fixpoint.
	MaxIterations int
	// ConstraintHook, when non-nil, is invoked on TΠ after each
	// iteration's merge (Algorithm 1 line 6, applyConstraints). It must
	// delete offending rows in place, keeping the survivors' order, and
	// return how many it removed. The closure ends with the first
	// iteration none of whose appended rows survives the hook, so a hook
	// whose deletions are final (quality.Checker) gives the run a
	// fixpoint; one that forgets what it deleted ends it the same way
	// under naive evaluation, which derives the deleted rows again and
	// has them deleted again.
	ConstraintHook func(tpi *engine.Table) int
	// SkipFactors skips the groundFactors phase (Query 2); the scaling
	// experiments of Figure 6(a)/(b) time only the first phase.
	SkipFactors bool
	// SemiNaive switches the closure loop to semi-naive evaluation:
	// iteration i joins each partition against the *delta* of facts new
	// in iteration i-1 (for two-atom bodies, Δ⋈T ∪ T⋈Δ), instead of
	// re-joining the full table. Same fixpoint, less rework. This is the
	// order the library grounds in (probkb's Expand, ExtendWith,
	// RefreshMarginals and the local grounder all set it); the zero
	// value is the paper's Algorithm 1, kept as the oracle the tests
	// compare against and what probkb-bench's Table 3 times. The delta
	// is tracked by fact-ID watermark: a removed fact drops out of the
	// next delta and one derived again enters it under a fresh ID. Under
	// a constraint hook the two orders agree when the hook deletes again
	// whatever it deleted once, as quality.Checker does (DESIGN.md §5).
	SemiNaive bool
	// Workers is the engine worker-pool size grounding query plans run
	// with (engine.Opts.Workers): 0 means the engine default
	// (runtime.NumCPU()), 1 forces serial execution. Results are
	// identical for every setting.
	Workers int
	// OnIteration, when non-nil, observes each iteration's stats.
	OnIteration func(IterStats)
	// Observer, when non-nil, sees the facts table after each iteration's
	// merge and constraint pass (read-only). The Figure 7(a) harness uses
	// it to score precision per iteration.
	//
	// Every call of one run is handed the same table (for Extend, the
	// Clone it made of prev.Facts), and between calls — and between that
	// Clone and the first call — the table changes in two ways only: rows
	// are appended, each with a fact ID above every ID the table ever
	// held, and the constraint hook deletes rows in place, keeping the
	// survivors' order. No surviving row's identity columns or weight are
	// rewritten, so fact IDs increase strictly with the row index and an
	// unchanged ID at row n-1 proves rows [0, n) untouched. The durable
	// store's O(delta) sync rests on this; groundFrom asserts the ID order
	// of each iteration's rows before calling the observer.
	Observer func(iter int, tpi *engine.Table)
	// Journal, when non-nil, receives this run's structured events:
	// per-iteration stats and per-partition query profiles with full
	// operator trees (motions included on the MPP grounders). Writer
	// methods are nil-safe, so emissions below never guard.
	Journal *journal.Writer
}

// emitIteration records one closure iteration into the run journal.
func emitIteration(w *journal.Writer, st IterStats) {
	w.Emit(journal.TypeIteration, journal.Iteration{
		Phase:     "ground",
		Iteration: st.Iteration,
		NewFacts:  st.NewFacts,
		Deleted:   st.Deleted,
		Queries:   st.Queries,
		Seconds:   st.Elapsed.Seconds(),
	})
}

// factIndex tracks the distinct facts of a TΠ table by their identity key
// (R, x, C1, y, C2) and hands out the next fact ID.
type factIndex struct {
	set  *engine.RowSet
	tpi  *engine.Table
	next int32
}

// tpiKeyCols are the identity columns of TΠ.
var tpiKeyCols = []int{kb.TPiR, kb.TPiX, kb.TPiC1, kb.TPiY, kb.TPiC2}

func newFactIndex(tpi *engine.Table) *factIndex {
	next := int32(0)
	ids := tpi.Int32Col(kb.TPiI)
	for _, id := range ids {
		if id >= next {
			next = id + 1
		}
	}
	return &factIndex{set: engine.NewRowSet(tpi, tpiKeyCols), tpi: tpi, next: next}
}

// candidateKeyCols are the identity columns of a groundAtoms result
// (schema R, x, C1, y, C2).
var candidateKeyCols = []int{0, 1, 2, 3, 4}

// merge appends the rows of candidates (schema (R, x, C1, y, C2)) that
// are not yet in TΠ, assigning fresh IDs and NULL weights; it returns the
// number of new facts.
func (ix *factIndex) merge(candidates *engine.Table) int {
	added := 0
	r32 := candidates.Int32Col(0)
	x32 := candidates.Int32Col(1)
	c132 := candidates.Int32Col(2)
	y32 := candidates.Int32Col(3)
	c232 := candidates.Int32Col(4)
	for r := 0; r < candidates.NumRows(); r++ {
		if ix.set.Contains(candidates, r, candidateKeyCols) {
			continue
		}
		ix.tpi.AppendRow(ix.next, r32[r], x32[r], c132[r], y32[r], c232[r], engine.NullFloat64())
		ix.next++
		ix.set.NoteAppended()
		added++
	}
	return added
}

// rebuild re-indexes TΠ after in-place deletions.
func (ix *factIndex) rebuild() {
	ix.set = engine.NewRowSet(ix.tpi, tpiKeyCols)
}

// tpiIndex is TΠ's entity index for one grounding run: per entity, the
// rows holding it in the subject column and in the object column. The
// single-node backend's semi-naive legs read a delta row's TΠ partners
// through it (DESIGN.md §5). groundFrom builds it at the first iteration
// that has a delta and drops it when it returns; nothing else holds it.
type tpiIndex struct {
	byX, byY *engine.EntityIndex
	// lastID is the fact ID of the last indexed row.
	lastID int32
}

func newTPiIndex(tpi *engine.Table) *tpiIndex {
	ix := &tpiIndex{byX: engine.NewEntityIndex(tpi, kb.TPiX), byY: engine.NewEntityIndex(tpi, kb.TPiY)}
	ix.noteLast(tpi)
	return ix
}

func (ix *tpiIndex) noteLast(tpi *engine.Table) {
	if ids := tpi.Int32Col(kb.TPiI); len(ids) > 0 {
		ix.lastID = ids[len(ids)-1]
	}
}

// sync brings ix up to tpi and returns it; a nil ix builds the index.
// Appended rows extend it. A deletion among the indexed rows — the
// constraint hook's, which shifts every row after it — rebuilds it: fact
// IDs grow strictly with the row index and are never reused (see
// Options.Observer), so an unchanged ID at the last indexed row proves
// every indexed row still in place.
func (ix *tpiIndex) sync(tpi *engine.Table) *tpiIndex {
	if ix == nil {
		return newTPiIndex(tpi)
	}
	n, ids := ix.byX.Len(), tpi.Int32Col(kb.TPiI)
	if n > len(ids) || (n > 0 && ids[n-1] != ix.lastID) {
		return newTPiIndex(tpi)
	}
	ix.byX.Extend()
	ix.byY.Extend()
	ix.noteLast(tpi)
	return ix
}

// on returns the index over TΠ value column col (kb.TPiX or kb.TPiY).
func (ix *tpiIndex) on(col int) *engine.EntityIndex {
	if col == kb.TPiX {
		return ix.byX
	}
	return ix.byY
}

// ---------------------------------------------------------------------------
// Join-shape derivation
//
// Everything below derives the grounding joins from the canonical shape
// of each partition, so Queries 1-i and 2-i for all six partitions come
// out of one generator.

// mCols describes the column layout of an MLN partition table.
type mCols struct {
	r1, r2, r3 int // r3 = -1 for length-2 partitions
	w          int
	class      [3]int // class column per canonical variable X, Y, Z (Z = -1 if absent)
}

// layoutOf returns the column layout of partition p's table.
func layoutOf(p int) mCols {
	if p == mln.P1 || p == mln.P2 {
		return mCols{r1: 0, r2: 1, r3: -1, w: 4, class: [3]int{2, 3, -1}}
	}
	return mCols{r1: 0, r2: 1, r3: 2, w: 6, class: [3]int{3, 4, 5}}
}

// atomSide tells where an atom's variables sit in a TΠ row: the variable
// in the subject position (T.x) and in the object position (T.y).
func atomSide(a mln.Atom) (subj, obj mln.Var) { return a.Arg1, a.Arg2 }

// tCol returns the TΠ value column holding variable v of atom a, given
// that the row matched atom a.
func tCol(a mln.Atom, v mln.Var) int {
	if a.Arg1 == v {
		return kb.TPiX
	}
	if a.Arg2 == v {
		return kb.TPiY
	}
	panic(fmt.Sprintf("ground: atom %v does not mention %v", a, v))
}

// hasVar reports whether atom a mentions v.
func hasVar(a mln.Atom, v mln.Var) bool { return a.Arg1 == v || a.Arg2 == v }
