// Package ground implements MLN grounding over the relational model of
// Section 4 of the paper — the system's core contribution.
//
// One closure loop, with its factor phase (BatchGrounder.groundFrom),
// runs every grounder's plans through a backend that states and executes
// them. The grounders share identical semantics and differ in their
// plans only:
//
//   - BatchGrounder (probkb mode, Algorithm 1): applies *all rules of a
//     partition at once* by joining the MLN table Mi against the facts
//     table TΠ — O(k) queries per iteration for k non-empty partitions,
//     regardless of rule count. Queries 1-p and 2-p are stated once, as
//     engine plans, and run as built on the single-node engine, or
//     lowered by mpp.Lower onto a Greenplum-style cluster with
//     redistributed materialized views (MPPGrounder, which owns the
//     cluster copies of TΠ and Mi).
//
//   - TuffyGrounder (the Tuffy-T baseline of Section 6.1): one table per
//     relation and one join query per rule — O(n) queries per iteration
//     for n rules, always naive.
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
var (
	iterationsTotal = obs.NewCounter("probkb_ground_iterations_total", "Grounding closure iterations executed.")
	factsTotal      = obs.NewCounter("probkb_ground_facts_total", "New facts produced by grounding iterations.")
	factsDeduped    = obs.NewCounter("probkb_ground_facts_deduped_total",
		"Candidate facts dropped as duplicates during merge.")
	factsDeleted = obs.NewCounter("probkb_ground_facts_deleted_total",
		"Facts removed by the constraint hook during grounding.")
	queriesTotal     = obs.NewCounterVec("probkb_ground_queries_total", "Join queries issued, by grounding phase.", "phase")
	partitionSeconds = obs.NewHistogramVec("probkb_ground_partition_seconds",
		"Per-rule-partition batch query time, by phase.", nil, "phase", "partition")
)

// ctxOf returns the options' tracing context, defaulting to background.
func (o Options) ctxOf() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// observeIteration accumulates one closure iteration's counters.
func observeIteration(st IterStats, deduped int) {
	iterationsTotal.Inc()
	factsTotal.Add(int64(st.NewFacts))
	factsDeduped.Add(int64(deduped))
	factsDeleted.Add(int64(st.Deleted))
	queriesTotal.With("atoms").Add(int64(st.Queries))
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
	partitionSeconds.With(phase, partitionLabels[partition]).Observe(elapsed.Seconds())
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
	// FirstDerived is the ID grounding gave the first fact it derived:
	// the facts the run started from hold lower IDs, the facts it derived
	// this one and above. A constraint pass leaves holes in the IDs, so
	// a fact ID is compared with this, never with BaseFacts.
	FirstDerived int32
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

	// tphi is the last TΦ computed along this result's lineage — Factors
	// itself, or, after SkipFactors, the one the run continued from —
	// which Extend maintains rather than recomputes (deltafactors.go).
	tphi *factorState
	// index is the fact index of an Extend's run over Facts, both entity
	// columns extended to its last row, which an Extend of this result
	// forks rather than rebuilds, and the local grounder over its evidence
	// reads. It is published with the result and never written again.
	// Ground's results carry none: an Expand result is usually a final
	// product, and the index would hold ~10 MB at scale 1.0 that nobody
	// reads (DESIGN.md §5).
	index *factIndex
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
	// Observer, when non-nil, sees each iteration's stats and the facts
	// table after its merge and constraint pass (read-only). The Figure
	// 7(a) harness uses it to score precision per iteration.
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
	Observer func(st IterStats, tpi *engine.Table)
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

// factIndex is the index over a TΠ table that grounding reads and
// grows: the distinct facts by their identity key (R, x, C1, y, C2), the
// next fact ID to hand out, and — on the single-node backend, whose
// semi-naive legs and maintained factor legs read TΠ through it
// (DESIGN.md §5) — per entity, the rows holding it in the subject column
// and in the object column. An Extend publishes its run's index on its
// Result, and a later Extend of that result forks it instead of building
// its own: the fork shares the identity set's and the entity index's
// sealed bases and indexes only the rows past them. A published index is
// read, never written again.
type factIndex struct {
	set  *engine.RowSet
	tpi  *engine.Table
	next int32
	// byX and byY are the entity index, built by the first read (on) and
	// nil until then: MPP and Tuffy-T never read it. TΠ changes in two
	// ways (see Options.Observer), and the index follows both: a read
	// extends it over the rows appended since the last one — the merge's
	// and Extend's — and a deletion (rebuild) drops it for the next read
	// to build again.
	byX, byY *engine.EntityIndex
}

// tpiKeyCols are the identity columns of TΠ.
var tpiKeyCols = []int{kb.TPiR, kb.TPiX, kb.TPiC1, kb.TPiY, kb.TPiC2}

func newFactIndex(tpi *engine.Table) *factIndex {
	return &factIndex{set: engine.NewRowSet(tpi, tpiKeyCols), tpi: tpi, next: nextFactID(tpi)}
}

// nextFactID returns one past the highest fact ID tpi holds: where a run
// over tpi starts handing out IDs.
func nextFactID(tpi *engine.Table) int32 {
	next := int32(0)
	for _, id := range tpi.Int32Col(kb.TPiI) {
		if id >= next {
			next = id + 1
		}
	}
	return next
}

// fork returns the index of tpi, a Clone of the table a published index
// ix covers, as newFactIndex would build it — the same next fact ID, the
// same lookups — sharing ix's bases. It writes nothing ix holds, so
// sibling rounds may fork one published index at once.
func (ix *factIndex) fork(tpi *engine.Table) *factIndex {
	return &factIndex{set: ix.set.Fork(tpi), tpi: tpi, next: nextFactID(tpi),
		byX: ix.byX.Fork(tpi), byY: ix.byY.Fork(tpi)}
}

// candidateKeyCols are the identity columns of a groundAtoms result, the
// first five of every body join's output (R, x, C1, y, C2, ...).
var candidateKeyCols = []int{0, 1, 2, 3, 4}

// merge appends the facts of candidates (a body join's output; only its
// identity columns are read) that are not yet in TΠ, assigning fresh IDs
// and NULL weights; it returns the number of new facts.
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
		ix.add(r32[r], x32[r], c132[r], y32[r], c232[r], engine.NullFloat64())
		added++
	}
	return added
}

// add appends a fact TΠ does not hold under the next fact ID.
func (ix *factIndex) add(r, x, c1, y, c2 int32, w float64) {
	ix.tpi.AppendRow(ix.next, r, x, c1, y, c2, w)
	ix.next++
	ix.set.NoteAppended()
}

// rebuild re-indexes TΠ after in-place deletions.
func (ix *factIndex) rebuild() {
	ix.set = engine.NewRowSet(ix.tpi, tpiKeyCols)
	ix.byX, ix.byY = nil, nil
}

// on returns the entity index over TΠ value column col (kb.TPiX or
// kb.TPiY), covering every row TΠ holds.
func (ix *factIndex) on(col int) *engine.EntityIndex {
	if ix.byX == nil {
		ix.byX, ix.byY = engine.NewEntityIndex(ix.tpi, kb.TPiX), engine.NewEntityIndex(ix.tpi, kb.TPiY)
	}
	ix.byX.Extend()
	ix.byY.Extend()
	if col == kb.TPiX {
		return ix.byX
	}
	return ix.byY
}

// ---------------------------------------------------------------------------
// Join-shape derivation
//
// The grounding joins derive from the canonical shape of each partition
// — the layout below, the plan builders in batch.go — so Queries 1-i and
// 2-i for all six partitions come out of one generator. Every body join
// emits a clause's candidate head (R, x, C1, y, C2) with its body fact
// IDs and rule weight (I2[, I3], w): the closure merges the candidates by
// identity and reads nothing else, and Query 2 joins them to the head to
// resolve I1.

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
