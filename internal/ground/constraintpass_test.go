package ground_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// A constraint pass and the fact index's upkeep after it cost what the
// rows appended since the last pass and the rows deleted cost, not what
// TΠ costs (DESIGN.md §5): the pass counts only the groups its Δ
// touches, deletes once by copying runs, and the index follows the
// deletion instead of being rebuilt.

// passCase is TΠ after a constrained grounding of the scale's corpus, as
// KB.Expand leaves it, the checker that followed it, and a batch of facts
// that makes one new violator: one more partner than a Type I
// constraint allows for the subject of TΠ's first row under it, so the
// pass deletes rows of that subject from near the start of TΠ.
type passCase struct {
	tpi     *engine.Table
	checker *quality.Checker
	batch   []kb.Fact
}

var (
	passCasesMu sync.Mutex
	passCases   = map[float64]*passCase{}
)

func constrainedPassCase(tb testing.TB, scale float64) *passCase {
	tb.Helper()
	passCasesMu.Lock()
	defer passCasesMu.Unlock()
	if pc := passCases[scale]; pc != nil {
		return pc
	}
	c, err := synth.ReVerbSherlock(scale, 42)
	if err != nil {
		tb.Fatal(err)
	}
	k := c.KB.Clone()
	quality.PreClean(k)
	checker := quality.NewCheckerAfterPreClean(k)
	res, err := ground.Ground(k, ground.Options{SemiNaive: true, ConstraintHook: checker.Apply})
	if err != nil {
		tb.Fatal(err)
	}
	pc := &passCase{tpi: res.Facts, checker: checker}
	fc := k.ConstraintsTable()
	rels, xs, c1s, c2s := pc.tpi.Int32Col(kb.TPiR), pc.tpi.Int32Col(kb.TPiX), pc.tpi.Int32Col(kb.TPiC1), pc.tpi.Int32Col(kb.TPiC2)
	for r := 0; r < pc.tpi.NumRows() && pc.batch == nil; r++ {
		for i := 0; i < fc.NumRows(); i++ {
			if fc.Int32Col(kb.TOmegaR)[i] != rels[r] || fc.Int32Col(kb.TOmegaType)[i] != kb.TypeI {
				continue
			}
			// Partners no fact of TΠ names, so the group gains every one.
			for n, y := int(fc.Float64Col(kb.TOmegaDeg)[i])+1, int32(k.Entities.Len()); n > 0; n, y = n-1, y+1 {
				pc.batch = append(pc.batch, kb.Fact{Rel: rels[r], X: xs[r], XClass: c1s[r], Y: y, YClass: c2s[r], W: 0.9})
			}
			break
		}
	}
	if pc.batch == nil {
		tb.Fatal("fixture drifted: no row of TΠ falls under a Type I constraint")
	}
	passCases[scale] = pc
	return pc
}

// start returns a copy of the case's TΠ, indexed, with the batch
// appended, and the hook of a copy of its checker: the state one pass
// starts from.
func (pc *passCase) start(tb testing.TB) (*ground.IndexedFacts, func(*engine.Table) int) {
	f := ground.IndexFacts(pc.tpi.Clone())
	for _, x := range pc.batch {
		if !f.Add(x) {
			tb.Fatalf("fixture drifted: TΠ holds %+v", x)
		}
	}
	return f, pc.checker.Clone().Apply
}

// BenchmarkConstraintPass is one constraint pass over a Δ that makes one
// new violator, then the fact index following its deletion, over TΠ of
// the scale-0.05 and scale-0.25 corpora.
func BenchmarkConstraintPass(b *testing.B) {
	for _, scale := range []float64{0.05, 0.25} {
		pc := constrainedPassCase(b, scale)
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, hook := pc.start(b)
				b.StartTimer()
				if f.Pass(hook) == 0 {
					b.Fatal("the pass deleted nothing")
				}
			}
		})
	}
}

// passBytes returns the bytes one constraint pass and the index upkeep
// after it allocate on the scale's case: the fewest of passRuns runs.
//
// Nothing else allocates in the window, but what the pass allocates
// depends on a pool: its joins take their probe scratch from
// engine.probeScratches, and a pass that finds the pool empty allocates
// the scratch anew, in proportion to its probe side (at scale 0.25,
// 78 KB where a pass that finds it full allocates 37 KB). A GC empties
// the pool, and building a run's state runs GCs, so each run first
// passes over a twin of the state it measures, which leaves the pool as
// a pass finds it in a grounding; nothing between the twin and the
// measured pass allocates enough to run a GC. Under the race detector a
// pool also drops a quarter of what it is handed back, so a pass of a
// few joins refills it about half the time whatever came before; the
// fewest of passRuns runs is a pass that did not.
func passBytes(t *testing.T, scale float64) uint64 {
	pc := constrainedPassCase(t, scale)
	least := ^uint64(0)
	for range passRuns {
		twin, twinHook := pc.start(t)
		f, hook := pc.start(t)
		twin.Pass(twinHook)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		deleted := f.Pass(hook)
		runtime.ReadMemStats(&after)
		if deleted == 0 {
			t.Fatalf("scale %g: the pass deleted nothing", scale)
		}
		if err := f.MatchesFresh(); err != nil {
			t.Fatalf("scale %g: after the pass: %v", scale, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// passRuns is how many runs passBytes takes the fewest bytes of: enough
// that, with half of them refilling the pool, all refill about once in
// 65,000 measurements.
const passRuns = 16

// passBytesBound bounds what a deleting pass allocates on the scale-0.25
// case over what it allocates on the scale-0.05 one, whose TΠ is ~5×
// smaller (79K rows against 16K). The pass's own tables follow its Δ and
// its victims; what grows with TΠ is the renumbering the index follows
// the deletion by, 12 bytes per 64 rows. Measured: 1.65× (21.6 KB to
// 35.5 KB); a compaction that lists every row past the first deleted
// one measures 5.3×.
const passBytesBound = 2.5

// TestConstraintPassBytesFlat gates the pass's allocations against the
// size of TΠ.
func TestConstraintPassBytesFlat(t *testing.T) {
	small, large := passBytes(t, 0.05), passBytes(t, 0.25)
	ratio := float64(large) / float64(small)
	t.Logf("a deleting pass allocates %d B at scale 0.05, %d B at 0.25: ×%.2f", small, large, ratio)
	if ratio > passBytesBound {
		t.Fatalf("a deleting pass allocates ×%.2f from scale 0.05 to 0.25, bound ×%.1f", ratio, passBytesBound)
	}
}

// TestConstrainedExpandFollowsDeletions: a constrained grounding of the
// scale-0.05 corpus deletes in several iterations, and its fact index
// follows every deletion — none is rebuilt — and ends equal to a fresh
// index over the final TΠ.
func TestConstrainedExpandFollowsDeletions(t *testing.T) {
	c, err := synth.ReVerbSherlock(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	k := c.KB.Clone()
	quality.PreClean(k)
	res, err := ground.GroundWithIndex(k, ground.Options{SemiNaive: true, ConstraintHook: quality.NewCheckerAfterPreClean(k).Apply})
	if err != nil {
		t.Fatal(err)
	}
	if n := ground.IndexRebuilds(res); n != 0 {
		t.Fatalf("the fact index was rebuilt %d times", n)
	}
	if deleting(res) < 2 {
		t.Fatalf("fixture drifted: %d iterations deleted rows", deleting(res))
	}
	if err := ground.IndexMatchesFresh(res); err != nil {
		t.Fatal(err)
	}
}

// TestMPPExpandDistributesOnce: a constrained MPP grounding of the
// scale-0.05 corpus deletes in several iterations, and its cluster copies
// of TΠ follow every deletion: TΠ is distributed once, at load.
func TestMPPExpandDistributesOnce(t *testing.T) {
	c, err := synth.ReVerbSherlock(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	k := c.KB.Clone()
	quality.PreClean(k)
	g, err := ground.NewMPP(k, ground.Options{SemiNaive: true, ConstraintHook: quality.NewCheckerAfterPreClean(k).Apply},
		mpp.NewCluster(2), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Ground()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d iterations deleted rows", deleting(res), res.Iterations)
	if deleting(res) < 3 {
		t.Fatalf("fixture drifted: %d iterations deleted rows", deleting(res))
	}
	if n := ground.Distributions(g); n != 1 {
		t.Fatalf("TΠ was distributed %d times", n)
	}
}

// TestClusterCopiesFollowDeletions: an MPP run's cluster copies of TΠ
// follow what each iteration changed. Over constrained random KBs, naive
// and semi-naive, on 1–3 segments, with views and without, whose passes
// delete in several iterations — the checker's victims, and on every
// other pass a row of their own from the first half of TΠ, which the
// cluster already holds — after every iteration's upkeep the base
// table's segments hold, row for row, what distributing the master
// afresh gives, and each view's segments what materializing it afresh
// gives, as multisets. No run distributes TΠ again.
func TestClusterCopiesFollowDeletions(t *testing.T) {
	deletingRuns := 0
	for seed := int64(0); seed < 24; seed++ {
		k := constrainedKB(seed)
		segs := 1 + int(seed%3)
		for _, semi := range []bool{false, true} {
			for _, views := range []bool{false, true} {
				who := fmt.Sprintf("seed %d, %d segments, semi-naive %v, views %v", seed, segs, semi, views)
				rng := rand.New(rand.NewSource(seed + 51000))
				checker := quality.NewChecker(k)
				calls := 0
				hook := func(tpi *engine.Table) int {
					if calls++; calls%2 == 0 || tpi.NumRows() < 2 {
						return checker.Apply(tpi)
					}
					return tpi.DeleteRows([]int32{int32(rng.Intn(tpi.NumRows() / 2))})
				}
				var g *ground.MPPGrounder
				observe := func(st ground.IterStats, _ *engine.Table) {
					if err := ground.ClusterCopiesMatch(g); err != nil {
						t.Fatalf("%s, iteration %d (%d deleted): %v", who, st.Iteration, st.Deleted, err)
					}
				}
				opts := ground.Options{SemiNaive: semi, MaxIterations: 8, ConstraintHook: hook, Observer: observe}
				g, err := ground.NewMPP(k, opts, mpp.NewCluster(segs), views)
				if err != nil {
					t.Fatal(err)
				}
				res, err := g.Ground()
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				if n := ground.Distributions(g); n != 1 {
					t.Fatalf("%s: TΠ was distributed %d times", who, n)
				}
				if deleting(res) >= 2 {
					deletingRuns++
				}
			}
		}
	}
	t.Logf("%d of 96 runs deleted in two iterations or more", deletingRuns)
	if deletingRuns < 48 {
		t.Fatalf("generator too tame: %d of 96 runs deleted in two iterations", deletingRuns)
	}
}

// deleting counts the iterations of res whose constraint pass deleted.
func deleting(res *ground.Result) int {
	n := 0
	for _, st := range res.PerIteration {
		if st.Deleted > 0 {
			n++
		}
	}
	return n
}

// TestFollowedIndexMatchesFresh holds the index a run followed its
// deletions with to a fresh one over the final TΠ, and the parent's
// index to a fresh one over the parent's: after a constrained grounding
// on random KBs, and after Extends whose hook deletes in several
// iterations, one deletion per pass — its checker's, or on every other
// pass a victim of its own from the first half of TΠ. None of them
// rebuilds the index.
func TestFollowedIndexMatchesFresh(t *testing.T) {
	deletingExtends := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 46000))
		k := constrainedKB(seed)
		checker := quality.NewChecker(k)
		res, err := ground.GroundWithIndex(k, ground.Options{SemiNaive: true, ConstraintHook: checker.Apply})
		if err != nil {
			t.Fatal(err)
		}
		if err := ground.IndexMatchesFresh(res); err != nil {
			t.Fatalf("seed %d, grounding: %v", seed, err)
		}
		for round := 0; round < 4; round++ {
			c := checker.Clone()
			calls := 0
			hook := func(tpi *engine.Table) int {
				if calls++; calls%2 == 0 || tpi.NumRows() < 2 {
					return c.Apply(tpi)
				}
				return tpi.DeleteRows([]int32{int32(rng.Intn(tpi.NumRows() / 2))})
			}
			opts := ground.Options{SemiNaive: true, MaxIterations: 8, ConstraintHook: hook}
			next, err := ground.Extend(k, res, randomFacts(rng, k, 2+rng.Intn(4)), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ground.IndexMatchesFresh(next); err != nil {
				t.Fatalf("seed %d, round %d: %v", seed, round, err)
			}
			if n := ground.IndexRebuilds(next); n != 0 {
				t.Fatalf("seed %d, round %d: the fact index was rebuilt %d times", seed, round, n)
			}
			if err := ground.IndexMatchesFresh(res); err != nil {
				t.Fatalf("seed %d, round %d: the parent's index after its child's round: %v", seed, round, err)
			}
			if deleting(next) >= 2 {
				deletingExtends++
			}
			res, checker = next, c
		}
	}
	if deletingExtends == 0 {
		t.Fatal("no Extend deleted in two iterations")
	}
}

// TestNextFactIDIsTheLastRows: the first new fact ID of a run is one past
// its table's last row's ID, the highest it holds, on every table a run
// starts from: a KB's facts, a Fork of a published result's TΠ, and a
// local grounder's seed table.
func TestNextFactIDIsTheLastRows(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 46100))
		k := constrainedKB(seed)
		res, err := ground.Ground(k, ground.Options{SemiNaive: true, ConstraintHook: quality.NewChecker(k).Apply})
		if err != nil {
			t.Fatal(err)
		}
		res, err = ground.Extend(k, res, randomFacts(rng, k, 3), ground.Options{SemiNaive: true, ConstraintHook: quality.NewChecker(k).Apply})
		if err != nil {
			t.Fatal(err)
		}
		f := kb.FactAtRow(res.Facts, rng.Intn(res.Facts.NumRows()))
		load, fork, local, seeds := ground.NextFactIDs(k, res, f.Rel, f.X, f.Y)
		for _, c := range []struct {
			name string
			got  int32
			t    *engine.Table
		}{{"load", load, k.FactsTable()}, {"fork", fork, res.Facts}, {"local seed", local, seeds}} {
			if want := ground.NextFactIDByScan(c.t); c.got != want {
				t.Fatalf("seed %d, %s: next fact ID %d, a scan says %d", seed, c.name, c.got, want)
			}
		}
	}
}
