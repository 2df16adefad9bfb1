package infer

import (
	"math/rand"
	"testing"
)

func TestSplitRHat(t *testing.T) {
	alternating := make([]uint8, 200)
	for i := range alternating {
		alternating[i] = uint8(i % 2)
	}
	if r := splitRHat(alternating); r < 0.9 || r > 1.05 {
		t.Fatalf("well-mixed chain R-hat = %g, want ~1", r)
	}

	// A drifting chain: first half all 0, second half all 1 — the
	// split-half comparison exists exactly to catch this.
	drift := make([]uint8, 200)
	for i := 100; i < 200; i++ {
		drift[i] = 1
	}
	if r := splitRHat(drift); r != degenerateRHat {
		t.Fatalf("pinned-disagreeing halves R-hat = %g, want sentinel %g", r, degenerateRHat)
	}

	// A mostly-drifted chain with some mixing still scores far above 1.
	noisy := make([]uint8, 200)
	rng := rand.New(rand.NewSource(1))
	for i := range noisy {
		p := 0.05
		if i >= 100 {
			p = 0.95
		}
		if rng.Float64() < p {
			noisy[i] = 1
		}
	}
	if r := splitRHat(noisy); r < 1.5 {
		t.Fatalf("drifting chain R-hat = %g, want >> 1", r)
	}

	// Pinned and agreeing: converged, R-hat exactly 1.
	if r := splitRHat(make([]uint8, 100)); r != 1 {
		t.Fatalf("constant chain R-hat = %g, want 1", r)
	}

	// Too short for halves.
	if r := splitRHat([]uint8{0, 1, 0}); r != 0 {
		t.Fatalf("short chain R-hat = %g, want 0", r)
	}
}

func TestESSBinary(t *testing.T) {
	// Independent draws: ESS ~ n.
	rng := rand.New(rand.NewSource(2))
	iid := make([]uint8, 400)
	for i := range iid {
		if rng.Float64() < 0.5 {
			iid[i] = 1
		}
	}
	if ess := essBinary(iid); ess < 200 {
		t.Fatalf("iid ESS = %g, want close to n=400", ess)
	}

	// Strongly autocorrelated draws (long runs): ESS << n.
	sticky := make([]uint8, 400)
	state := uint8(0)
	for i := range sticky {
		if rng.Float64() < 0.02 { // flip rarely
			state = 1 - state
		}
		sticky[i] = state
	}
	if ess := essBinary(sticky); ess > 100 {
		t.Fatalf("sticky ESS = %g, want far below n=400", ess)
	}

	// Pinned series: exact draws, ESS = n.
	if ess := essBinary(make([]uint8, 50)); ess != 50 {
		t.Fatalf("pinned ESS = %g, want n=50", ess)
	}
}

func TestTrackerStride(t *testing.T) {
	// The tracker strides over the sampled list, not the variable index
	// space: with every third variable sampled, every tracked variable is
	// one of them.
	sampled := make([]int32, 1000)
	for k := range sampled {
		sampled[k] = int32(3 * k)
	}
	tr := newTracker(sampled, 32)
	if len(tr.vars) != 32 {
		t.Fatalf("tracked %d vars, want 32", len(tr.vars))
	}
	for _, v := range tr.vars {
		if v%3 != 0 {
			t.Fatalf("tracked variable %d is not sampled: %v", v, tr.vars)
		}
	}
	// Strided, not the first 32: the last tracked var sits deep in the
	// list.
	if tr.vars[len(tr.vars)-1] < 3*500 {
		t.Fatalf("tracked vars not strided: %v", tr.vars)
	}

	// Fewer vars than the cap: track all of them.
	if tr := newTracker(sampled[:5], 32); len(tr.vars) != 5 {
		t.Fatalf("small graph tracked %d vars, want 5", len(tr.vars))
	}
	if tr := newTracker(nil, 32); len(tr.vars) != 0 || tr.diagnostics() != nil {
		t.Fatalf("nothing sampled, yet tracked %v", tr.vars)
	}

	// Diagnostics stay nil until minDiagSamples sweeps are recorded.
	tr = newTracker([]int32{0, 1, 2, 3}, 4)
	assign := []bool{true, false, true, false}
	for i := 0; i < minDiagSamples-1; i++ {
		tr.record(assign)
	}
	if d := tr.diagnostics(); d != nil {
		t.Fatalf("diagnostics before %d samples: %+v", minDiagSamples, d)
	}
	tr.record(assign)
	diags := tr.diagnostics()
	if len(diags) != 4 {
		t.Fatalf("diagnostics = %+v", diags)
	}
	if diags[0].Mean != 1 || diags[1].Mean != 0 {
		t.Fatalf("means = %+v", diags)
	}
}

// TestCheckpointObserver runs real Gibbs sampling with an observer and
// checks checkpoints arrive on cadence with eventually-live diagnostics.
func TestCheckpointObserver(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(5)), 20)
	var cps []Checkpoint
	opts := Options{
		Burnin:       50,
		Samples:      200,
		Seed:         3,
		OnCheckpoint: func(cp Checkpoint) { cps = append(cps, cp) },
	}
	if probs := chainMarginals(g, opts); len(probs) != 20 {
		t.Fatalf("marginals = %d vars, want 20", len(probs))
	}
	// Sweeps 25,50,...,250: 10 checkpoints (250 is both on-cadence and
	// final).
	if len(cps) != 10 {
		t.Fatalf("got %d checkpoints, want 10", len(cps))
	}
	if !cps[0].Burnin || cps[0].Sweep != 25 {
		t.Fatalf("first checkpoint = %+v", cps[0])
	}
	last := cps[len(cps)-1]
	if last.Sweep != 250 || last.Burnin {
		t.Fatalf("last checkpoint = %+v", last)
	}
	if last.RHatMax <= 0 || last.ESSMin <= 0 || len(last.Tracked) == 0 {
		t.Fatalf("final checkpoint has no diagnostics: %+v", last)
	}
	// Checkpoints count, and the timeline tracks, sampled variables only.
	if last.Vars != len(g.Sampled()) {
		t.Fatalf("checkpoint Vars = %d, want the %d sampled variables", last.Vars, len(g.Sampled()))
	}
	for _, d := range last.Tracked {
		if d.Mean < 0 || d.Mean > 1 {
			t.Fatalf("tracked mean out of range: %+v", d)
		}
		if len(g.FactorsOf(int32(d.Var))) == 0 {
			t.Fatalf("timeline tracks variable %d, which no clause touches", d.Var)
		}
	}
}
