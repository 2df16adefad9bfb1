package infer

import (
	"math"
	"time"
)

// Convergence timeline for a single sampling run: periodic checkpoints
// carrying split-half R-hat and effective sample size over a tracked
// subset of variables. Unlike MarginalsWithDiagnostics (which re-runs
// several chains after the fact), the timeline observes the one chain
// the run actually uses, as it runs — the durable convergence evidence
// a run journal records.

// VarDiag is one tracked variable's convergence state at a checkpoint.
type VarDiag struct {
	// Var is the graph variable index.
	Var int
	// Mean is the post-burn-in marginal estimate so far.
	Mean float64
	// RHat is the single-chain split-half potential scale reduction
	// factor over the collected samples; ~1 means the two halves agree.
	RHat float64
	// ESS is the autocorrelation-adjusted effective sample size.
	ESS float64
}

// Checkpoint is one periodic snapshot of a sampling run.
type Checkpoint struct {
	// Sweep is 1-based and counts burn-in sweeps.
	Sweep int
	// Burnin reports whether collection has not started yet.
	Burnin bool
	// Vars is the number of variables resampled per sweep.
	Vars int
	// Flips is how many variables changed value in the checkpoint's
	// sweep.
	Flips int
	// Elapsed is wall time since the run started.
	Elapsed time.Duration
	// SamplesPerSec is cumulative variable-resample throughput.
	SamplesPerSec float64
	// RHatMax and ESSMin summarize the tracked variables; both are 0
	// until enough post-burn-in samples exist (minDiagSamples).
	RHatMax float64
	ESSMin  float64
	// Tracked has one entry per tracked variable, in variable order;
	// empty before diagnostics start.
	Tracked []VarDiag
}

// DefaultCheckpointEvery is the sweep interval between checkpoints when
// a checkpoint observer is installed without an explicit interval.
const DefaultCheckpointEvery = 25

// defaultTrackVars caps how many variables the timeline samples for
// per-atom diagnostics; tracking everything would make each checkpoint
// O(vars · samples).
const defaultTrackVars = 32

// minDiagSamples is the minimum post-burn-in history length before
// split-half R-hat and ESS are reported; halves shorter than 4 samples
// are noise.
const minDiagSamples = 8

// tracker records the post-burn-in 0/1 history of a strided subset of
// the sampled variables and computes checkpoint diagnostics on demand.
type tracker struct {
	vars    []int32   // tracked variable indices, ascending
	history [][]uint8 // per tracked var, one byte per collected sweep
}

// newTracker picks up to cap of the sampled variables with a uniform
// stride so hubs and leaves both get tracked. Variables outside the
// sampled list have closed-form marginals and nothing to converge.
func newTracker(sampled []int32, cap int) *tracker {
	if cap <= 0 {
		cap = defaultTrackVars
	}
	n := len(sampled)
	if cap > n {
		cap = n
	}
	t := &tracker{}
	if cap == 0 {
		return t
	}
	stride := n / cap
	for k := 0; k < n && len(t.vars) < cap; k += stride {
		t.vars = append(t.vars, sampled[k])
	}
	t.history = make([][]uint8, len(t.vars))
	return t
}

// record appends the current assignment of every tracked variable
// (call once per post-burn-in sweep).
func (t *tracker) record(assign []bool) {
	for i, v := range t.vars {
		b := uint8(0)
		if assign[v] {
			b = 1
		}
		t.history[i] = append(t.history[i], b)
	}
}

// diagnostics computes per-variable split-half R-hat and ESS over the
// history collected so far; it returns nil until minDiagSamples sweeps
// are in.
func (t *tracker) diagnostics() []VarDiag {
	if len(t.vars) == 0 || len(t.history[0]) < minDiagSamples {
		return nil
	}
	out := make([]VarDiag, len(t.vars))
	for i, v := range t.vars {
		h := t.history[i]
		out[i] = VarDiag{
			Var:  int(v),
			Mean: meanU8(h),
			RHat: splitRHat(h),
			ESS:  essBinary(h),
		}
	}
	return out
}

func meanU8(h []uint8) float64 {
	var s float64
	for _, b := range h {
		s += float64(b)
	}
	return s / float64(len(h))
}

// splitRHat is the Gelman–Rubin potential scale reduction factor with
// the single chain split into halves (m = 2) — the same formula
// MarginalsWithDiagnostics applies across independent chains, which
// catches slow drift within one chain: a chain still trending has
// halves with different means and an R-hat above 1.
func splitRHat(h []uint8) float64 {
	half := len(h) / 2
	if half < 2 {
		return 0
	}
	// Drop a leftover odd sample from the front (the older half).
	a, b := h[len(h)-2*half:len(h)-half], h[len(h)-half:]
	pa, pb := meanU8(a), meanU8(b)
	mean := (pa + pb) / 2
	n := float64(half)

	// Between-half variance of the means (times n).
	da, db := pa-mean, pb-mean
	B := (da*da + db*db) * n // m-1 = 1

	// Within-half variance of Bernoulli draws: p(1-p)·n/(n-1).
	W := (pa*(1-pa) + pb*(1-pb)) / 2 * n / (n - 1)

	if W <= 1e-12 {
		if B <= 1e-12 {
			return 1 // pinned in both halves and agreeing: converged
		}
		// Pinned halves that disagree: divergent. A finite sentinel
		// instead of +Inf keeps the value JSON-encodable downstream.
		return degenerateRHat
	}
	varPlus := (n-1)/n*W + B/n
	return math.Sqrt(varPlus / W)
}

// degenerateRHat stands in for an infinite R-hat (two pinned,
// disagreeing split halves) so diagnostics stay JSON-encodable.
const degenerateRHat = 1e9

// essBinary estimates the effective sample size of a 0/1 series as
// n / (1 + 2·Σρ_k), summing autocorrelations until they fall below
// 0.05 or the lag cap. A pinned series has undefined autocorrelation;
// its draws are exact, so ESS = n.
func essBinary(h []uint8) float64 {
	n := len(h)
	mean := meanU8(h)
	var c0 float64
	for _, b := range h {
		d := float64(b) - mean
		c0 += d * d
	}
	c0 /= float64(n)
	if c0 <= 1e-12 {
		return float64(n)
	}
	maxLag := n / 2
	if maxLag > 200 {
		maxLag = 200
	}
	var acSum float64
	for k := 1; k <= maxLag; k++ {
		var ck float64
		for i := 0; i+k < n; i++ {
			ck += (float64(h[i]) - mean) * (float64(h[i+k]) - mean)
		}
		rho := ck / float64(n) / c0
		if rho < 0.05 {
			break
		}
		acSum += rho
	}
	ess := float64(n) / (1 + 2*acSum)
	if ess > float64(n) {
		ess = float64(n)
	}
	return ess
}

// summarize reduces per-variable diagnostics to the checkpoint's
// RHatMax/ESSMin pair.
func summarize(diags []VarDiag) (rhatMax, essMin float64) {
	for i, d := range diags {
		if d.RHat > rhatMax {
			rhatMax = d.RHat
		}
		if i == 0 || d.ESS < essMin {
			essMin = d.ESS
		}
	}
	return rhatMax, essMin
}
