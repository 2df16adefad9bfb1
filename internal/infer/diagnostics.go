package infer

import (
	"math"

	"probkb/internal/factor"
	"probkb/internal/obs"
)

// Convergence diagnostics for the Gibbs samplers: the split-chain
// potential scale reduction factor (Gelman–Rubin R̂) computed over
// independent chains. The paper treats inference as a black box; a
// production system needs to know when the box has actually converged,
// so Expansion-level tooling exposes this.

// Diagnostics summarizes a multi-chain run.
type Diagnostics struct {
	// Marginals are the pooled estimates over all chains.
	Marginals []float64
	// RHat is the per-variable potential scale reduction factor; values
	// near 1 indicate convergence (< 1.1 is the usual threshold).
	RHat []float64
	// MaxRHat is the worst R̂ across variables.
	MaxRHat float64
	// Chains is the number of chains run.
	Chains int
}

// Converged reports whether every variable's R̂ is below the threshold
// (use 1.1 if unsure).
func (d Diagnostics) Converged(threshold float64) bool {
	return d.MaxRHat <= threshold
}

// MarginalsWithDiagnostics runs `chains` independent Gibbs chains with
// different seeds and computes pooled marginals plus split-chain R̂ per
// variable. A variable outside the components the chain sweeps is not
// sampled — every run computes the same exact marginal — so its R̂ is 1
// by definition and MaxRHat ranges over the swept variables only; with
// none, one run suffices and MaxRHat stays 0.
//
// R̂ for binary-variable marginals uses the chain means: B/n is the
// between-chain variance of the per-chain marginal estimates, W the
// average within-chain variance of the indicator draws.
func MarginalsWithDiagnostics(g *factor.Graph, opts Options, chains int) Diagnostics {
	if chains < 2 {
		chains = 2
	}
	opts = opts.withDefaults()
	n := g.NumVars()
	d := Diagnostics{Chains: chains}
	if n == 0 {
		return d
	}

	// Per-chain marginal estimates.
	_, _, swept, _ := split(g, exactMaxVars)
	est := make([][]float64, chains)
	for c := 0; c < chains && (c == 0 || len(swept) > 0); c++ {
		chainOpts := opts
		chainOpts.Seed = opts.Seed + int64(c)*1_000_003
		chainOpts.Chain = c + 1 // label each chain's metrics series
		est[c] = Marginals(g, chainOpts)
	}

	m := float64(chains)
	samples := float64(opts.Samples)
	d.Marginals = make([]float64, n)
	d.RHat = make([]float64, n)
	for v := range d.RHat {
		d.Marginals[v] = est[0][v]
		d.RHat[v] = 1
	}
	for _, v := range swept {
		// Pooled mean.
		var mean float64
		for c := 0; c < chains; c++ {
			mean += est[c][v]
		}
		mean /= m
		d.Marginals[v] = mean

		// Between-chain variance of means (times n).
		var b float64
		for c := 0; c < chains; c++ {
			diff := est[c][v] - mean
			b += diff * diff
		}
		b = b * samples / (m - 1)

		// Within-chain variance: for a Bernoulli stream with mean p̂ the
		// sample variance is p̂(1-p̂)·n/(n-1).
		var w float64
		for c := 0; c < chains; c++ {
			p := est[c][v]
			w += p * (1 - p) * samples / math.Max(samples-1, 1)
		}
		w /= m

		if w <= 1e-12 {
			// Degenerate variable (pinned to 0 or 1 in every chain):
			// converged by definition if the means agree.
			if b <= 1e-12 {
				d.RHat[v] = 1
			} else {
				d.RHat[v] = math.Inf(1)
			}
		} else {
			varPlus := (samples-1)/samples*w + b/samples
			d.RHat[v] = math.Sqrt(varPlus / w)
		}
		if d.RHat[v] > d.MaxRHat {
			d.MaxRHat = d.RHat[v]
		}
	}
	// Record the convergence trajectory: each diagnostics run leaves its
	// worst R̂ in the registry so a live server shows whether inference
	// has actually mixed.
	obs.Default.Gauge("probkb_infer_rhat_max").Set(d.MaxRHat)
	return d
}
