package infer

import (
	"math"

	"probkb/internal/factor"
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
// different seeds and computes pooled marginals plus R̂ (gelmanRubin)
// per variable. A variable outside the components the chain sweeps is
// not sampled — every run computes the same exact marginal — so its R̂
// is 1 by definition and MaxRHat ranges over the swept variables only;
// with none, one run suffices and MaxRHat stays 0.
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
	means := make([]float64, chains)
	d.Marginals = make([]float64, n)
	d.RHat = make([]float64, n)
	for v := range d.RHat {
		d.Marginals[v] = est[0][v]
		d.RHat[v] = 1
	}
	for _, v := range swept {
		// Pooled mean, and the within-chain variance: for a Bernoulli
		// stream with mean p̂ the sample variance is p̂(1-p̂)·n/(n-1).
		var mean, w float64
		for c := 0; c < chains; c++ {
			p := est[c][v]
			means[c] = p
			mean += p
			w += p * (1 - p) * samples / math.Max(samples-1, 1)
		}
		d.Marginals[v] = mean / m
		r, ok := gelmanRubin(means, samples, w/m)
		if !ok {
			r = math.Inf(1)
		}
		d.RHat[v] = r
		if d.RHat[v] > d.MaxRHat {
			d.MaxRHat = d.RHat[v]
		}
	}
	return d
}

// gelmanRubin is the potential scale reduction factor R̂ of m ≥ 2
// chains of n binary draws each, from the chain means p and W, the
// average within-chain variance of the draws; B/n is the variance of the
// means between chains. Chains pinned (W = 0) at one value have R̂ 1;
// pinned at different values, R̂ is infinite and ok is false. Each
// caller sums W itself, in the floating-point order its recorded values
// have always been computed in.
func gelmanRubin(p []float64, n, w float64) (rhat float64, ok bool) {
	m := float64(len(p))
	var mean float64
	for _, x := range p {
		mean += x
	}
	mean /= m
	var b float64
	for _, x := range p {
		d := x - mean
		b += d * d
	}
	b = b * n / (m - 1)
	if w <= 1e-12 {
		return 1, b <= 1e-12
	}
	return math.Sqrt(((n-1)/n*w + b/n) / w), true
}
