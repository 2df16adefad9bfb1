package infer

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"probkb/internal/factor"
	"probkb/internal/obs"
)

// TestEnumerationMatchesBruteForce holds the production enumeration to
// an oracle that shares no code with it: Graph.LogScore over every
// assignment of the whole graph. The graphs have several components
// (brute force ignores them), every awkward clause shape, evidence-only
// variables, and in one case a component of exactly exactMaxVars
// variables with weights large enough to overflow a naive exp.
func TestEnumerationMatchesBruteForce(t *testing.T) {
	check := func(name string, g *factor.Graph) {
		t.Helper()
		sweeps := 0
		got := Marginals(g, Options{Seed: 1, OnIteration: func(SweepStats) { sweeps++ }})
		if sweeps != 0 {
			t.Fatalf("%s: %d sweeps ran on a graph of small components", name, sweeps)
		}
		for v, want := range bruteForce(t, g) {
			if d := math.Abs(got[v] - want); d > 1e-12 || math.IsNaN(got[v]) {
				t.Errorf("%s var %d: enumeration %v, brute force %v (|Δ|=%g)", name, v, got[v], want, d)
			}
		}
	}
	for seed := int64(700); seed < 740; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(13)
		// Two awkward graphs side by side, variables interleaved: the first
		// on the even indices, the second on the odd ones.
		a, b := awkwardRows(rng, n/2+1), awkwardRows(rng, n/2+1)
		var rows [][4]any
		for _, r := range a {
			rows = append(rows, shiftRow(r, func(v int) int { return 2 * v }))
		}
		for _, r := range b {
			rows = append(rows, shiftRow(r, func(v int) int { return 2*v + 1 }))
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		check("awkward", graphFromFactors(t, 2*(n/2+1), rows))
	}

	rng := rand.New(rand.NewSource(9))
	var big [][4]any
	for v := 0; v < exactMaxVars; v++ {
		big = append(big, [4]any{v, null, null, rng.Float64()*60 - 30})
	}
	check("sixteen", ringGraph(t, exactMaxVars, 40,
		append(big, [4]any{exactMaxVars, exactMaxVars + 1, null, 400.0}, [4]any{exactMaxVars + 1, null, null, -350.0})...))
}

// shiftRow renames a factor row's variables.
func shiftRow(r [4]any, to func(int) int) [4]any {
	for i, x := range r[:3] {
		if v, ok := x.(int); ok {
			r[i] = to(v)
		}
	}
	return r
}

// giantGraph is the synthetic stand-in for the paper's raw ground graph:
// one grid component of side×side variables beside `small` components of
// two to five variables, rows shuffled together.
func giantGraph(t testing.TB, side, small int) (g *factor.Graph, giant int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(side)))
	var rows [][4]any
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if rng.Intn(3) == 0 {
				rows = append(rows, [4]any{at(r, c), null, null, rng.Float64()*2 - 1})
			}
			if c+1 < side {
				rows = append(rows, [4]any{at(r, c), at(r, c+1), null, rng.Float64()})
			}
			if r+1 < side {
				rows = append(rows, [4]any{at(r+1, c), at(r, c), null, rng.Float64()})
			}
		}
	}
	next := side * side
	for i := 0; i < small; i++ {
		n := 2 + rng.Intn(4)
		rows = append(rows, [4]any{next, null, null, rng.Float64()*3 - 1})
		for v := 1; v < n; v++ {
			rows = append(rows, [4]any{next + v, next + rng.Intn(v), null, rng.Float64() * 2})
		}
		next += n
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return graphFromFactors(t, next, rows), side * side
}

// TestGiantComponent runs enumeration, the sequential chain and the
// chromatic chain in one graph: a 48×48 grid component beside 400 tiny
// ones. The chain sweeps exactly the grid; every other marginal is the
// exact one whatever the sampler, seed or worker count; the two samplers
// agree on the grid within Monte Carlo tolerance.
func TestGiantComponent(t *testing.T) {
	g, giant := giantGraph(t, 48, 400)
	plan := PlanOf(g)
	if plan.Components != 401 || plan.Exact != 400 || plan.SampledVars != giant || plan.MaxComponent != giant {
		t.Fatalf("plan = %+v, want 401 components, 400 exact, %d sampled variables", plan, giant)
	}
	exact := make([]float64, g.NumVars()) // of the tiny components, one Subgraph at a time
	for v := giant; v < g.NumVars(); v++ {
		sub := g.Subgraph(int32(v), 0)
		p, err := Exact(sub)
		if err != nil {
			t.Fatal(err)
		}
		sv, _ := sub.VarOf(g.FactID(int32(v)))
		exact[v] = p[sv]
	}

	run := func(opts Options) []float64 {
		t.Helper()
		sweeps, checkpoints := 0, 0
		opts.OnIteration = func(st SweepStats) {
			sweeps++
			if st.Vars != giant {
				t.Fatalf("sweep %d resampled %d variables, want the grid's %d", st.Sweep, st.Vars, giant)
			}
		}
		opts.OnCheckpoint = func(cp Checkpoint) {
			checkpoints++
			for _, d := range cp.Tracked {
				if d.Var >= giant {
					t.Fatalf("timeline tracks variable %d, which was enumerated", d.Var)
				}
			}
		}
		probs, collected, err := MarginalsContext(context.Background(), g, opts)
		if err != nil || collected != opts.Samples || sweeps != opts.Burnin+opts.Samples || checkpoints == 0 {
			t.Fatalf("collected %d of %d in %d sweeps, %d checkpoints, err %v", collected, opts.Samples, sweeps, checkpoints, err)
		}
		for v := giant; v < g.NumVars(); v++ {
			if probs[v] != exact[v] {
				t.Fatalf("%+v: enumerated var %d = %v, want exactly %v", opts, v, probs[v], exact[v])
			}
		}
		return probs
	}
	seq := run(Options{Burnin: 100, Samples: 1500, Seed: 1, Workers: 1})
	chrom := run(Options{Burnin: 100, Samples: 1500, Seed: 2, Parallel: true, Workers: 4})
	for v := 0; v < giant; v++ {
		if d := math.Abs(seq[v] - chrom[v]); d > 0.1 {
			t.Errorf("grid var %d: sequential %v vs chromatic %v", v, seq[v], chrom[v])
		}
	}
	// The grid's two color classes are large enough to fan out: the
	// chromatic chain is bit-identical at any worker count.
	short4 := run(Options{Burnin: 5, Samples: 40, Seed: 3, Parallel: true, Workers: 4})
	short1 := run(Options{Burnin: 5, Samples: 40, Seed: 3, Parallel: true, Workers: 1})
	if !slices.Equal(short4, short1) {
		t.Fatal("chromatic chain differs across worker counts")
	}
}

// TestComponentsMoveNothing is the metamorphic check on "components are
// independent": re-interleaving TΦ's rows across components, adding
// unrelated components and renumbering every variable around them leave
// every enumerated marginal bit-identical — and so do the seed and the
// worker count.
func TestComponentsMoveNothing(t *testing.T) {
	for seed := int64(800); seed < 808; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Base graph: components of 1..exactMaxVars variables, each with
		// its own row list.
		var comps [][][4]any
		n := 0
		for len(comps) < 12 {
			size := 1 + rng.Intn(exactMaxVars)
			if len(comps) == 0 {
				size = exactMaxVars
			}
			rows := [][4]any{{n, null, null, rng.Float64()*3 - 1}}
			for v := 1; v < size; v++ {
				rows = append(rows, [4]any{n + v, n + rng.Intn(v), null, rng.Float64() * 2})
				if rng.Intn(3) == 0 {
					rows = append(rows, [4]any{n + rng.Intn(v+1), n + v, n + rng.Intn(v+1), rng.Float64()*2 - 0.5})
				}
			}
			comps = append(comps, rows)
			n += size
		}
		// interleave merges the components' rows in a random order that
		// keeps each component's own rows in sequence.
		interleave := func(comps [][][4]any) [][4]any {
			var out [][4]any
			left := make([][][4]any, len(comps))
			copy(left, comps)
			for len(left) > 0 {
				i := rng.Intn(len(left))
				out = append(out, left[i][0])
				if left[i] = left[i][1:]; len(left[i]) == 0 {
					left = append(left[:i], left[i+1:]...)
				}
			}
			return out
		}
		var flat [][4]any
		for _, rows := range comps {
			flat = append(flat, rows...)
		}
		base := Marginals(graphFromFactors(t, n, flat), Options{Seed: 1, Workers: 1})

		// Padded graph: new components (and factor-less variables) between
		// the old variables, all rows re-interleaved.
		at := make([]int, n)
		next := 0
		var extra [][][4]any
		for v := 0; v < n; v++ {
			for rng.Intn(4) == 0 {
				size := 1 + rng.Intn(4)
				rows := [][4]any{{next, null, null, rng.Float64()}}
				for u := 1; u < size; u++ {
					rows = append(rows, [4]any{next + u, next + u - 1, null, rng.Float64()})
				}
				extra = append(extra, rows)
				next += size
			}
			at[v] = next
			next++
		}
		moved := make([][][4]any, len(comps))
		for i, rows := range comps {
			for _, r := range rows {
				moved[i] = append(moved[i], shiftRow(r, func(v int) int { return at[v] }))
			}
		}
		big := graphFromFactors(t, next, interleave(append(moved, extra...)))
		for _, opts := range []Options{{Seed: 1, Workers: 1}, {Seed: 99, Workers: 2, Parallel: true}, {Seed: 7, Workers: 8}} {
			got := Marginals(big, opts)
			for v := range base {
				if math.Float64bits(got[at[v]]) != math.Float64bits(base[v]) {
					t.Fatalf("seed %d %+v var %d: %v among the extra components, %v without", seed, opts, v, got[at[v]], base[v])
				}
			}
		}
	}
}

// TestExactPassCancelledMidway cancels a pass that would take seconds —
// 3,000 components of exactMaxVars variables — a few milliseconds in:
// the enumeration checks ctx between components, so the call returns at
// once, with no marginals and no collected count.
func TestExactPassCancelledMidway(t *testing.T) {
	var rows [][4]any
	const comps = 3000
	for c := 0; c < comps; c++ {
		for v := 0; v < exactMaxVars; v++ {
			rows = append(rows, [4]any{c*exactMaxVars + v, c*exactMaxVars + (v+1)%exactMaxVars, null, 0.5})
		}
	}
	g := graphFromFactors(t, comps*exactMaxVars, rows)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		probs, collected, err := MarginalsContext(ctx, g, Options{Workers: workers})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || probs != nil || collected != 0 {
			t.Fatalf("workers=%d: probs %v collected %d err %v, want nil, 0, deadline exceeded", workers, probs != nil, collected, err)
		}
		if elapsed > time.Second {
			t.Fatalf("workers=%d: cancelled pass took %v", workers, elapsed)
		}
	}
}

// TestNothingToSampleIsHealthy: a pass whose every component is
// enumerated reports the requested sample count and never opens the
// chain feed's active window — no sweep counted, no chain for the stall
// and divergence watchdogs to judge.
func TestNothingToSampleIsHealthy(t *testing.T) {
	g := ringGraph(t, exactMaxVars, 1.0, [4]any{exactMaxVars, exactMaxVars + 1, null, 1.0})
	sweeps := obs.Default.Counter("probkb_infer_sweeps_total", obs.L("chain", "0"))
	before := sweeps.Value()
	stall := &obs.GibbsStallDetector{Health: obs.Gibbs}
	stall.Check(time.Now())
	probs, collected, err := MarginalsContext(context.Background(), g, Options{Samples: 321})
	if err != nil || collected != 321 || len(probs) != g.NumVars() {
		t.Fatalf("collected %d err %v, want the requested 321", collected, err)
	}
	if active, sweep, _ := obs.Gibbs.State(); active || sweep != 0 || sweeps.Value() != before {
		t.Fatalf("chain feed touched by a pass with nothing to sample: active=%v sweep=%d sweeps +%v", active, sweep, sweeps.Value()-before)
	}
	if f, fired := stall.Check(time.Now()); fired {
		t.Fatalf("stall detector fired: %+v", f)
	}
	if want := (Plan{Components: 2, Exact: 2, MaxComponent: exactMaxVars}); PlanOf(g) != want {
		t.Fatalf("plan = %+v, want %+v", PlanOf(g), want)
	}
}

// TestUnconstrainedCorpusSweepsOnlyLargeComponents grounds the scale-0.25
// corpus without constraints (ingest-serve's baseline), whose graph has a
// handful of components above the bound: the chain sweeps exactly their
// variables, and its estimates agree with a 20,000-sweep reference chain
// run over each such component alone.
func TestUnconstrainedCorpusSweepsOnlyLargeComponents(t *testing.T) {
	g := corpusGraph(t, 0.25, false)
	off, vars := g.Components()
	want := 0
	var large []int32 // one variable of each component above the bound
	for c := 0; c+1 < len(off); c++ {
		if size := int(off[c+1] - off[c]); size > exactMaxVars {
			want += size
			large = append(large, vars[off[c]])
		}
	}
	if len(large) == 0 {
		t.Fatal("no component above the bound: the corpus no longer exercises the chain")
	}
	swept := -1
	opts := Options{Burnin: 500, Samples: 20000, Seed: 5, OnIteration: func(st SweepStats) { swept = st.Vars }}
	probs := Marginals(g, opts)
	if swept != want {
		t.Fatalf("chain swept %d variables, want the %d in the %d components above %d", swept, want, len(large), exactMaxVars)
	}
	for _, seed := range large {
		sub := g.Subgraph(seed, 0)
		ref := chainMarginals(sub, Options{Burnin: 500, Samples: 20000, Seed: 77})
		for sv := int32(0); int(sv) < sub.NumVars(); sv++ {
			v, _ := g.VarOf(sub.FactID(sv))
			if d := math.Abs(probs[v] - ref[sv]); d > 0.03 {
				t.Errorf("component of %d, fact %d: %v vs reference chain %v", sub.NumVars(), sub.FactID(sv), probs[v], ref[sv])
			}
		}
	}
	t.Logf("%d components, %d above %d (%d variables swept)", len(off)-1, len(large), exactMaxVars, want)
}
