package ground_test

import (
	"fmt"
	"math/rand"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/quality"
)

// constrainedKB is ground_test.go's random KB with random functional
// constraints over its relations, and, for every other seed, the
// up-front Query 3 pass already applied.
func constrainedKB(seed int64) *kb.KB {
	rng := rand.New(rand.NewSource(seed + 9000))
	k := ground.RandomKB(rng)
	// RandomKB spreads few facts over three classes; entities meet in a
	// group often enough to violate anything only with more facts in one.
	for i, n := 0, 10+rng.Intn(15); i < n; i++ {
		k.InternFact(k.RelDict.Name(int32(rng.Intn(k.RelDict.Len()))),
			fmt.Sprintf("e%d", rng.Intn(8)), "A", fmt.Sprintf("e%d", rng.Intn(8)), "A", 0.5+rng.Float64()/2)
	}
	rel := func() string { return k.RelDict.Name(int32(rng.Intn(k.RelDict.Len()))) }
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		body := fmt.Sprintf("%s(%s)", rel(), []string{"x:A, y:A", "y:A, x:A"}[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			body = fmt.Sprintf("%s(%s), %s(%s)", rel(), []string{"x:A, z:A", "z:A, x:A"}[rng.Intn(2)],
				rel(), []string{"z:A, y:A", "y:A, z:A"}[rng.Intn(2)])
		}
		c, err := k.ParseRule(fmt.Sprintf("%.2f %s(x:A, y:A) :- %s", 0.1+rng.Float64(), rel(), body))
		if err != nil {
			panic(err)
		}
		if err := k.AddRule(c); err != nil {
			panic(err)
		}
	}
	for rel := int32(0); rel < int32(k.RelDict.Len()); rel++ {
		if rng.Intn(3) == 0 {
			continue
		}
		c := kb.Constraint{Rel: rel, Type: kb.TypeI + rng.Intn(2), Degree: 1 + rng.Intn(2)}
		if err := k.AddConstraint(c); err != nil {
			panic(err)
		}
	}
	if seed%2 == 1 {
		quality.PreClean(k)
	}
	return k
}

// checkedHook is a fresh checker's hook for k, which additionally holds
// every pass to the full query: whatever rows a pass looked at, Query 3
// stated from scratch over the table it leaves must find nothing.
func checkedHook(t *testing.T, k *kb.KB, who string) func(*engine.Table) int {
	hook := quality.NewChecker(k).Hook()
	pass := 0
	return func(tpi *engine.Table) int {
		pass++
		deleted := hook(tpi)
		if viol := quality.NewChecker(k).Violations(tpi); len(viol) != 0 {
			t.Fatalf("%s: pass %d left %d violations in TΠ, first %+v", who, pass, len(viol), viol[0])
		}
		return deleted
	}
}

// TestConstrainedGroundersAgree: under the real checker, naive and
// semi-naive evaluation on one node and on a cluster, and Tuffy-T, all
// converge, in the same number of iterations, to the same facts and the
// same factors.
func TestConstrainedGroundersAgree(t *testing.T) {
	deletedSomething, rederived := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		k := constrainedKB(seed)
		opts := func(who string, semi bool) ground.Options {
			return ground.Options{SemiNaive: semi, ConstraintHook: checkedHook(t, k, fmt.Sprintf("seed %d %s", seed, who))}
		}
		runs := map[string]func() (*ground.Result, error){
			"semi-naive": func() (*ground.Result, error) { return ground.Ground(k, opts("semi-naive", true)) },
			"tuffy": func() (*ground.Result, error) {
				g, err := ground.NewTuffy(k, opts("tuffy", false))
				if err != nil {
					return nil, err
				}
				return g.Ground()
			},
			"mpp naive": func() (*ground.Result, error) {
				g, err := ground.NewMPP(k, opts("mpp naive", false), mpp.NewCluster(3), true)
				if err != nil {
					return nil, err
				}
				return g.Ground()
			},
			"mpp semi-naive": func() (*ground.Result, error) {
				g, err := ground.NewMPP(k, opts("mpp semi-naive", true), mpp.NewCluster(2), seed%4 < 2)
				if err != nil {
					return nil, err
				}
				return g.Ground()
			},
		}
		naive, err := ground.Ground(k, opts("naive", false))
		if err != nil {
			t.Fatalf("seed %d naive: %v", seed, err)
		}
		if !naive.Converged {
			t.Fatalf("seed %d: naive grounding did not converge in %d iterations", seed, naive.Iterations)
		}
		want, wantF := ground.FactSet(naive.Facts), ground.FactorMultiset(t, naive)
		naiveNew, naiveDel := 0, 0
		for _, st := range naive.PerIteration {
			naiveNew, naiveDel = naiveNew+st.NewFacts, naiveDel+st.Deleted
		}
		if naiveDel > 0 {
			deletedSomething++
		}
		for who, run := range runs {
			res, err := run()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, who, err)
			}
			if !res.Converged || res.Iterations != naive.Iterations {
				t.Fatalf("seed %d %s: converged=%v after %d iterations, naive after %d", seed, who, res.Converged, res.Iterations, naive.Iterations)
			}
			got := ground.FactSet(res.Facts)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d facts, naive %d", seed, who, len(got), len(want))
			}
			for key := range want {
				if !got[key] {
					t.Fatalf("seed %d %s: missing %+v", seed, who, key)
				}
			}
			if !ground.FactorsEqual(ground.FactorMultiset(t, res), wantF) {
				t.Fatalf("seed %d %s: factor multiset differs from naive", seed, who)
			}
			if who == "semi-naive" {
				semiNew := 0
				for _, st := range res.PerIteration {
					semiNew += st.NewFacts
				}
				if semiNew < naiveNew {
					rederived++
				}
			}
		}
	}
	// The property is only worth its name if the generator reaches the
	// case it is about: naive order deriving again what a pass removed.
	if deletedSomething < 30 || rederived < 15 {
		t.Fatalf("generator too tame: %d of 60 KBs lost facts to a constraint, %d re-derived a removed one under naive order", deletedSomething, rederived)
	}
}

// TestIterationCapInvariance: the fixpoint, not the cap, ends a
// constrained run. Every cap at or above the convergence iteration —
// none included — yields the same table, row for row and ID for ID,
// as does running it twice; a cap below it reports Converged=false.
func TestIterationCapInvariance(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		k := constrainedKB(seed)
		for _, semi := range []bool{false, true} {
			run := func(maxIters int) *ground.Result {
				res, err := ground.Ground(k, ground.Options{
					SemiNaive: semi, MaxIterations: maxIters, ConstraintHook: quality.NewChecker(k).Hook(),
				})
				if err != nil {
					t.Fatalf("seed %d semi=%v cap %d: %v", seed, semi, maxIters, err)
				}
				return res
			}
			free := run(0)
			if !free.Converged {
				t.Fatalf("seed %d semi=%v: no fixpoint", seed, semi)
			}
			at := free.Iterations
			wantFacts, wantFactors := free.Facts.String(), free.Factors.String()
			for _, maxIters := range []int{at, at, at + 1, at + 7} {
				res := run(maxIters)
				if !res.Converged || res.Iterations != at {
					t.Fatalf("seed %d semi=%v cap %d: converged=%v after %d, want after %d", seed, semi, maxIters, res.Converged, res.Iterations, at)
				}
				if res.Facts.String() != wantFacts || res.Factors.String() != wantFactors {
					t.Fatalf("seed %d semi=%v: cap %d changed the result", seed, semi, maxIters)
				}
			}
			if at > 1 {
				if res := run(at - 1); res.Converged {
					t.Fatalf("seed %d semi=%v: cap %d reports convergence, which takes %d", seed, semi, at-1, at)
				}
			}
		}
	}
}
