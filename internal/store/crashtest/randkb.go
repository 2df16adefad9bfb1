package crashtest

import (
	"math/rand"

	"probkb/internal/kb"
	"probkb/internal/store"
)

// Symbol pools for random KBs: small enough that deletes and marginal
// updates frequently hit existing facts, and that duplicate inserts
// (exercising max-weight dedup and idempotence) occur.
var (
	poolRels     = []string{"born_in", "live_in", "located_in", "works_at"}
	poolEntities = []string{"ada", "grace", "nyc", "paris", "mit", "inria"}
	poolClasses  = []string{"Person", "Place", "Org"}
)

// RandFact draws one fact over the symbol pools.
func RandFact(rng *rand.Rand) store.FactRec {
	return store.FactRec{
		Rel: poolRels[rng.Intn(len(poolRels))],
		X:   poolEntities[rng.Intn(len(poolEntities))], XClass: poolClasses[rng.Intn(len(poolClasses))],
		Y: poolEntities[rng.Intn(len(poolEntities))], YClass: poolClasses[rng.Intn(len(poolClasses))],
		W: float64(rng.Intn(100)) / 100,
	}
}

// RandKB draws a small base KB over the symbol pools: a taxonomy edge,
// two to six facts, and a rule and a constraint with probability 1/2
// each. The crash matrix starts its scripts from these KBs, and the
// snapshot-file round-trip test in the root package uses them as its
// corpus.
func RandKB(rng *rand.Rand) *kb.KB {
	k := kb.New()
	// A taxonomy edge so member propagation is in play.
	sub := k.Classes.Intern(poolClasses[0])
	super := k.Classes.Intern(poolClasses[1])
	must(k.DeclareSubclass(sub, super))
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		f := RandFact(rng)
		k.InternFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.W)
	}
	if rng.Intn(2) == 0 {
		c, err := k.ParseRule("1.10 live_in(x:Person, y:Place) :- born_in(x:Person, y:Place)")
		must(err)
		must(k.AddRule(c))
	}
	if rng.Intn(2) == 0 {
		if rel, ok := k.RelDict.Lookup("born_in"); ok {
			must(k.AddConstraint(kb.Constraint{Rel: rel, Type: kb.TypeI, Degree: 1}))
		}
	}
	return k
}

// must panics on an error only a bug can cause: RandKB's inputs are
// fixed literals that always parse and validate.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
