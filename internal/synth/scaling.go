package synth

import (
	"fmt"
	"math/rand"

	"probkb/internal/kb"
	"probkb/internal/mln"
)

// ReVerbSherlock generates the default-configuration corpus at the given
// scale (see Options); it is the dataset behind Table 2, Table 3, and
// Figure 7.
func ReVerbSherlock(scale float64, seed int64) (*Corpus, error) {
	opts := DefaultOptions()
	opts.Scale = scale
	opts.Seed = seed
	return Generate(opts)
}

// S1 derives the Figure 6(a) family: the corpus's facts with the rule
// set grown (or shrunk) to nRules. Extra rules are built the way the
// paper describes — "substituting random heads for existing rules" — so
// every synthetic rule remains structurally valid and type-consistent.
func S1(c *Corpus, nRules int, seed int64) (*kb.KB, error) {
	base := c.KB
	out := base.Clone()
	if nRules <= len(base.Rules) {
		out.Rules = out.Rules[:nRules]
		return out, nil
	}
	rng := rand.New(rand.NewSource(seed))

	// Head candidates per (C1, C2) signature, from the relations the KB
	// already knows.
	type sig struct{ c1, c2 int32 }
	heads := make(map[sig][]int32)
	for _, r := range base.Relations {
		heads[sig{r.Domain, r.Range}] = append(heads[sig{r.Domain, r.Range}], r.ID)
	}

	need := nRules - len(base.Rules)
	attempts := 0
	for added := 0; added < need; {
		attempts++
		if attempts > need*100 {
			return nil, fmt.Errorf("synth: S1 could not grow rule set to %d", nRules)
		}
		tpl := base.Rules[rng.Intn(len(base.Rules))]
		s := sig{tpl.Class[mln.X], tpl.Class[mln.Y]}
		cands := heads[s]
		if len(cands) == 0 {
			continue
		}
		nc := tpl
		nc.Head.Rel = cands[rng.Intn(len(cands))]
		nc.Weight = 0.2 + rng.Float64()*1.6
		if err := out.AddRule(nc); err != nil {
			return nil, err
		}
		added++
	}
	return out, nil
}

// S2 derives the Figure 6(b) family: the corpus's rules with the fact
// set grown to nFacts by adding random edges over the existing entities
// and relations, as in the paper.
func S2(c *Corpus, nFacts int, seed int64) (*kb.KB, error) {
	base := c.KB
	out := base.Clone()
	if nFacts <= base.NumFacts() {
		return nil, fmt.Errorf("synth: S2 target %d below base fact count %d", nFacts, base.NumFacts())
	}
	rng := rand.New(rand.NewSource(seed))

	// Entity pools per class, from the observed membership pairs.
	pool := make(map[int32][]int32)
	for _, m := range base.Members {
		pool[m.Class] = append(pool[m.Class], m.Entity)
	}
	sigs := base.Relations

	need := nFacts - base.NumFacts()
	attempts := 0
	for added := 0; added < need; {
		attempts++
		if attempts > need*50 {
			return nil, fmt.Errorf("synth: S2 could not grow fact set to %d", nFacts)
		}
		r := sigs[rng.Intn(len(sigs))]
		domPool, rngPool := pool[r.Domain], pool[r.Range]
		if len(domPool) == 0 || len(rngPool) == 0 {
			continue
		}
		f := kb.Fact{
			Rel: r.ID,
			X:   domPool[rng.Intn(len(domPool))], XClass: r.Domain,
			Y: rngPool[rng.Intn(len(rngPool))], YClass: r.Range,
			W: 0.5 + rng.Float64()*0.5,
		}
		if _, fresh := out.AddFact(f); fresh {
			added++
		}
	}
	out.SealFacts()
	return out, nil
}
