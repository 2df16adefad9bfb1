package synth

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// ruleClasses derives the (C1, C2, C3) class names of a rule spec from
// its relations' signatures.
func (g *generator) ruleClasses(spec ruleSpec) (c1, c2, c3 string) {
	head := g.relations[spec.headRel]
	c1, c2 = head.dom, head.rng
	b0 := g.relations[spec.bodyRel[0]]
	switch spec.shape {
	case mln.P3, mln.P5: // q(z, x): z is b0's domain
		c3 = b0.dom
	case mln.P4, mln.P6: // q(x, z): z is b0's range
		c3 = b0.rng
	}
	return
}

// clauseFor interns a rule spec into the given KB's dictionaries.
func (g *generator) clauseFor(k *kb.KB, spec ruleSpec) (mln.Clause, error) {
	c1, c2, c3 := g.ruleClasses(spec)
	intern := func(ri int) int32 {
		r := g.relations[ri]
		return k.AddRelation(r.name, k.Classes.Intern(r.dom), k.Classes.Intern(r.rng))
	}
	head := mln.RawAtom{Rel: intern(spec.headRel), Arg1: 0, Arg2: 1}
	classes := map[int]int32{0: k.Classes.Intern(c1), 1: k.Classes.Intern(c2)}
	var body []mln.RawAtom
	b0 := intern(spec.bodyRel[0])
	switch spec.shape {
	case mln.P1:
		body = []mln.RawAtom{{Rel: b0, Arg1: 0, Arg2: 1}}
	case mln.P2:
		body = []mln.RawAtom{{Rel: b0, Arg1: 1, Arg2: 0}}
	default:
		classes[2] = k.Classes.Intern(c3)
		b1 := intern(spec.bodyRel[1])
		switch spec.shape {
		case mln.P3:
			body = []mln.RawAtom{{Rel: b0, Arg1: 2, Arg2: 0}, {Rel: b1, Arg1: 2, Arg2: 1}}
		case mln.P4:
			body = []mln.RawAtom{{Rel: b0, Arg1: 0, Arg2: 2}, {Rel: b1, Arg1: 2, Arg2: 1}}
		case mln.P5:
			body = []mln.RawAtom{{Rel: b0, Arg1: 2, Arg2: 0}, {Rel: b1, Arg1: 1, Arg2: 2}}
		case mln.P6:
			body = []mln.RawAtom{{Rel: b0, Arg1: 0, Arg2: 2}, {Rel: b1, Arg1: 1, Arg2: 2}}
		}
	}
	return mln.Canonicalize(head, body, classes, spec.weight)
}

// closeWorld computes the hidden truth: the closure of the seed facts
// under the *sound* rules, using the repo's own batch grounder over a KB
// keyed by true entity IDs. The level stratification guarantees the
// closure converges within Levels iterations.
func (g *generator) closeWorld(seeds []trueFact) error {
	tk := kb.New()
	for _, s := range seeds {
		r := g.relations[s.rel]
		tk.InternFact(r.name,
			"T"+strconv.Itoa(int(s.x)), r.dom,
			"T"+strconv.Itoa(int(s.y)), r.rng,
			1.0)
	}
	for _, spec := range g.soundRules {
		c, err := g.clauseFor(tk, spec)
		if err != nil {
			return fmt.Errorf("synth: sound rule: %w", err)
		}
		if err := tk.AddRule(c); err != nil {
			return err
		}
	}
	res, err := ground.Ground(tk, ground.Options{SkipFactors: true, MaxIterations: g.opts.Levels + 1})
	if err != nil {
		return fmt.Errorf("synth: closing world: %w", err)
	}
	// Read the closure back into the true-ID world set.
	for r := 0; r < res.Facts.NumRows(); r++ {
		f := kb.FactAtRow(res.Facts, r)
		relName := tk.RelDict.Name(f.Rel)
		ri, ok := g.relIndex[relName]
		if !ok {
			return fmt.Errorf("synth: closure produced unknown relation %q", relName)
		}
		x := mustTrueID(tk.Entities.Name(f.X))
		y := mustTrueID(tk.Entities.Name(f.Y))
		g.world[trueKey{ri, x, y}] = true
	}
	return nil
}

func mustTrueID(sym string) int32 {
	if !strings.HasPrefix(sym, "T") {
		panic("synth: true-world entity symbol " + sym + " lacks T prefix")
	}
	n, err := strconv.Atoi(sym[1:])
	if err != nil {
		panic(err)
	}
	return int32(n)
}

// emit renders the hidden world into the observed symbolic KB and builds
// the oracle.
func (g *generator) emit() (*Corpus, error) {
	obs := kb.New()
	o := &Oracle{
		world:        g.world,
		relIdxByName: g.relIndex,
		entsOfSym:    make(map[int32][]int32),
		plantedFalse: make(map[kb.Key]bool),
		ambiguous:    make(map[int32]bool),
		synonymous:   make(map[int32]bool),
		containerOf:  make(map[int32]int32),
		kb:           obs,
	}

	// Declare the class taxonomy so the observed KB's TC closes over
	// superclasses (Remark 1).
	for sub, super := range superClass {
		if err := obs.DeclareSubclass(obs.Classes.Intern(sub), obs.Classes.Intern(super)); err != nil {
			return nil, err
		}
	}

	// Surface-name interning: register every entity's symbols up front so
	// the oracle maps are complete even for entities no fact mentions.
	symID := func(name string) int32 { return obs.Entities.Intern(name) }
	for _, e := range g.entities {
		for _, s := range e.syms {
			id := symID(s)
			o.entsOfSym[id] = append(o.entsOfSym[id], e.id)
		}
		if len(e.syms) > 1 {
			for _, s := range e.syms {
				o.synonymous[symID(s)] = true
			}
		}
		if e.container >= 0 {
			o.containerOf[e.id] = e.container
		}
	}
	for id, ents := range o.entsOfSym {
		if len(ents) > 1 {
			o.ambiguous[id] = true
		}
	}
	o.trueEnts = g.entities

	// Rules: interleave sound and wrong deterministically, recording the
	// partition.
	corpus := &Corpus{KB: obs, Oracle: o}
	type tagged struct {
		spec  ruleSpec
		wrong bool
	}
	all := make([]tagged, 0, len(g.soundRules)+len(g.wrongRules))
	for _, s := range g.soundRules {
		all = append(all, tagged{s, false})
	}
	for _, s := range g.wrongRules {
		all = append(all, tagged{s, true})
	}
	g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, t := range all {
		c, err := g.clauseFor(obs, t.spec)
		if err != nil {
			return nil, err
		}
		if err := obs.AddRule(c); err != nil {
			return nil, err
		}
		idx := len(obs.Rules) - 1
		if t.wrong {
			corpus.WrongRules = append(corpus.WrongRules, idx)
			o.wrongRule = append(o.wrongRule, true)
		} else {
			corpus.SoundRules = append(corpus.SoundRules, idx)
			o.wrongRule = append(o.wrongRule, false)
		}
	}

	// Constraints (the Leibniz stand-in): one Type I constraint per
	// functional relation.
	for _, r := range g.relations {
		if r.funcDeg == 0 {
			continue
		}
		rel := obs.AddRelation(r.name, obs.Classes.Intern(r.dom), obs.Classes.Intern(r.rng))
		if err := obs.AddConstraint(kb.Constraint{Rel: rel, Type: kb.TypeI, Degree: r.funcDeg}); err != nil {
			return nil, err
		}
	}

	// Observed facts: sample the world through surface names.
	pickSym := func(e int32) string {
		syms := g.entities[e].syms
		return syms[g.rng.Intn(len(syms))]
	}
	emitFact := func(ri int, xSym, ySym string) {
		r := g.relations[ri]
		w := 0.5 + g.rng.Float64()*0.5
		obs.InternFact(r.name, xSym, r.dom, ySym, r.rng, w)
	}
	observed := 0
	for _, key := range g.sortedWorldKeys() {
		r := g.relations[key.rel]
		rate := g.opts.ObservedDerived
		if r.level == 0 {
			rate = g.opts.ObservedBase
		}
		if g.rng.Float64() >= rate {
			continue
		}
		xSym, ySym := pickSym(key.x), pickSym(key.y)
		emitFact(key.rel, xSym, ySym)
		observed++

		// Synonym plant in action: an extractor meets the same fact on
		// different pages under different object names; under a
		// functional relation the two renderings violate the constraint
		// even though both are true.
		if syms := g.entities[key.y].syms; len(syms) > 1 && g.rng.Float64() < 0.5 {
			for _, s := range syms {
				if s != ySym {
					emitFact(key.rel, xSym, s)
					break
				}
			}
		}

		// General-type plant: also state the fact at country granularity;
		// it is *true* (containment), so it joins the world, but it
		// violates the relation's functional constraint.
		if r.geo && g.rng.Float64() < g.opts.GeneralTypeRate {
			if country, ok := o.containerOf[key.y]; ok {
				g.world[trueKey{key.rel, key.x, country}] = true
				emitFact(key.rel, xSym, pickSym(country))
			}
		}
	}

	// E1 extraction errors: fabricated facts, recorded as planted-false
	// unless fabrication accidentally lands on a truth. Half of the
	// fabrications follow the pattern the paper's Figure 5(b) shows —
	// a bogus second partner for a subject that already has one under a
	// functional relation (capital_of(Calcutta, India)-style errors) —
	// which is what makes extraction errors visible to the constraint
	// checker at all.
	funcSubjects := g.functionalSubjects()
	nErr := int(float64(observed) * g.opts.ExtractionErrorRate)
	for i := 0; i < nErr; i++ {
		var (
			ri   int
			x, y int32
		)
		if len(funcSubjects) > 0 && g.rng.Intn(6) == 0 {
			fs := funcSubjects[g.rng.Intn(len(funcSubjects))]
			ri, x = fs.rel, fs.subj
			rngPool := g.pool[g.relations[ri].rng]
			if len(rngPool) == 0 {
				continue
			}
			y = rngPool[g.rng.Intn(len(rngPool))]
		} else {
			ri = g.rng.Intn(len(g.relations))
			r := g.relations[ri]
			domPool, rngPool := g.pool[r.dom], g.pool[r.rng]
			if len(domPool) == 0 || len(rngPool) == 0 {
				continue
			}
			x = domPool[g.rng.Intn(len(domPool))]
			y = rngPool[g.rng.Intn(len(rngPool))]
		}
		r := g.relations[ri]
		xSym, ySym := pickSym(x), pickSym(y)
		emitFact(ri, xSym, ySym)
		symKey := kb.Key{
			Rel: obs.RelDict.Intern(r.name),
			X:   obs.Entities.Intern(xSym), XClass: obs.Classes.Intern(r.dom),
			Y: obs.Entities.Intern(ySym), YClass: obs.Classes.Intern(r.rng),
		}
		if !o.Judge(symKey) {
			o.plantedFalse[symKey] = true
		}
	}

	corpus.TrueWorldSize = len(g.world)
	obs.SealFacts()
	// Sanity: weights must be finite (hard rules live in constraints).
	for _, c := range obs.Rules {
		if math.IsInf(c.Weight, 0) {
			return nil, fmt.Errorf("synth: generated an infinite-weight rule")
		}
	}
	return corpus, nil
}
