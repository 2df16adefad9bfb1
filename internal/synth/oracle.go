package synth

import (
	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/quality"
)

// Oracle knows the planted truth behind a generated corpus and replaces
// the human judges of Section 6.2: it can Judge any symbolic fact,
// measure the precision of an expansion, and Categorize constraint
// violations into the Figure 7(b) taxonomy.
type Oracle struct {
	world        map[trueKey]bool
	relIdxByName map[string]int
	trueEnts     []trueEntity

	// entsOfSym maps an observed entity symbol to the true entities it
	// denotes (more than one for planted ambiguities).
	entsOfSym map[int32][]int32
	// plantedFalse records the E1 fabrication keys.
	plantedFalse map[kb.Key]bool
	// ambiguous / synonymous flag symbol IDs.
	ambiguous  map[int32]bool
	synonymous map[int32]bool
	// containerOf maps a true city to its true country.
	containerOf map[int32]int32
	// wrongRule[i] reports whether KB.Rules[i] is unsound.
	wrongRule []bool

	kb *kb.KB
}

// relIdx resolves an observed relation ID to the generator's relation
// index, or -1.
func (o *Oracle) relIdx(rel int32) int {
	name := o.kb.RelDict.Name(rel)
	if i, ok := o.relIdxByName[name]; ok {
		return i
	}
	return -1
}

// Judge reports whether a symbolic fact is true: some combination of the
// underlying entities its symbols denote must be a world fact. A fact
// inferred by joining through an ambiguous name is false exactly when no
// single denotation supports it — the paper's E3/E4 failure mode.
func (o *Oracle) Judge(key kb.Key) bool {
	ri := o.relIdx(key.Rel)
	if ri < 0 {
		return false
	}
	for _, ex := range o.entsOfSym[key.X] {
		for _, ey := range o.entsOfSym[key.Y] {
			if o.world[trueKey{ri, ex, ey}] {
				return true
			}
		}
	}
	return false
}

// EvalInferred judges every inferred fact (ID at or above firstDerived) in a
// grounding result table and returns (correct, total).
func (o *Oracle) EvalInferred(facts *engine.Table, firstDerived int) (correct, total int) {
	ids := facts.Int32Col(kb.TPiI)
	for r := 0; r < facts.NumRows(); r++ {
		if int(ids[r]) < firstDerived {
			continue
		}
		total++
		if o.Judge(kb.FactAtRow(facts, r).Key()) {
			correct++
		}
	}
	return correct, total
}

// Precision returns correct/total for the inferred facts, or 0 when none
// exist.
func (o *Oracle) Precision(facts *engine.Table, firstDerived int) float64 {
	c, t := o.EvalInferred(facts, firstDerived)
	if t == 0 {
		return 0
	}
	return float64(c) / float64(t)
}

// Ambiguous reports whether a symbol was planted as ambiguous.
func (o *Oracle) Ambiguous(sym int32) bool { return o.ambiguous[sym] }

// Categorize assigns a constraint violation to its Figure 7(b) error
// source by inspecting the violating facts in tpi against the planted
// truth. firstDerived separates observed from inferred fact IDs.
func (o *Oracle) Categorize(v quality.Violation, tpi *engine.Table, firstDerived int) quality.ErrorSource {
	// 1. The violating symbol itself covers several true entities.
	if o.ambiguous[v.Entity] {
		return quality.SrcAmbiguousEntity
	}

	// Collect the violating group's facts: same relation, entity in the
	// constrained position.
	entCol, otherCol := kb.TPiX, kb.TPiY
	if v.Type == kb.TypeII {
		entCol, otherCol = kb.TPiY, kb.TPiX
	}
	type vf struct {
		key      kb.Key
		other    int32
		inferred bool
	}
	var group []vf
	ids := tpi.Int32Col(kb.TPiI)
	for r := 0; r < tpi.NumRows(); r++ {
		if tpi.Int32Col(kb.TPiR)[r] != v.Rel || tpi.Int32Col(entCol)[r] != v.Entity {
			continue
		}
		group = append(group, vf{
			key:      kb.FactAtRow(tpi, r).Key(),
			other:    tpi.Int32Col(otherCol)[r],
			inferred: int(ids[r]) >= firstDerived,
		})
	}

	// 2. General types: two partners that are a (city, container-country)
	// pair — both facts true at different granularity.
	for i := range group {
		for j := range group {
			if i == j {
				continue
			}
			for _, e1 := range o.entsOfSym[group[i].other] {
				for _, e2 := range o.entsOfSym[group[j].other] {
					if o.containerOf[e1] == e2 {
						return quality.SrcGeneralType
					}
				}
			}
		}
	}

	// 3. Synonyms: two partner symbols denoting the same true entity.
	for i := range group {
		for j := i + 1; j < len(group); j++ {
			for _, e1 := range o.entsOfSym[group[i].other] {
				for _, e2 := range o.entsOfSym[group[j].other] {
					if e1 == e2 {
						return quality.SrcSynonym
					}
				}
			}
		}
	}

	// 4. A planted extraction error in the group.
	for _, f := range group {
		if o.plantedFalse[f.key] {
			return quality.SrcIncorrectExtraction
		}
	}

	// 5. Inferred members of the group: attribute to a wrong rule or an
	// ambiguous join key if a one-step derivation from the current facts
	// explains them.
	idx := newDerivationIndex(tpi)
	sawInferred := false
	for _, f := range group {
		if !f.inferred || o.Judge(f.key) {
			continue
		}
		sawInferred = true
		if o.derivedByWrongRule(idx, f.key) {
			return quality.SrcIncorrectRule
		}
	}
	if sawInferred {
		for _, f := range group {
			if f.inferred && !o.Judge(f.key) && o.derivedViaAmbiguousJoin(idx, f.key) {
				return quality.SrcAmbiguousJoinKey
			}
		}
		return quality.SrcPropagated
	}
	return quality.SrcIncorrectExtraction
}

// CategorizeAll tallies a violation list into a Breakdown (Figure 7(b)).
func (o *Oracle) CategorizeAll(viol []quality.Violation, tpi *engine.Table, firstDerived int) quality.Breakdown {
	var b quality.Breakdown
	for _, v := range viol {
		b[o.Categorize(v, tpi, firstDerived)]++
	}
	return b
}

// derivationIndex indexes a facts table for one-step derivation checks.
type derivationIndex struct {
	bySig map[[3]int32][]pairI32 // (rel, c1, c2) → (x, y) pairs
}

type pairI32 struct{ x, y int32 }

func newDerivationIndex(tpi *engine.Table) *derivationIndex {
	ix := &derivationIndex{bySig: make(map[[3]int32][]pairI32)}
	for r := 0; r < tpi.NumRows(); r++ {
		sig := [3]int32{
			tpi.Int32Col(kb.TPiR)[r],
			tpi.Int32Col(kb.TPiC1)[r],
			tpi.Int32Col(kb.TPiC2)[r],
		}
		ix.bySig[sig] = append(ix.bySig[sig], pairI32{tpi.Int32Col(kb.TPiX)[r], tpi.Int32Col(kb.TPiY)[r]})
	}
	return ix
}

// derivations enumerates the variable bindings under which rule c derives
// the fact key from the indexed table, calling visit with the binding;
// visit returns false to stop.
func (o *Oracle) derivations(ix *derivationIndex, c *mln.Clause, key kb.Key, visit func(z int32, hasZ bool) bool) {
	if c.Head.Rel != key.Rel || c.Class[mln.X] != key.XClass || c.Class[mln.Y] != key.YClass {
		return
	}
	val := map[mln.Var]int32{mln.X: key.X, mln.Y: key.Y}
	b0 := c.Body[0]
	if len(c.Body) == 1 {
		sig := [3]int32{b0.Rel, c.Class[b0.Arg1], c.Class[b0.Arg2]}
		for _, p := range ix.bySig[sig] {
			if p.x == val[b0.Arg1] && p.y == val[b0.Arg2] {
				visit(0, false)
				return
			}
		}
		return
	}
	b1 := c.Body[1]
	sig0 := [3]int32{b0.Rel, c.Class[b0.Arg1], c.Class[b0.Arg2]}
	sig1 := [3]int32{b1.Rel, c.Class[b1.Arg1], c.Class[b1.Arg2]}
	zOf := func(a mln.Atom, p pairI32) int32 {
		if a.Arg1 == mln.Z {
			return p.x
		}
		return p.y
	}
	headValOf := func(a mln.Atom, p pairI32) (mln.Var, int32) {
		if a.Arg1 == mln.Z {
			return a.Arg2, p.y
		}
		return a.Arg1, p.x
	}
	for _, p0 := range ix.bySig[sig0] {
		hv, hval := headValOf(b0, p0)
		if val[hv] != hval {
			continue
		}
		z := zOf(b0, p0)
		for _, p1 := range ix.bySig[sig1] {
			hv1, hval1 := headValOf(b1, p1)
			if val[hv1] != hval1 || zOf(b1, p1) != z {
				continue
			}
			if !visit(z, true) {
				return
			}
		}
	}
}

// derivedByWrongRule reports whether any planted-wrong rule derives key
// in one step from the current facts.
func (o *Oracle) derivedByWrongRule(ix *derivationIndex, key kb.Key) bool {
	for i := range o.kb.Rules {
		if !o.wrongRule[i] {
			continue
		}
		found := false
		o.derivations(ix, &o.kb.Rules[i], key, func(int32, bool) bool {
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// derivedViaAmbiguousJoin reports whether some rule derives key in one
// step joining through an ambiguous symbol as z.
func (o *Oracle) derivedViaAmbiguousJoin(ix *derivationIndex, key kb.Key) bool {
	for i := range o.kb.Rules {
		found := false
		o.derivations(ix, &o.kb.Rules[i], key, func(z int32, hasZ bool) bool {
			if hasZ && o.ambiguous[z] {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
