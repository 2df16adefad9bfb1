package kb

import (
	"fmt"
	"math"
)

// Validate checks the KB's internal consistency and returns every
// problem found (nil means clean). It verifies the invariants
// Definition 1 implies:
//
//   - every fact's (relation, classes) signature is registered in R;
//   - every fact's arguments are members of their declared classes;
//   - every rule partitions into one of the six Horn shapes and
//     references interned relations and classes;
//   - every constraint references an interned relation with a valid type
//     and degree;
//   - observed fact weights are finite (NaN marks inferred facts and
//     must not appear in a base KB).
func (k *KB) Validate() []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	for i := range k.NumFacts() {
		f := k.FactAt(i)
		sig := Relation{ID: f.Rel, Name: k.RelDict.Name(f.Rel), Domain: f.XClass, Range: f.YClass}
		if _, ok := k.relSigs[sig]; !ok {
			report("fact %d (%s): signature %s(%s, %s) not registered in R",
				i, k.FactString(f), sig.Name, k.Classes.Name(f.XClass), k.Classes.Name(f.YClass))
		}
		if _, ok := k.memberSet[ClassMember{Class: f.XClass, Entity: f.X}]; !ok {
			report("fact %d (%s): subject not a member of %s", i, k.FactString(f), k.Classes.Name(f.XClass))
		}
		if _, ok := k.memberSet[ClassMember{Class: f.YClass, Entity: f.Y}]; !ok {
			report("fact %d (%s): object not a member of %s", i, k.FactString(f), k.Classes.Name(f.YClass))
		}
		if math.IsNaN(f.W) {
			report("fact %d (%s): base fact has NULL weight", i, k.FactString(f))
		}
		if math.IsInf(f.W, 0) {
			report("fact %d (%s): base fact has infinite weight", i, k.FactString(f))
		}
	}

	nRel := int32(k.RelDict.Len())
	nCls := int32(k.Classes.Len())
	for i, c := range k.Rules {
		if _, err := c.Partition(); err != nil {
			report("rule %d: %v", i, err)
			continue
		}
		atoms := append([]int32{c.Head.Rel}, c.Body[0].Rel)
		if len(c.Body) == 2 {
			atoms = append(atoms, c.Body[1].Rel)
		}
		for _, r := range atoms {
			if r < 0 || r >= nRel {
				report("rule %d: relation id %d not interned", i, r)
			}
		}
		for v, cls := range c.Class {
			if v == 2 && len(c.Body) == 1 {
				continue
			}
			if cls < 0 || cls >= nCls {
				report("rule %d: class id %d not interned", i, cls)
			}
		}
		if math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
			report("rule %d: weight %v is not a finite number", i, c.Weight)
		}
	}

	for i, c := range k.Constraints {
		if c.Rel < 0 || c.Rel >= nRel {
			report("constraint %d: relation id %d not interned", i, c.Rel)
		}
		if c.Type != TypeI && c.Type != TypeII {
			report("constraint %d: bad type %d", i, c.Type)
		}
		if c.Degree < 1 {
			report("constraint %d: bad degree %d", i, c.Degree)
		}
	}
	return errs
}
