// Package kb implements the probabilistic knowledge base model of
// Definition 1 in the paper: Γ = (E, C, R, Π, L), with L split into the
// deductive Horn rules H (package mln) and the semantic constraints Ω
// (Section 5.1).
//
// The package owns the string dictionaries, the typed relation catalog,
// the weighted fact set Π, and the serialization format the command-line
// tools exchange. The relational projections of all of these (TΠ, TC, TR,
// and the dictionary tables) live in relational.go.
package kb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"probkb/internal/mln"
)

// Relation describes one typed binary relation R(Domain, Range) ∈ R.
type Relation struct {
	ID     int32
	Name   string
	Domain int32 // class ID
	Range  int32 // class ID
}

// Fact is one weighted relationship (r, w) ∈ Π: Rel(X, Y) with the
// argument classes replicated per Definition 4 (the C1/C2 columns exist
// to avoid joining TC during grounding). A NaN weight marks an inferred
// fact whose probability is pending marginal inference.
type Fact struct {
	Rel    int32
	X      int32
	XClass int32
	Y      int32
	YClass int32
	W      float64
}

// Key identifies a fact up to weight; TΠ holds one row per key.
type Key struct {
	Rel, X, XClass, Y, YClass int32
}

// Key returns the fact's identity key.
func (f Fact) Key() Key {
	return Key{Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass}
}

// Constraint types (Definition 9/10): a Type I functional relation maps
// each x to at most Degree distinct y; Type II is the converse.
const (
	TypeI  = 1
	TypeII = 2
)

// Constraint is one functional (or pseudo-functional) semantic constraint
// ω ∈ Ω over relation Rel. Degree is δ, the degree of functionality; 1
// for strictly functional relations.
type Constraint struct {
	Rel    int32
	Type   int
	Degree int
}

// KB is an in-memory probabilistic knowledge base.
type KB struct {
	Entities *Dict
	Classes  *Dict
	RelDict  *Dict

	// Relations is indexed by relation ID (parallel to RelDict).
	Relations []Relation
	// Members lists the (class, entity) typing pairs that make up TC.
	Members []ClassMember
	// Facts is Π. The slice index of a base fact is its initial fact ID
	// in TΠ.
	Facts []Fact
	// Rules is H, the deductive MLN.
	Rules []mln.Clause
	// Constraints is Ω.
	Constraints []Constraint

	// superOf[c] lists c's direct superclasses (Remark 1 of Definition 1:
	// Ci ⊆ Cj defines a class hierarchy; membership propagates upward).
	superOf map[int32][]int32

	memberSet map[ClassMember]struct{}
	factIx    factIndex // Key → position in Facts
	relSigs   map[Relation]struct{}

	// shared marks this KB's slices and maps as visible to a Fork; the
	// next mutation copies them privately first (see materialize).
	shared bool

	// img is the relational image (see Catalog) built for this KB, or
	// inherited from the KB it was forked from, since its last mutation;
	// the write barrier drops it.
	img atomic.Pointer[image]
}

// ClassMember is one (class, entity) typing pair.
type ClassMember struct {
	Class  int32
	Entity int32
}

// New returns an empty knowledge base.
func New() *KB {
	return &KB{
		Entities:  NewDict(),
		Classes:   NewDict(),
		RelDict:   NewDict(),
		superOf:   make(map[int32][]int32),
		memberSet: make(map[ClassMember]struct{}),
		relSigs:   make(map[Relation]struct{}),
	}
}

// AddRelation interns a relation name and registers the (R, domain,
// range) signature, returning the relation's name ID. One name may carry
// several signatures — the paper's Table 1 has both born_in(W, P) and
// born_in(W, C) — so TR is a *set* of triples, not a function of the
// name.
//
// Re-registering a known signature is a pure read: the write barrier is
// paid only when the signature is new, so a fork that absorbs a batch
// over known relations stays shared with its parent.
func (k *KB) AddRelation(name string, domain, rng int32) int32 {
	id := k.RelDict.Intern(name)
	sig := Relation{ID: id, Name: name, Domain: domain, Range: rng}
	if _, ok := k.relSigs[sig]; !ok {
		k.materialize()
		k.relSigs[sig] = struct{}{}
		k.Relations = append(k.Relations, sig)
	}
	return id
}

// AddMember records entity ∈ class and propagates the membership to every
// (transitive) superclass; duplicates are ignored — and, like a known
// signature in AddRelation, cost no copy on a shared fork.
func (k *KB) AddMember(class, entity int32) {
	m := ClassMember{Class: class, Entity: entity}
	if _, ok := k.memberSet[m]; ok {
		return
	}
	k.materialize()
	k.memberSet[m] = struct{}{}
	k.Members = append(k.Members, m)
	for _, super := range k.superOf[class] {
		k.AddMember(super, entity)
	}
}

// DeclareSubclass records sub ⊆ super, propagating sub's existing members
// into super. Cycles are rejected (a class hierarchy is a DAG).
func (k *KB) DeclareSubclass(sub, super int32) error {
	k.materialize()
	if sub == super {
		return fmt.Errorf("kb: class %s cannot be its own superclass", k.Classes.Name(sub))
	}
	if k.IsSubclass(super, sub) {
		return fmt.Errorf("kb: declaring %s ⊆ %s would create a cycle",
			k.Classes.Name(sub), k.Classes.Name(super))
	}
	for _, s := range k.superOf[sub] {
		if s == super {
			return nil // already declared
		}
	}
	k.superOf[sub] = append(k.superOf[sub], super)
	// Propagate existing members.
	for _, m := range k.MembersOf(sub) {
		k.AddMember(super, m)
	}
	return nil
}

// IsSubclass reports whether sub ⊆ super holds transitively (every class
// is a subclass of itself).
func (k *KB) IsSubclass(sub, super int32) bool {
	if sub == super {
		return true
	}
	for _, s := range k.superOf[sub] {
		if k.IsSubclass(s, super) {
			return true
		}
	}
	return false
}

// SubclassEdge is one declared Sub ⊆ Super relationship.
type SubclassEdge struct {
	Sub, Super int32
}

// SubclassEdges returns every declared subclass edge, sorted for
// deterministic serialization.
func (k *KB) SubclassEdges() []SubclassEdge {
	var out []SubclassEdge
	for sub, supers := range k.superOf {
		for _, super := range supers {
			out = append(out, SubclassEdge{Sub: sub, Super: super})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Sub != out[b].Sub {
			return out[a].Sub < out[b].Sub
		}
		return out[a].Super < out[b].Super
	})
	return out
}

// MembersOf returns the entities recorded as members of class c.
func (k *KB) MembersOf(c int32) []int32 {
	var out []int32
	for _, m := range k.Members {
		if m.Class == c {
			out = append(out, m.Entity)
		}
	}
	return out
}

// AddFact appends a weighted fact, deduplicating on the fact key; it
// returns the fact's index and whether it was newly added. A duplicate
// keeps the maximum weight seen (extractions repeat with varying
// confidence).
func (k *KB) AddFact(f Fact) (int, bool) {
	k.materialize()
	key := f.Key()
	if i, ok := k.factIx.find(k.Facts, key); ok {
		if f.W > k.Facts[i].W {
			k.Facts[i].W = f.W
		}
		return i, false
	}
	i := len(k.Facts)
	k.Facts = append(k.Facts, f)
	if 2*len(k.Facts) > len(k.factIx) {
		k.factIx = newFactIndex(k.Facts, factIndexSlots(len(k.Facts)))
	} else {
		k.factIx.insert(key, i)
	}
	k.AddMember(f.XClass, f.X)
	k.AddMember(f.YClass, f.Y)
	return i, true
}

// ReplaceFacts swaps the fact set Π for a new one, rebuilding the
// deduplication index. Quality control uses it after constraint-driven
// deletions.
func (k *KB) ReplaceFacts(facts []Fact) {
	k.materialize()
	k.Facts = k.Facts[:0]
	k.factIx = make(factIndex, factIndexSlots(len(facts)))
	for _, f := range facts {
		k.AddFact(f)
	}
}

// KeepFacts narrows Π to the facts at the given positions of Facts, in
// ascending order, and rebuilds the deduplication index once. It is the
// quality pre-clean's write: nothing but Facts and their index changes,
// so on a shared fork only those two leave the parent — the survivors go
// to a fresh array, the parent's stays as its readers see it — and the
// other slices and maps stay shared until a mutation that needs them
// passes the write barrier. Private facts are filtered in place.
func (k *KB) KeepFacts(positions []int32) {
	k.dropImage()
	kept := k.Facts[:0]
	if k.shared {
		kept = make([]Fact, 0, len(positions))
	}
	for _, p := range positions {
		kept = append(kept, k.Facts[p])
	}
	k.Facts = kept
	k.factIx = newFactIndex(kept, factIndexSlots(len(kept)))
}

// HasFact reports whether the key is present.
func (k *KB) HasFact(key Key) bool {
	_, ok := k.factIx.find(k.Facts, key)
	return ok
}

// FactIndex returns the position in Facts of the fact with the given key.
func (k *KB) FactIndex(key Key) (int, bool) {
	return k.factIx.find(k.Facts, key)
}

// SetWeight assigns the weight of the fact with the given key and
// reports whether the fact exists. Assignment (not max-merge) makes it
// idempotent — the storage engine replays marginal updates through it,
// and a duplicated WAL tail must not change the outcome.
func (k *KB) SetWeight(key Key, w float64) bool {
	k.materialize()
	i, ok := k.factIx.find(k.Facts, key)
	if !ok {
		return false
	}
	k.Facts[i].W = w
	return true
}

// DeleteFacts removes the facts whose keys appear in keys, preserving
// the order of the survivors, and returns how many were removed.
// Class memberships are untouched (the paper's Query 3 deletes facts,
// not typings). Deleting absent keys is a no-op, which makes WAL
// replay of deletions idempotent.
func (k *KB) DeleteFacts(keys map[Key]bool) int {
	k.materialize()
	if len(keys) == 0 {
		return 0
	}
	kept := make([]Fact, 0, len(k.Facts))
	for _, f := range k.Facts {
		if !keys[f.Key()] {
			kept = append(kept, f)
		}
	}
	deleted := len(k.Facts) - len(kept)
	if deleted > 0 {
		k.Facts = kept
		k.factIx = newFactIndex(kept, factIndexSlots(len(kept)))
	}
	return deleted
}

// AddRule appends a deductive Horn clause to H. Hard rules (infinite
// weight) belong in Constraints, not H; AddRule rejects them.
func (k *KB) AddRule(c mln.Clause) error {
	k.materialize()
	if c.Hard() {
		return fmt.Errorf("kb: hard rules are semantic constraints; use AddConstraint")
	}
	if _, err := c.Partition(); err != nil {
		return err
	}
	k.Rules = append(k.Rules, c)
	return nil
}

// AddConstraint appends a functional constraint to Ω.
func (k *KB) AddConstraint(c Constraint) error {
	k.materialize()
	if c.Type != TypeI && c.Type != TypeII {
		return fmt.Errorf("kb: constraint type must be %d or %d, got %d", TypeI, TypeII, c.Type)
	}
	if c.Degree < 1 {
		return fmt.Errorf("kb: constraint degree must be >= 1, got %d", c.Degree)
	}
	k.Constraints = append(k.Constraints, c)
	return nil
}

// InternFact is the string-level convenience used by loaders and tests:
// it interns all symbols, registers the relation signature and class
// memberships, and adds the fact.
func (k *KB) InternFact(rel, x, xClass, y, yClass string, w float64) (int, bool) {
	cx := k.Classes.Intern(xClass)
	cy := k.Classes.Intern(yClass)
	r := k.AddRelation(rel, cx, cy)
	return k.AddFact(Fact{
		Rel: r,
		X:   k.Entities.Intern(x), XClass: cx,
		Y: k.Entities.Intern(y), YClass: cy,
		W: w,
	})
}

// Stats summarizes the KB the way Table 2 of the paper does.
type Stats struct {
	Relations   int
	Rules       int
	Entities    int
	Facts       int
	Classes     int
	Constraints int
}

// Stats returns the KB's summary statistics.
func (k *KB) Stats() Stats {
	return Stats{
		Relations:   k.RelDict.Len(),
		Rules:       len(k.Rules),
		Entities:    k.Entities.Len(),
		Facts:       len(k.Facts),
		Classes:     k.Classes.Len(),
		Constraints: len(k.Constraints),
	}
}

// String renders the stats as the two-column layout of Table 2.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# relations  %8d    # entities %8d\n", s.Relations, s.Entities)
	fmt.Fprintf(&b, "# rules      %8d    # facts    %8d\n", s.Rules, s.Facts)
	fmt.Fprintf(&b, "# classes    %8d    # constraints %5d\n", s.Classes, s.Constraints)
	return b.String()
}

// FactString renders a fact with symbolic names for debugging and reports.
func (k *KB) FactString(f Fact) string {
	w := "NULL"
	if !math.IsNaN(f.W) {
		w = fmt.Sprintf("%.2f", f.W)
	}
	return fmt.Sprintf("%s %s(%s:%s, %s:%s)", w,
		k.RelDict.Name(f.Rel),
		k.Entities.Name(f.X), k.Classes.Name(f.XClass),
		k.Entities.Name(f.Y), k.Classes.Name(f.YClass))
}

// Clone returns a deep copy of the KB. Quality-control experiments mutate
// fact and rule sets; cloning lets each configuration start from the same
// base.
func (k *KB) Clone() *KB {
	n := New()
	for _, name := range k.Entities.Names() {
		n.Entities.Intern(name)
	}
	for _, name := range k.Classes.Names() {
		n.Classes.Intern(name)
	}
	for _, r := range k.Relations {
		n.AddRelation(r.Name, r.Domain, r.Range)
	}
	for _, e := range k.SubclassEdges() {
		if err := n.DeclareSubclass(e.Sub, e.Super); err != nil {
			panic(err) // the source hierarchy was acyclic; a copy must be too
		}
	}
	for _, m := range k.Members {
		n.AddMember(m.Class, m.Entity)
	}
	for _, f := range k.Facts {
		n.AddFact(f)
	}
	n.Rules = append(n.Rules, k.Rules...)
	n.Constraints = append(n.Constraints, k.Constraints...)
	return n
}
