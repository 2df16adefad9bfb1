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
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"probkb/internal/engine"
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
	// Rules is H, the deductive MLN.
	Rules []mln.Clause
	// Constraints is Ω.
	Constraints []Constraint

	// superOf[c] lists c's direct superclasses (Remark 1 of Definition 1:
	// Ci ⊆ Cj defines a class hierarchy; membership propagates upward).
	superOf map[int32][]int32

	memberSet map[ClassMember]struct{}
	relSigs   map[Relation]struct{}

	// facts is Π as the facts table TΠ (FactsSchema): row r holds base
	// fact r, whose ID I is r. factSet is its identity set on FactKeyCols,
	// which deduplicates it. Both protect what a Fork shares with their
	// own barriers (engine.Table.Fork, engine.RowSet.Fork).
	facts   *engine.Table
	factSet *engine.RowSet

	// shared marks this KB's slices and maps as visible to a Fork; the
	// next mutation copies them privately first (see materialize).
	shared atomic.Bool

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
	facts := engine.NewTable("T", FactsSchema())
	return &KB{
		Entities:  NewDict(),
		Classes:   NewDict(),
		RelDict:   NewDict(),
		superOf:   make(map[int32][]int32),
		memberSet: make(map[ClassMember]struct{}),
		relSigs:   make(map[Relation]struct{}),
		facts:     facts,
		factSet:   engine.NewRowSet(facts, FactKeyCols),
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
	k.dropImage()
	if i := k.factSet.FindKey(f.Rel, f.X, f.XClass, f.Y, f.YClass); i >= 0 {
		if f.W > k.facts.Float64Col(TPiW)[i] {
			k.facts.Writable(i)
			k.facts.Float64Col(TPiW)[i] = f.W
		}
		return i, false
	}
	i := k.facts.NumRows()
	k.facts.AppendRowOf([]int32{int32(i), f.Rel, f.X, f.XClass, f.Y, f.YClass}, []float64{f.W})
	k.factSet.NoteAppended()
	k.AddMember(f.XClass, f.X)
	k.AddMember(f.YClass, f.Y)
	return i, true
}

// SealFacts indexes Π afresh as one sealed base, which keeps no hashes:
// the facts AddFact appended since the last seal cost 8 bytes each more
// than a sealed fact. A loader that adds its facts one at a time calls
// it once it is done.
func (k *KB) SealFacts() { k.factSet = engine.NewRowSet(k.facts, FactKeyCols) }

// NumFacts returns |Π|.
func (k *KB) NumFacts() int { return k.facts.NumRows() }

// FactAt returns fact i of Π, the one TΠ holds at row i.
func (k *KB) FactAt(i int) Fact { return FactAtRow(k.facts, i) }

// HasFact reports whether the key is present.
func (k *KB) HasFact(key Key) bool {
	_, ok := k.FactIndex(key)
	return ok
}

// FactIndex returns the position in Π of the fact with the given key.
func (k *KB) FactIndex(key Key) (int, bool) {
	i := k.factSet.FindKey(key.Rel, key.X, key.XClass, key.Y, key.YClass)
	return i, i >= 0
}

// SetWeight assigns the weight of the fact with the given key and
// reports whether the fact exists. Assignment (not max-merge) makes it
// idempotent — the storage engine replays marginal updates through it,
// and a duplicated WAL tail must not change the outcome.
func (k *KB) SetWeight(key Key, w float64) bool {
	i, ok := k.FactIndex(key)
	if !ok {
		return false
	}
	k.dropImage()
	k.facts.Writable(i)
	k.facts.Float64Col(TPiW)[i] = w
	return true
}

// DeleteFacts removes the facts whose keys appear in keys, preserving
// the order of the survivors, and returns how many were removed.
// Class memberships are untouched (the paper's Query 3 deletes facts,
// not typings). Deleting absent keys is a no-op, which makes WAL
// replay of deletions idempotent.
func (k *KB) DeleteFacts(keys map[Key]bool) int {
	var rows []int32
	for key, del := range keys {
		if i, ok := k.FactIndex(key); ok && del {
			rows = append(rows, int32(i))
		}
	}
	slices.Sort(rows)
	return k.DeleteFactsWith(func(tpi *engine.Table) int { return tpi.DeleteRows(rows) })
}

// DeleteFactsWith is the one way facts leave Π: del deletes rows of TΠ
// in place with one DeleteRows, as a ground.Options.ConstraintHook does,
// and returns how many it removed. The identity set follows the deletion
// and the survivors' IDs are renumbered to their rows; nothing is hashed
// or copied again, unless a Fork shares what the deletion writes. del
// must not keep the table.
func (k *KB) DeleteFactsWith(del func(tpi *engine.Table) int) int {
	k.dropImage()
	n := del(k.facts)
	if n == 0 {
		return 0
	}
	d := k.facts.LastDeletion()
	k.factSet.FollowDeletion(d.Renumbering())
	ids := k.facts.Int32Col(TPiI) // DeleteRows made the rows past d.Rows[0] private
	for r := int(d.Rows[0]); r < len(ids); r++ {
		ids[r] = int32(r)
	}
	return n
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
		Facts:       k.NumFacts(),
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

// Clone returns a copy of the KB whose exported slices and maps are its
// own: a Fork that has passed its write barrier. Quality-control
// experiments rewrite Rules and Constraints by hand; cloning lets each
// configuration start from the same base. Π stays behind the table's
// barriers, as on any Fork.
func (k *KB) Clone() *KB {
	n := k.Fork()
	n.materialize()
	return n
}
