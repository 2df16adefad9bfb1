package kb

import "probkb/internal/mln"

// Fork returns a copy-on-write snapshot of the KB — the mutation
// barrier the MVCC serving tier builds generations on. The fork is O(1):
// both sides share every slice backing array and index map until one of
// them mutates, at which point the mutating side copies privately
// (materialize) and the other side keeps the frozen state untouched.
//
// Concurrency contract: reads on either side are safe concurrently with
// reads and with the *other* side's mutations (a mutator never writes
// into shared memory — that is the whole point); mutations on one KB
// remain single-writer, exactly as for an unforked KB. This is what
// lets epoch-pinned readers serve generation N lock-free while
// ExtendWith, quality repair, or a re-expansion builds generation N+1
// on a fork.
//
// Clone remains the eager deep copy for callers that want to bypass the
// COW machinery and scribble on exported fields directly (the quality
// experiments do); Fork is for the serving path, where forks are
// frequent and mutations are sparse.
//
// Fork writes nothing a concurrent reader of the receiver could
// observe: the child gets capacity-capped copies of the slice HEADERS
// (so its appends reallocate away from the shared backing arrays), the
// maps are shared by reference, and the receiver itself only has its
// shared flag set — a field no read path consults, set atomically so
// that sibling forks of one generation may be taken at once. That is what makes
// forking a *published, pinned* generation legal while readers scan it.
func (k *KB) Fork() *KB {
	k.shared.Store(true)
	child := &KB{
		Entities: k.Entities.Fork(),
		Classes:  k.Classes.Fork(),
		RelDict:  k.RelDict.Fork(),

		Relations:   capped(k.Relations),
		Members:     capped(k.Members),
		Facts:       capped(k.Facts),
		Rules:       capped(k.Rules),
		Constraints: capped(k.Constraints),

		superOf:   k.superOf,
		memberSet: k.memberSet,
		factIx:    k.factIx,
		relSigs:   k.relSigs,
	}
	child.shared.Store(true)
	// The child starts in the parent's state, so the parent's relational
	// image (if it has one) describes the child too, until the child's
	// first mutation drops it.
	child.img.Store(k.img.Load())
	return child
}

// capped returns a full-slice view with capacity capped at length, so
// appending through it reallocates instead of writing into the shared
// backing array.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// materialize is the write barrier every mutating method passes
// through: when this KB's state is shared with a fork, copy the slices
// and maps privately first. In-place element writes (SetWeight's
// Facts[i].W, AddFact's max-merge) and slice rewrites (ReplaceFacts,
// DeleteFacts) would otherwise corrupt the frozen generation readers
// are pinned to. After the copy the KB is private again and further
// mutations are direct.
//
// Being the place every mutation but KeepFacts passes (which copies
// less and drops the image itself), it is also where what was
// derived from the previous state — the relational image — stops
// describing this KB, shared or not, and is let go. (Only this KB's
// pointer: the other side of a fork keeps the image, which still
// describes it.)
func (k *KB) materialize() {
	k.dropImage()
	if !k.shared.Load() {
		return
	}
	k.Facts = append([]Fact(nil), k.Facts...)
	k.Relations = append([]Relation(nil), k.Relations...)
	k.Members = append([]ClassMember(nil), k.Members...)
	k.Rules = append([]mln.Clause(nil), k.Rules...)
	k.Constraints = append([]Constraint(nil), k.Constraints...)

	superOf := make(map[int32][]int32, len(k.superOf))
	for c, supers := range k.superOf {
		// Value slices are capacity-capped, not copied: DeclareSubclass
		// appends to them, and a capped append reallocates privately.
		superOf[c] = supers[:len(supers):len(supers)]
	}
	k.superOf = superOf

	memberSet := make(map[ClassMember]struct{}, len(k.memberSet))
	for m := range k.memberSet {
		memberSet[m] = struct{}{}
	}
	k.memberSet = memberSet

	k.factIx = append(factIndex(nil), k.factIx...)

	relSigs := make(map[Relation]struct{}, len(k.relSigs))
	for s := range k.relSigs {
		relSigs[s] = struct{}{}
	}
	k.relSigs = relSigs

	k.shared.Store(false)
}

// dropImage lets go of the relational image once it stops describing
// this KB.
func (k *KB) dropImage() {
	if k.img.Load() != nil {
		k.img.Store(nil)
	}
}
