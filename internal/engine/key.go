package engine

// Composite-key hashing for hash joins, distinct, grouping, and the MPP
// layer's hash distribution. Keys are always tuples of Int32 column values.
// We hash into uint64 and verify real equality on probe, so hash collisions
// cost time but never correctness.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvInt32 folds the 4 bytes of v, low byte first, into the FNV-1a state h.
func fnvInt32(h uint64, v int32) uint64 {
	u := uint32(v)
	h = (h ^ uint64(u&0xff)) * fnvPrime64
	h = (h ^ uint64((u>>8)&0xff)) * fnvPrime64
	h = (h ^ uint64((u>>16)&0xff)) * fnvPrime64
	return (h ^ uint64(u>>24)) * fnvPrime64
}

// hashInt32s combines a tuple of int32 values into a 64-bit hash (FNV-1a
// over the 4 bytes of each value).
func hashInt32s(vals ...int32) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = fnvInt32(h, v)
	}
	return h
}

// HashRow hashes the given Int32 columns of row r. Exported for the MPP
// layer, which uses the same function so that "distributed by (k...)"
// means the same placement everywhere.
func HashRow(t *Table, r int, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = fnvInt32(h, t.cols[c].i32[r])
	}
	return h
}

// rowsEqualOn reports whether row ra of a equals row rb of b on the given
// column lists (element-wise; the lists must have equal length).
func rowsEqualOn(a *Table, ra int, acols []int, b *Table, rb int, bcols []int) bool {
	for i := range acols {
		if a.cols[acols[i]].i32[ra] != b.cols[bcols[i]].i32[rb] {
			return false
		}
	}
	return true
}

// RowSet is a set of rows of one table keyed by a tuple of Int32 columns:
// index row r is table row r. It backs set-union semantics (facts tables
// dedup on (R,x,C1,y,C2)) and SQL's IN sub-selects.
//
// A set is two segments. The base covers the rows the set was built
// over, [0, BaseLen()), and is never written afterwards, so the sets
// forked from it (Fork) share it; it keeps no hashes. The tail indexes
// the rows appended since (NoteAppended) and belongs to this set alone.
type RowSet struct {
	t    *Table
	cols []int
	base sealedIndex
	// tail row i is table row base.len()+i.
	tail *rowIndex
}

// NewRowSet builds a set over the existing rows of t keyed on cols.
func NewRowSet(t *Table, cols []int) *RowSet {
	return &RowSet{t: t, cols: cols, base: sealIndex(hashRows(t, cols, false, "", Opts{}, nil)), tail: newRowIndex(nil)}
}

// Fork returns a set over t keyed as s is, sharing s's base: the first
// BaseLen() rows of t must be those of s's table. Its tail indexes t's
// other rows, unless they pass 1/forkTailFraction of the base, when the
// fork builds a base of its own over all of t (see forkTailFraction).
// Forking writes nothing s holds, so any number of goroutines may fork
// one set, and read it, at once.
func (s *RowSet) Fork(t *Table) *RowSet {
	n := s.base.len()
	if t.NumRows() < n {
		panic("engine: RowSet.Fork onto a table shorter than the base")
	}
	if t.NumRows()-n > n/forkTailFraction {
		return NewRowSet(t, s.cols)
	}
	hs := make([]uint64, t.NumRows()-n)
	hashRange(hs, t, s.cols, n)
	return &RowSet{t: t, cols: s.cols, base: s.base, tail: newRowIndex(hs)}
}

// Contains reports whether a row with the same key as row r of table o
// (keyed on ocols) is already present.
func (s *RowSet) Contains(o *Table, r int, ocols []int) bool { return s.Find(o, r, ocols) >= 0 }

// Find returns the set's row with the same key as row r of table o
// (keyed on ocols), or -1 when there is none.
func (s *RowSet) Find(o *Table, r int, ocols []int) int {
	h := HashRow(o, r, ocols)
	for c := s.base.first(h); c >= 0; c = s.base.next[c] {
		if rowsEqualOn(s.t, int(c), s.cols, o, r, ocols) {
			return int(c)
		}
	}
	n := s.base.len()
	for c := s.tail.first(h); c >= 0; c = s.tail.after(h, c) {
		if rowsEqualOn(s.t, n+int(c), s.cols, o, r, ocols) {
			return n + int(c)
		}
	}
	return -1
}

// ContainsKey is Contains for a key given by value, one value per key
// column, for callers whose key is not a row of any table.
func (s *RowSet) ContainsKey(key ...int32) bool {
	h := hashInt32s(key...)
	for c := s.base.first(h); c >= 0; c = s.base.next[c] {
		if s.holdsKey(int(c), key) {
			return true
		}
	}
	n := s.base.len()
	for c := s.tail.first(h); c >= 0; c = s.tail.after(h, c) {
		if s.holdsKey(n+int(c), key) {
			return true
		}
	}
	return false
}

// holdsKey reports whether table row r holds key in the key columns.
func (s *RowSet) holdsKey(r int, key []int32) bool {
	for i, col := range s.cols {
		if s.t.cols[col].i32[r] != key[i] {
			return false
		}
	}
	return true
}

// NoteAppended indexes the rows appended to the underlying table since
// the set last saw it, [Len(), t.NumRows()). The set counts what it has
// indexed, so no caller can hand it a stale range; a table that shrank
// under it (DeleteWhere) needs a new set, and panics here.
func (s *RowSet) NoteAppended() {
	if s.t.NumRows() < s.Len() {
		panic("engine: RowSet's table shrank; build a new set after deleting rows")
	}
	for r := s.Len(); r < s.t.NumRows(); r++ {
		s.tail.add(HashRow(s.t, r, s.cols))
	}
}

// Len returns the number of indexed rows.
func (s *RowSet) Len() int { return s.base.len() + len(s.tail.next) }

// BaseLen returns the number of rows the shared base covers, from row 0.
func (s *RowSet) BaseLen() int { return s.base.len() }

// SharesBase reports whether s and o hold one base, as a set and the
// forks that did not outgrow it do.
// It is a test hook, for tests of callers that fork (a lineage of
// grounding rounds) to check what a fork shares: no production path asks
// it, and none should come to depend on it.
func (s *RowSet) SharesBase(o *RowSet) bool {
	return s.base.len() == o.base.len() && (s.base.len() == 0 || &s.base.next[0] == &o.base.next[0])
}
