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
type RowSet struct {
	t    *Table
	cols []int
	ix   *rowIndex
}

// NewRowSet builds a set over the existing rows of t keyed on cols.
func NewRowSet(t *Table, cols []int) *RowSet {
	return &RowSet{t: t, cols: cols, ix: newRowIndex(hashRows(t, cols, false, "", Opts{}, nil))}
}

// Contains reports whether a row with the same key as row r of table o
// (keyed on ocols) is already present.
func (s *RowSet) Contains(o *Table, r int, ocols []int) bool { return s.Find(o, r, ocols) >= 0 }

// Find returns the set's row with the same key as row r of table o
// (keyed on ocols), or -1 when there is none.
func (s *RowSet) Find(o *Table, r int, ocols []int) int {
	h := HashRow(o, r, ocols)
	for c := s.ix.first(h); c >= 0; c = s.ix.after(h, c) {
		if rowsEqualOn(s.t, int(c), s.cols, o, r, ocols) {
			return int(c)
		}
	}
	return -1
}

// ContainsKey is Contains for a key given by value, one value per key
// column, for callers whose key is not a row of any table.
func (s *RowSet) ContainsKey(key ...int32) bool {
	h := hashInt32s(key...)
candidates:
	for c := s.ix.first(h); c >= 0; c = s.ix.after(h, c) {
		for i, col := range s.cols {
			if s.t.cols[col].i32[c] != key[i] {
				continue candidates
			}
		}
		return true
	}
	return false
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
		s.ix.add(HashRow(s.t, r, s.cols))
	}
}

// Len returns the number of indexed rows.
func (s *RowSet) Len() int { return len(s.ix.next) }
