package engine

import "slices"

// EntityIndex lists, for every value of some Int32 columns of a table,
// the rows holding it in any of them: ascending, each row once. Join keys
// over TΠ's entity columns are dense dictionary IDs, so a lookup is an
// adjacency read — offsets plus row IDs, CSR-style — not a hash probe.
//
// Rows appended to the table after the index is built are indexed by
// Extend, into a second segment over the appended rows only; a lookup
// reads the first segment's rows and then the second's, which keeps them
// ascending. Anything else that changes the table — a deletion shifts
// rows — needs a new index. The first segment, the base, is never
// written once built: Fork hands it to an index over a copy of the
// table, which builds only its own tail.
type EntityIndex struct {
	t    *Table
	cols []int
	// base covers rows [0, baseEnd); tail covers [baseEnd, rows).
	base, tail entitySeg
	baseEnd    int
	rows       int
}

// entitySeg is one CSR segment: a value's slot s lists its rows as
// rows[off[s]:off[s+1]].
type entitySeg struct {
	// Dense (keys == nil): the slot of v is v-lo, for v in [lo, lo+len(off)-1).
	// Sparse: the slot of v is its position in keys, the sorted distinct
	// values. A segment is dense when its value span is within a small
	// multiple of its entries, so neither layout is ever sized by the
	// dictionary.
	lo   int32
	keys []int32
	off  []int32
	rows []int32
}

// NewEntityIndex indexes the current rows of t on the given Int32
// columns. t is captured by reference.
func NewEntityIndex(t *Table, cols ...int) *EntityIndex {
	ix := &EntityIndex{t: t, cols: cols}
	ix.Extend()
	return ix
}

// forkTailFraction is where a fork stops sharing its parent's base (an
// EntityIndex's or a RowSet's): when the rows past the base exceed
// 1/forkTailFraction of it, the fork indexes all of its table as a new
// base instead of building a tail. A fork pays for its tail, and a tail
// is rebuilt whole by every Extend; a new base costs a build over every
// row, once. Below the bound a tail costs at most 1/16 of a full build;
// past it, the full build is paid once per base/16 rows appended since
// the last one — for a stream of 64-fact batches over a 100K-row table,
// once in dozens of rounds. A larger fraction makes the tails cheaper and
// the new bases more frequent.
const forkTailFraction = 16

// Fork returns an index of the same columns over t, sharing ix's base:
// the first BaseLen() rows of t must be those of ix's table. Forking
// builds nothing. The fork's first Extend builds its tail, from the end
// of the base — unless the rows past the base exceed 1/forkTailFraction
// of it, when the fork has no base and that Extend indexes all of t as
// its own. Forking writes nothing ix holds, so any number of goroutines
// may fork one index, and look up in it, at once.
func (ix *EntityIndex) Fork(t *Table) *EntityIndex {
	if t.NumRows() < ix.baseEnd {
		panic("engine: EntityIndex.Fork onto a table shorter than the base")
	}
	if t.NumRows()-ix.baseEnd > ix.baseEnd/forkTailFraction {
		return &EntityIndex{t: t, cols: ix.cols}
	}
	return &EntityIndex{t: t, cols: ix.cols, base: ix.base, baseEnd: ix.baseEnd, rows: ix.baseEnd}
}

// BaseLen returns the number of rows the shared base covers, from row 0.
func (ix *EntityIndex) BaseLen() int { return ix.baseEnd }

// SharesBase reports whether ix and o hold one base, as an index and the
// forks that did not outgrow it do.
// It is a test hook, for tests of callers that fork (a lineage of
// grounding rounds) to check what a fork shares: no production path asks
// it, and none should come to depend on it.
func (ix *EntityIndex) SharesBase(o *EntityIndex) bool {
	return ix.baseEnd == o.baseEnd && (len(ix.base.rows) == 0 || &ix.base.rows[0] == &o.base.rows[0])
}

// Table returns the indexed table.
func (ix *EntityIndex) Table() *Table { return ix.t }

// Cols returns the indexed columns.
func (ix *EntityIndex) Cols() []int { return ix.cols }

// Len returns how many of the table's rows, from row 0, are indexed.
func (ix *EntityIndex) Len() int { return ix.rows }

// Extend indexes the rows appended to the table since the index was
// built or forked. Its cost is the number of rows past the base — every
// row, when there is no base yet — not the table's size.
func (ix *EntityIndex) Extend() {
	n := ix.t.NumRows()
	switch {
	case n == ix.rows:
	case ix.baseEnd == 0:
		// No base yet: a new index, or a fork that outgrew its parent's.
		ix.base, ix.baseEnd = ix.build(0, n), n
	default:
		ix.tail = ix.build(ix.baseEnd, n)
	}
	ix.rows = n
}

// Lookup appends the rows holding v in any indexed column to dst, in
// ascending order, and returns it.
func (ix *EntityIndex) Lookup(v int32, dst []int32) []int32 {
	dst = append(dst, ix.base.lookup(v)...)
	return append(dst, ix.tail.lookup(v)...)
}

func (s *entitySeg) lookup(v int32) []int32 {
	var slot int
	if s.keys == nil {
		slot = int(int64(v) - int64(s.lo))
		if slot < 0 || slot >= len(s.off)-1 {
			return nil
		}
	} else {
		var ok bool
		if slot, ok = slices.BinarySearch(s.keys, v); !ok {
			return nil
		}
	}
	return s.rows[s.off[slot]:s.off[slot+1]]
}

// build indexes rows [from, to) of the table.
func (ix *EntityIndex) build(from, to int) entitySeg {
	vals := make([][]int32, len(ix.cols))
	for i, c := range ix.cols {
		vals[i] = ix.t.Int32Col(c)[from:to]
	}
	var s entitySeg
	if to == from {
		return s
	}
	lo, hi := vals[0][0], vals[0][0]
	for _, col := range vals {
		for _, v := range col {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	s.lo = lo
	entries := (to - from) * len(vals)
	if span := int64(hi) - int64(lo) + 1; span <= 2*int64(entries)+64 {
		// Counting sort: count each value, turn the counts into bucket
		// ends, then fill the buckets back to front walking the rows
		// backwards, which leaves every bucket's rows ascending and each
		// offset at its bucket's start.
		s.off = make([]int32, span+1)
		for i, col := range vals {
			for r, v := range col {
				if !repeats(vals, i, r) {
					s.off[v-lo]++
				}
			}
		}
		total := int32(0)
		for k := range s.off[:span] {
			total += s.off[k]
			s.off[k] = total
		}
		s.off[span] = total
		s.rows = make([]int32, total)
		for r := to - from - 1; r >= 0; r-- {
			for i, col := range vals {
				if v := col[r]; !repeats(vals, i, r) {
					s.off[v-lo]--
					s.rows[s.off[v-lo]] = int32(from + r)
				}
			}
		}
		return s
	}
	// Sparse: sort (value, row) pairs packed into one word.
	pairs := make([]uint64, 0, entries)
	for i, col := range vals {
		for r, v := range col {
			if !repeats(vals, i, r) {
				pairs = append(pairs, uint64(uint32(v-lo))<<32|uint64(from+r))
			}
		}
	}
	slices.Sort(pairs)
	s.rows = make([]int32, len(pairs))
	for k, p := range pairs {
		v := lo + int32(p>>32)
		if len(s.keys) == 0 || s.keys[len(s.keys)-1] != v {
			s.keys = append(s.keys, v)
			s.off = append(s.off, int32(k))
		}
		s.rows[k] = int32(uint32(p))
	}
	s.off = append(s.off, int32(len(pairs)))
	return s
}

// repeats reports whether row r's value in column i also sits in one of
// its earlier indexed columns: a row is listed once per distinct value.
func repeats(vals [][]int32, i, r int) bool {
	for j := 0; j < i; j++ {
		if vals[j][r] == vals[i][r] {
			return true
		}
	}
	return false
}
