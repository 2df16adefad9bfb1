package engine

import "math/bits"

// rowIndex is the one hash table under every hash kernel (join, RowSet,
// Distinct, GroupBy): a chained index from 64-bit key hashes to row
// numbers 0..n-1 of whatever the kernel indexes. Three flat slices, no
// pointers — nothing for the GC to scan, no allocation per key.
//
// Ordering invariant: newRowIndex chains rows so that every chain lists
// its rows in increasing order — the hash join's output-order contract.
// add links a later row at the head of its chain instead; the kernels that
// add (RowSet, Distinct, GroupBy) hold at most one row per key they look
// up, so they never see chain order.
type rowIndex struct {
	heads []int32  // per bucket (a power of two of them): first row of the chain, -1 if empty
	next  []int32  // per row: the next row of its chain, -1 at the end
	hash  []uint64 // per row: its key hash, so growth re-chains without re-hashing
	shift uint     // 64 - log2(len(heads))
}

const indexMinBuckets = 16

// indexMaxBuckets caps the bucket count; past it chains just lengthen.
// Tests lower it to 1 to force every row into one chain.
var indexMaxBuckets = 1 << 30

// newRowIndex indexes rows 0..len(hashes)-1 and takes ownership of hashes.
func newRowIndex(hashes []uint64) *rowIndex {
	ix := &rowIndex{hash: hashes, next: make([]int32, len(hashes))}
	ix.rechain()
	return ix
}

// rechain sizes the buckets for the current rows (at most one row per
// bucket on average) and links every row from the stored hashes, last row
// first, so each chain comes out in increasing row order.
func (ix *rowIndex) rechain() {
	n := min(1<<bits.Len(uint(max(len(ix.hash), indexMinBuckets)-1)), indexMaxBuckets)
	ix.heads = make([]int32, n)
	for b := range ix.heads {
		ix.heads[b] = -1
	}
	ix.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for r := len(ix.hash) - 1; r >= 0; r-- {
		b := ix.bucket(ix.hash[r])
		ix.next[r] = ix.heads[b]
		ix.heads[b] = int32(r)
	}
}

// bucket spreads h over the buckets by its multiplicative-hash top bits:
// FNV's low bits mix poorly (bit 0 is the parity of the key bytes' low
// bits), and on an MPP segment every row shares HashRow % segments.
func (ix *rowIndex) bucket(h uint64) uint64 { return bucketOf(h, ix.shift) }

func bucketOf(h uint64, shift uint) uint64 { return (h * 0x9E3779B97F4A7C15) >> shift }

// add indexes the next row, len(ix.next), under hash h.
func (ix *rowIndex) add(h uint64) {
	r := len(ix.next)
	ix.hash = append(ix.hash, h)
	ix.next = append(ix.next, -1)
	if r >= len(ix.heads) && len(ix.heads) < indexMaxBuckets {
		ix.rechain()
		return
	}
	b := ix.bucket(h)
	ix.next[r] = ix.heads[b]
	ix.heads[b] = int32(r)
}

// first returns the first row of h's chain whose hash is h, or -1; after
// continues past row r. Callers still compare keys: equal hashes are
// candidates, not matches.
func (ix *rowIndex) first(h uint64) int32 { return ix.seek(h, ix.heads[ix.bucket(h)]) }

func (ix *rowIndex) after(h uint64, r int32) int32 { return ix.seek(h, ix.next[r]) }

func (ix *rowIndex) seek(h uint64, r int32) int32 {
	for r >= 0 && ix.hash[r] != h {
		r = ix.next[r]
	}
	return r
}

// sealedIndex is a rowIndex that will never grow, with its hashes
// dropped: a lookup walks the whole chain of a key's bucket and compares
// keys, which at most one row per bucket on average makes about one
// comparison. It is what a RowSet shares with the sets forked from it,
// 8 bytes a row smaller than the rowIndex it was built as; re-chaining
// it would mean hashing every row again.
type sealedIndex struct {
	heads, next []int32
	shift       uint
}

// sealIndex indexes rows 0..len(hashes)-1 and lets go of hashes.
func sealIndex(hashes []uint64) sealedIndex {
	ix := newRowIndex(hashes)
	return sealedIndex{heads: ix.heads, next: ix.next, shift: ix.shift}
}

// first returns the first row of h's bucket, -1 if it is empty; the
// bucket's next row after r is next[r].
func (ix *sealedIndex) first(h uint64) int32 { return ix.heads[bucketOf(h, ix.shift)] }

// len returns the number of indexed rows.
func (ix *sealedIndex) len() int { return len(ix.next) }

// follow drops the rows an order-preserving deletion removed (m) from
// the index and renumbers the rest, keeping every chain ascending and
// every row in its bucket: nothing is hashed again. A chain skips each
// run of deleted rows in it at the survivor before the run, so the work
// is one pass over the buckets and the rows. inPlace writes ix's own
// arrays, for an index nothing else reads; otherwise the result is new
// and ix is left as it was.
func (ix sealedIndex) follow(m *Renumbering, inPlace bool) sealedIndex {
	n := int32(len(ix.next))
	kept := n - m.below(n)
	out := sealedIndex{heads: ix.heads, next: ix.next[:kept], shift: ix.shift}
	if !inPlace {
		out.heads, out.next = make([]int32, len(ix.heads)), make([]int32, kept)
	}
	// survivor returns r's new number, or that of the first survivor
	// after it along its chain; -1 past the chain's end, r included.
	// Chains ascend, so the rows it reads lie past every row written so
	// far. The common cases, an empty bucket and a surviving row, take
	// no branch on the data.
	survivor := func(r int32) int32 {
		end := r >> 31 // -1 past the chain's end, else 0
		to, ok := m.renumber(r &^ end)
		if ok || end != 0 {
			return to | end
		}
		for r = ix.next[r]; r >= 0; r = ix.next[r] {
			if to, ok := m.renumber(r); ok {
				return to
			}
		}
		return -1
	}
	for b, h := range ix.heads {
		out.heads[b] = survivor(h)
	}
	for r := int32(0); r < n; r++ {
		if to, ok := m.renumber(r); ok {
			out.next[to] = survivor(ix.next[r])
		}
	}
	return out
}

// drop removes the rows at the ascending positions rows from the index
// and re-chains the rest from their stored hashes.
func (ix *rowIndex) drop(rows []int32) {
	if len(rows) == 0 {
		return
	}
	ix.hash = closeUp(ix.hash, rows)
	ix.next = ix.next[:len(ix.hash)]
	ix.rechain()
}

// hashRange fills dst with HashRow(t, lo+i, cols), a column at a time: the
// same values, without a row-at-a-time walk's dependent loads and with
// the rows' FNV multiply chains overlapped.
func hashRange(dst []uint64, t *Table, cols []int, lo int) {
	for i := range dst {
		dst[i] = fnvOffset64
	}
	for _, c := range cols {
		for i, v := range t.cols[c].i32[lo : lo+len(dst)] {
			dst[i] = fnvInt32(dst[i], v)
		}
	}
}

// hashRows returns HashRow(t, r, cols) for every row of t (see forMorsels
// for parallel, op and st).
func hashRows(t *Table, cols []int, parallel bool, op string, o Opts, st *NodeStats) []uint64 {
	hs := make([]uint64, t.NumRows())
	forMorsels(parallel, op, len(hs), o, st, func(_, lo, hi int) { hashRange(hs[lo:hi], t, cols, lo) })
	return hs
}
