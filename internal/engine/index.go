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
func (ix *rowIndex) bucket(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> ix.shift }

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
