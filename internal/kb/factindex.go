package kb

import "math/bits"

// factIndex is the deduplication index over KB.Facts: an open-addressed,
// linear-probed table of fact positions, keyed by the fact's Key. A slot
// holds position+1, so the zero value is "empty" and a fresh table needs
// no initialization. The keys themselves are not stored — a probe
// compares against Facts[slot-1] — which is what makes the index four
// bytes per slot instead of a map's ~55 per entry, and pointer-free.
//
// Nothing is ever removed one key at a time: the two mutators that drop
// facts (ReplaceFacts, DeleteFacts) rebuild, so there are no tombstones.
// The table has a power-of-two length and is kept at most half full.
type factIndex []int32

// hash mixes the five key columns into 64 bits; the index takes its
// bucket from the top bits (entity IDs are dense small integers, so the
// low bits of any sum of them are not).
func (k Key) hash() uint64 {
	const m = 0x9e3779b97f4a7c15 // 2^64/φ
	h := (uint64(uint32(k.Rel))<<32 | uint64(uint32(k.X))) * m
	h = (h ^ h>>32 ^ (uint64(uint32(k.Y))<<32 | uint64(uint32(k.XClass)))) * m
	h = (h ^ h>>32 ^ uint64(uint32(k.YClass))) * m
	return h
}

// find returns the position in facts of the fact with the given key.
func (ix factIndex) find(facts []Fact, key Key) (int, bool) {
	if len(ix) == 0 {
		return 0, false
	}
	mask := len(ix) - 1
	for s := int(key.hash() >> (64 - bits.TrailingZeros(uint(len(ix))))); ; s = (s + 1) & mask {
		p := ix[s]
		if p == 0 {
			return 0, false
		}
		if facts[p-1].Key() == key {
			return int(p - 1), true
		}
	}
}

// insert records that the fact with the given key, known to be absent,
// sits at position pos. The caller keeps the table under half full
// (see grown).
func (ix factIndex) insert(key Key, pos int) {
	mask := len(ix) - 1
	s := int(key.hash() >> (64 - bits.TrailingZeros(uint(len(ix)))))
	for ix[s] != 0 {
		s = (s + 1) & mask
	}
	ix[s] = int32(pos + 1)
}

// factIndexSlots is the table length for n facts: the power of two that
// leaves the table at most half full.
func factIndexSlots(n int) int {
	if n < 8 {
		n = 8
	}
	return 1 << bits.Len(uint(2*n-1))
}

// newFactIndex indexes facts, which must hold no duplicate keys.
func newFactIndex(facts []Fact, slots int) factIndex {
	ix := make(factIndex, slots)
	for i, f := range facts {
		ix.insert(f.Key(), i)
	}
	return ix
}
