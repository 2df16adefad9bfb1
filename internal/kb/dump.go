package kb

import (
	"encoding/binary"
	"math"

	"probkb/internal/mln"
)

// Dump renders the KB as one canonical byte string: the entity, class
// and relation-name dictionaries in ID order, then relation signatures,
// members, facts, rules, constraints and taxonomy edges, each section
// count-prefixed and in the order the KB holds it. Weights are raw
// IEEE-754 bits, so a NaN weight compares bit-exactly. Two KBs dump
// equal iff every ID, slice order and weight bit agrees.
//
// Dump is the test oracle that snapshot round trips and crash recovery
// are judged by. It shares no code with the snapshot codec in
// internal/store on purpose: a field the codec dropped would vanish from
// both sides of a comparison built on the codec, but not from this dump.
// Nothing reads it back.
func (k *KB) Dump() []byte {
	var b []byte
	i32 := func(v int32) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	count := func(n int) { i32(int32(n)) }
	str := func(s string) { count(len(s)); b = append(b, s...) }
	atom := func(a mln.Atom) { i32(a.Rel); b = append(b, byte(a.Arg1), byte(a.Arg2)) }

	for _, d := range []*Dict{k.Entities, k.Classes, k.RelDict} {
		count(d.Len())
		for _, name := range d.Names() {
			str(name)
		}
	}
	count(len(k.Relations))
	for _, r := range k.Relations {
		i32(r.ID)
		str(r.Name)
		i32(r.Domain)
		i32(r.Range)
	}
	count(len(k.Members))
	for _, m := range k.Members {
		i32(m.Class)
		i32(m.Entity)
	}
	count(len(k.Facts))
	for _, f := range k.Facts {
		i32(f.Rel)
		i32(f.X)
		i32(f.XClass)
		i32(f.Y)
		i32(f.YClass)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.W))
	}
	count(len(k.Rules))
	for _, c := range k.Rules {
		atom(c.Head)
		count(len(c.Body))
		for _, a := range c.Body {
			atom(a)
		}
		for _, cls := range c.Class {
			i32(cls)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Weight))
	}
	count(len(k.Constraints))
	for _, c := range k.Constraints {
		i32(c.Rel)
		count(c.Type)
		count(c.Degree)
	}
	edges := k.SubclassEdges()
	count(len(edges))
	for _, e := range edges {
		i32(e.Sub)
		i32(e.Super)
	}
	return b
}
