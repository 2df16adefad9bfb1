package kb

import (
	"fmt"
	"sync/atomic"
)

// Dict is a bidirectional string ↔ int32 dictionary. ProbKB dictionary-
// encodes every entity, class, and relation symbol so that the grounding
// joins compare integers, never strings (Section 4.2 of the paper).
//
// Dictionaries are copy-on-write forkable (see Fork): the MVCC serving
// tier snapshots a whole KB in O(1) and lets the writer intern new
// symbols into its fork while readers keep resolving against the frozen
// one. Lookups are safe concurrently with a Fork; Intern remains
// single-writer, as ever.
type Dict struct {
	names []string
	ids   map[string]int32
	// shared marks the ids map (and the names backing array, via its
	// capped capacity) as visible to another fork; the next Intern
	// copies before writing. Concurrent forks of one dictionary all set
	// it, so it is atomic.
	shared atomic.Bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Fork returns a copy-on-write fork: O(1) now, with the map and slice
// copied on either side's first Intern after the fork. The child's
// names header is capacity-capped so its growth always reallocates
// instead of writing into the shared backing array; the parent's
// memory is NOT touched — a fork of a generation being served performs
// no writes any concurrent reader (Lookup, Name, Len, Names) could
// observe, only the shared flag that read paths never consult.
func (d *Dict) Fork() *Dict {
	d.shared.Store(true)
	n := len(d.names)
	child := &Dict{names: d.names[:n:n], ids: d.ids}
	child.shared.Store(true)
	return child
}

// Intern returns the ID of name, assigning the next free ID on first use.
func (d *Dict) Intern(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	if d.shared.Load() {
		// First mutation after a fork: copy both directions privately so
		// neither side ever writes memory the other reads.
		d.names = append([]string(nil), d.names...)
		ids := make(map[string]int32, len(d.ids)+1)
		for k, v := range d.ids {
			ids[k] = v
		}
		d.ids = ids
		d.shared.Store(false)
	}
	id := int32(len(d.names))
	d.names = append(d.names, name)
	d.ids[name] = id
	return id
}

// Lookup returns the ID of name if it has been interned.
func (d *Dict) Lookup(name string) (int32, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the string for an ID; it panics on an unknown ID, which is
// always a programming error (IDs only come from Intern).
func (d *Dict) Name(id int32) string {
	if id < 0 || int(id) >= len(d.names) {
		panic(fmt.Sprintf("kb: dictionary has no id %d (size %d)", id, len(d.names)))
	}
	return d.names[id]
}

// Len returns the number of interned symbols.
func (d *Dict) Len() int { return len(d.names) }

// Names returns the interned symbols in ID order. The caller must not
// modify the returned slice.
func (d *Dict) Names() []string { return d.names }
