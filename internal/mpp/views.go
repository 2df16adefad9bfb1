package mpp

import (
	"fmt"
	"strings"

	"probkb/internal/engine"
)

// Views is the registry of redistributed materialized views (Section 4.4
// of the paper). Each view is a full copy of a base distributed table,
// hash-distributed by a different key tuple so that joins on that tuple
// need no motion. The paper creates views of TΠ distributed by
// (R,C1,C2), (R,C1,x,C2), (R,C1,C2,y), and (R,C1,x,C2,y); the grounder
// registers exactly those.
type Views struct {
	cluster *Cluster
	byBase  map[string][]*DistTable
}

// NewViews returns an empty view registry for the cluster.
func NewViews(c *Cluster) *Views {
	return &Views{cluster: c, byBase: make(map[string][]*DistTable)}
}

// Materialize creates (or refreshes) the view of base distributed by key
// and registers it under base's name. Refreshing replaces the previous
// copy for that key. A placement mistake (empty key, invalid cluster)
// is deferred onto the returned view's Err.
func (v *Views) Materialize(base *DistTable, key []int) *DistTable {
	full := Gather(base)
	view := v.cluster.Distribute(full, key)
	view.SetName(fmt.Sprintf("%s_by%s", base.Name(), keyString(key)))
	list := v.byBase[base.Name()]
	for i, old := range list {
		if keysEqual(old.dist.Key, view.dist.Key) {
			list[i] = view
			v.byBase[base.Name()] = list
			return view
		}
	}
	v.byBase[base.Name()] = append(list, view)
	return view
}

// Lookup returns the registered view of the named base table distributed
// by key, if one exists.
func (v *Views) Lookup(baseName string, key []int) (*DistTable, bool) {
	for _, view := range v.byBase[baseName] {
		if keysEqual(view.dist.Key, key) {
			return view, true
		}
	}
	return nil, false
}

// AppendFrom incrementally maintains every view of the named base table
// with rows [from, t.NumRows()) of the master copy t, returning the
// first maintenance error.
func (v *Views) AppendFrom(baseName string, t *engine.Table, from int) error {
	for _, view := range v.byBase[baseName] {
		if err := view.AppendFrom(t, from); err != nil {
			return err
		}
	}
	return nil
}

// DeleteWhere drops from every view of the named base table the rows
// whose value in Int32 column col gone reports (DistTable.DeleteWhere),
// returning the first maintenance error.
func (v *Views) DeleteWhere(baseName string, col int, gone func(v int32) bool) error {
	for _, view := range v.byBase[baseName] {
		if err := view.DeleteWhere(col, gone); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of registered views.
func (v *Views) Count() int {
	n := 0
	for _, l := range v.byBase {
		n += len(l)
	}
	return n
}

func keyString(key []int) string {
	parts := make([]string, len(key))
	for i, k := range key {
		parts[i] = fmt.Sprint(k)
	}
	return "_" + strings.Join(parts, "_")
}
