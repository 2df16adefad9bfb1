package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog is a tiny name → table registry, playing the role of a database
// schema for the SQL planner. It is complete when built: NewCatalog takes
// every entry, and the set of entries never changes after that, so any
// number of goroutines may read one catalog without a lock. The tables
// are not the catalog's to guard: a *Table read out of a catalog must not
// be mutated while the catalog is in use.
//
// An entry is either a table or a recipe for one that runs on the first
// Get, once, however many goroutines ask. Each entry also holds the
// table's ANALYZE statistics, computed on the first Stats call, and its
// single-column entity indexes, each built on the first Index call for
// its column; both are kept for as long as the catalog lives.
type Catalog struct {
	entries map[string]*catalogEntry
}

type catalogEntry struct {
	build func() (*Table, error) // nil for a table given as one

	once  sync.Once
	table *Table
	err   error

	statsOnce sync.Once
	stats     *TableStats

	indexOnce sync.Once
	index     []func() *EntityIndex // per column, built on first call
}

func (e *catalogEntry) resolve() (*Table, error) {
	e.once.Do(func() {
		if e.build != nil {
			e.table, e.err = e.build()
			e.build = nil // the recipe's captures are garbage once it ran
		}
	})
	return e.table, e.err
}

// NewCatalog returns the catalog of tables, each registered under its
// own name, and of lazy, each recipe registered under its key: it
// materializes the table on first reference (Get, MustGet, Stats or
// Index), and that table must carry the key as its name. A build error
// is remembered and returned by every reference. A name may be given
// once only.
func NewCatalog(tables []*Table, lazy map[string]func() (*Table, error)) *Catalog {
	c := &Catalog{entries: make(map[string]*catalogEntry, len(tables)+len(lazy))}
	add := func(name string, e *catalogEntry) {
		if _, dup := c.entries[name]; dup {
			panic(fmt.Sprintf("engine: table %q given to the catalog twice", name))
		}
		c.entries[name] = e
	}
	for _, t := range tables {
		add(t.Name(), &catalogEntry{table: t})
	}
	for name, build := range lazy {
		add(name, &catalogEntry{build: build})
	}
	return c
}

func (c *Catalog) entry(name string) (*catalogEntry, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q in catalog", name)
	}
	return e, nil
}

// Get returns the named table or an error.
func (c *Catalog) Get(name string) (*Table, error) {
	e, err := c.entry(name)
	if err != nil {
		return nil, err
	}
	return e.resolve()
}

// MustGet is Get but panics on a missing table.
func (c *Catalog) MustGet(name string) *Table {
	t, err := c.Get(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Stats returns the named table's ANALYZE statistics, computing them on
// the first call; every later call returns the same statistics.
func (c *Catalog) Stats(name string) (*TableStats, error) {
	e, err := c.entry(name)
	if err != nil {
		return nil, err
	}
	t, err := e.resolve()
	if err != nil {
		return nil, err
	}
	e.statsOnce.Do(func() { e.stats = Analyze(t) })
	return e.stats, nil
}

// Index returns an EntityIndex of the named table on its Int32 column
// col, building it on the first call for that column; every later call,
// from any goroutine, returns the same index.
func (c *Catalog) Index(name string, col int) (*EntityIndex, error) {
	e, err := c.entry(name)
	if err != nil {
		return nil, err
	}
	t, err := e.resolve()
	if err != nil {
		return nil, err
	}
	if col < 0 || col >= len(t.cols) || t.cols[col].typ != Int32 {
		return nil, fmt.Errorf("engine: table %q has no INT column %d to index", name, col)
	}
	e.indexOnce.Do(func() {
		e.index = make([]func() *EntityIndex, len(t.cols))
		for i := range e.index {
			e.index[i] = sync.OnceValue(func() *EntityIndex { return NewEntityIndex(t, i) })
		}
	})
	return e.index[col](), nil
}

// Names returns the registered table names in sorted order.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered tables.
func (c *Catalog) Len() int { return len(c.entries) }
