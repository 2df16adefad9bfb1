package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog is a tiny name → table registry, playing the role of a database
// schema for the CLI tools and the grounders. All methods are safe for
// concurrent use — the engine itself spawns worker goroutines now, and
// callers run plans over a shared catalog from multiple goroutines. The
// registry is what's synchronized, not the tables: a *Table read out of
// the catalog must not be mutated while other goroutines scan it.
//
// An entry is either a table (Put) or a recipe for one (PutLazy) that
// runs on the first Get, once, however many goroutines ask. Each entry
// also holds the table's ANALYZE statistics, computed on the first Stats
// call and kept for as long as the entry lives; Put replaces the entry,
// which is how a caller that mutated a table in place drops its stale
// statistics. A frozen catalog is the shared read-only kind: its set of
// entries is final and SQL refuses to DELETE through it.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*catalogEntry
	frozen  bool
}

type catalogEntry struct {
	build func() (*Table, error) // nil for Put entries

	once  sync.Once
	table *Table
	err   error

	statsOnce sync.Once
	stats     *TableStats
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

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[string]*catalogEntry)}
}

// Put registers (or replaces) a table under its own name.
func (c *Catalog) Put(t *Table) {
	c.put(t.Name(), &catalogEntry{table: t})
}

// PutLazy registers a table that build materializes on first reference
// (Get, MustGet or Stats). The table must carry the given name. A build
// error is remembered and returned by every reference.
func (c *Catalog) PutLazy(name string, build func() (*Table, error)) {
	c.put(name, &catalogEntry{build: build})
}

func (c *Catalog) put(name string, e *catalogEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustBeOpen()
	c.entries[name] = e
}

func (c *Catalog) mustBeOpen() {
	if c.frozen {
		panic("engine: catalog is frozen")
	}
}

// Freeze makes the set of entries final: Put, PutLazy and Drop panic
// from here on. Lazy entries still materialize on first reference.
func (c *Catalog) Freeze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frozen = true
}

// Frozen reports whether Freeze was called.
func (c *Catalog) Frozen() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.frozen
}

func (c *Catalog) entry(name string) (*catalogEntry, error) {
	c.mu.RLock()
	e, ok := c.entries[name]
	c.mu.RUnlock()
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
// the first call. They describe the table as it was then: re-Put a
// table mutated in place to have them gathered again.
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

// Drop removes the named table; dropping a missing table is a no-op.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustBeOpen()
	delete(c.entries, name)
}

// Names returns the registered table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered tables.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
