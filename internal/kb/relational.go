package kb

import (
	"sync"

	"probkb/internal/engine"
	"probkb/internal/mln"
	"probkb/internal/obs"
)

var imageTablesBuilt = obs.NewCounterVec("probkb_kb_image_tables_built_total",
	"Tables of a KB generation's relational image materialized on first SQL reference, by table.", "table")

// Column indices of the facts table TΠ (Definition 4 and Figure 3(a)).
// Every module that touches TΠ uses these constants, so the layout is
// defined exactly once.
const (
	TPiI  = 0 // I: integer fact identifier
	TPiR  = 1 // R: relation ID
	TPiX  = 2 // x: subject entity ID
	TPiC1 = 3 // C1: subject class ID (replicated from TC for join locality)
	TPiY  = 4 // y: object entity ID
	TPiC2 = 5 // C2: object class ID
	TPiW  = 6 // w: weight; NULL for inferred facts
)

// FactsSchema returns the schema of TΠ.
func FactsSchema() engine.Schema {
	return engine.NewSchema(
		engine.C("I", engine.Int32),
		engine.C("R", engine.Int32),
		engine.C("x", engine.Int32),
		engine.C("C1", engine.Int32),
		engine.C("y", engine.Int32),
		engine.C("C2", engine.Int32),
		engine.C("w", engine.Float64),
	)
}

// FactKeyCols are the identity columns of TΠ, (R, x, C1, y, C2): a
// facts table holds one row per key.
var FactKeyCols = []int{TPiR, TPiX, TPiC1, TPiY, TPiC2}

// FactsTable returns TΠ, fact i at row i with ID i, as a Fork of the
// KB's own table: nothing is copied, and the caller may append to it and
// write it while the KB and its readers go on (engine.Table.Fork).
// FactSet indexes it.
func (k *KB) FactsTable() *engine.Table { return k.facts.Fork() }

// FactSet returns the KB's identity set on FactKeyCols forked onto tpi,
// a FactsTable of this KB that has grown at most by appends: it shares
// the KB's sealed base and indexes only the rows past it, so a
// grounding run over the KB's facts does not hash them again.
func (k *KB) FactSet(tpi *engine.Table) *engine.RowSet { return k.factSet.Fork(tpi) }

// FactsView returns TΠ for reading only, valid until the KB next
// mutates: a table over the KB's own columns that, unlike FactsTable,
// is no Fork, so the KB's next write pays no barrier for it.
func (k *KB) FactsView() *engine.Table {
	t, n := k.facts, k.facts.NumRows()
	i32 := func(c int) []int32 { return t.Int32Col(c)[:n:n] }
	return engine.TableFromColumns("T", FactsSchema(),
		i32(TPiI), i32(TPiR), i32(TPiX), i32(TPiC1), i32(TPiY), i32(TPiC2), t.Float64Col(TPiW)[:n:n])
}

// WithFacts returns a Fork of the KB whose Π is a copy of tpi, a
// TΠ-shaped table with one row per key (a grounding result's facts):
// fact r is row r, its ID renumbered to r, and the facts' entities join
// their classes.
func (k *KB) WithFacts(tpi *engine.Table) *KB {
	facts := tpi.Clone()
	ids := facts.Int32Col(TPiI)
	for r := range ids {
		ids[r] = int32(r)
	}
	out := k.forkWith(facts, engine.NewRowSet(facts, FactKeyCols))
	out.dropImage()
	xs, c1s, ys, c2s := facts.Int32Col(TPiX), facts.Int32Col(TPiC1), facts.Int32Col(TPiY), facts.Int32Col(TPiC2)
	for r := range xs {
		out.AddMember(c1s[r], xs[r])
		out.AddMember(c2s[r], ys[r])
	}
	return out
}

// FactAtRow reconstructs a Fact value from row r of a TΠ-shaped table.
func FactAtRow(t *engine.Table, r int) Fact {
	return Fact{
		Rel: t.Int32Col(TPiR)[r],
		X:   t.Int32Col(TPiX)[r], XClass: t.Int32Col(TPiC1)[r],
		Y: t.Int32Col(TPiY)[r], YClass: t.Int32Col(TPiC2)[r],
		W: t.Float64Col(TPiW)[r],
	}
}

// ClassTable materializes TC (Definition 2): tuples (C, e).
func (k *KB) ClassTable() *engine.Table {
	t := engine.NewTable("TC", engine.NewSchema(
		engine.C("C", engine.Int32),
		engine.C("e", engine.Int32),
	))
	t.Reserve(len(k.Members))
	for _, m := range k.Members {
		t.AppendRow(m.Class, m.Entity)
	}
	return t
}

// RelationTable materializes TR (Definition 3): tuples (R, C1, C2).
func (k *KB) RelationTable() *engine.Table {
	t := engine.NewTable("TR", engine.NewSchema(
		engine.C("R", engine.Int32),
		engine.C("C1", engine.Int32),
		engine.C("C2", engine.Int32),
	))
	t.Reserve(len(k.Relations))
	for _, r := range k.Relations {
		t.AppendRow(r.ID, r.Domain, r.Range)
	}
	return t
}

// Column indices of the constraints table TΩ (Definition 11).
const (
	TOmegaR    = 0 // R: relation ID
	TOmegaType = 1 // α: functionality type (1 or 2)
	TOmegaDeg  = 2 // δ: degree of pseudo-functionality
)

// ConstraintsTable materializes TΩ. The degree is stored as Float64 so
// Query 3's HAVING COUNT(*) > MIN(deg) can use the engine's float
// aggregates directly.
func (k *KB) ConstraintsTable() *engine.Table {
	t := engine.NewTable("FC", engine.NewSchema(
		engine.C("R", engine.Int32),
		engine.C("arg", engine.Int32),
		engine.C("deg", engine.Float64),
	))
	t.Reserve(len(k.Constraints))
	for _, c := range k.Constraints {
		t.AppendRow(c.Rel, int32(c.Type), float64(c.Degree))
	}
	return t
}

// dictTable materializes a dictionary's names as an (id, name) table, e.g.
// the DE, DC, DR tables of Section 4.2. The name column aliases the
// dictionary's own storage (interned names are never rewritten, only
// appended past this length), so the table is read-only.
func dictTable(name string, names []string) *engine.Table {
	ids := make([]int32, len(names))
	for i := range ids {
		ids[i] = int32(i)
	}
	return engine.TableFromColumns(name, engine.NewSchema(
		engine.C("id", engine.Int32),
		engine.C("name", engine.String),
	), ids, capped(names))
}

// MLNPartitions builds the six MLN partition tables M1..M6 from the KB's
// rule set.
func (k *KB) MLNPartitions() (*mln.Partitions, error) {
	return mln.Build(k.Rules)
}

// image is the relational image of one KB state: the Section 4.2
// catalog — T, TC, TR, FC, M1..M6, DE, DC, DR — that the SQL surface
// plans and runs against, with each table's ANALYZE statistics held
// beside it (engine.Catalog.Stats).
//
// An image is immutable and safe for any number of concurrent readers.
// It is created empty and each table materializes on first reference,
// once: a point select on T never builds DE or the MLN partitions, and
// a generation nobody sends SQL to builds nothing. The recipes read a
// frozen view captured at creation — slice headers and a FactsView,
// never the KB — so a fork that still holds the image after its parent
// moved on builds the state the image was created for, not the parent's
// current one. The captured arrays stay untouched for as long as a KB
// the image is current for exists: such a KB either never mutated since
// (then nobody wrote) or is one side of a Fork, and the other side's
// first write copies away from them (materialize, engine.Table.Fork).
type image struct {
	// The dictionary lengths the image was created at. Everything else
	// that changes a KB passes the write barrier, which drops the image;
	// callers intern symbols on the dictionaries directly.
	entities, classes, relations int

	cat *engine.Catalog
}

func (im *image) currentFor(k *KB) bool {
	return im.entities == k.Entities.Len() && im.classes == k.Classes.Len() && im.relations == k.RelDict.Len()
}

// Catalog returns the KB's relational image, a catalog complete when
// built and published through the KB's atomic image pointer: the tables
// the paper's Queries 1-i/2-i/3 name, lazily materialized and shared by
// every caller until the KB next changes. A Fork inherits it, so a
// generation that differs from its parent only in what lives outside
// the KB (marginals), or a batch that turned out to add nothing,
// rebuilds nothing. Callers must not mutate the tables.
//
// Like every read, it is safe concurrently with other reads of this KB
// and with mutations of its forks, not with mutations of this KB — and
// a catalog fetched before this KB mutates must not be read after: an
// unshared KB mutates in place, under tables the catalog has yet to
// build. Fetch it per query, as the SQL entry points do; it is a load
// and three compares.
func (k *KB) Catalog() *engine.Catalog {
	for {
		old := k.img.Load()
		if old != nil && old.currentFor(k) {
			return old.cat
		}
		im := newImage(k)
		if k.img.CompareAndSwap(old, im) {
			return im.cat
		}
	}
}

func newImage(k *KB) *image {
	// The frozen view. Dictionary names are only ever appended past the
	// captured length; the other slices and TΠ's columns are covered by
	// the argument on the type.
	view := &KB{Relations: k.Relations, Members: k.Members, Rules: k.Rules, Constraints: k.Constraints}
	facts := k.FactsView()
	entities, classes, relations := k.Entities.Names(), k.Classes.Names(), k.RelDict.Names()

	recipes := make(map[string]func() (*engine.Table, error), 13)
	put := func(name string, build func() (*engine.Table, error)) {
		recipes[name] = func() (*engine.Table, error) {
			imageTablesBuilt.With(name).Inc()
			return build()
		}
	}
	ok := func(build func() *engine.Table) func() (*engine.Table, error) {
		return func() (*engine.Table, error) { return build(), nil }
	}
	put("T", ok(func() *engine.Table { return facts }))
	put("TC", ok(view.ClassTable))
	put("TR", ok(view.RelationTable))
	put("FC", ok(view.ConstraintsTable))
	parts := sync.OnceValues(view.MLNPartitions) // one pass over the rules fills all six
	for i := mln.P1; i <= mln.P6; i++ {
		put(mln.TableName(i), func() (*engine.Table, error) {
			p, err := parts()
			if err != nil {
				return nil, err
			}
			return p.Table(i), nil
		})
	}
	put("DE", ok(func() *engine.Table { return dictTable("DE", entities) }))
	put("DC", ok(func() *engine.Table { return dictTable("DC", classes) }))
	put("DR", ok(func() *engine.Table { return dictTable("DR", relations) }))
	return &image{entities: len(entities), classes: len(classes), relations: len(relations), cat: engine.NewCatalog(nil, recipes)}
}
