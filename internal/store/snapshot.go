package store

import (
	"fmt"
	"math"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// A KB snapshot is one columnar file holding the whole KB as named
// engine tables, in this fixed order:
//
//	meta       (key:text, val:int)       format version, WAL generation
//	entities   (name:text)               dictionaries in ID order
//	classes    (name:text)
//	relnames   (name:text)
//	relations  (name:int, domain:int, range:int)
//	members    (class:int, entity:int)
//	facts      (rel, x, xclass, y, yclass:int, w:float)
//	rules      (shape, head, b0, b1, c1, c2, c3:int, w:float)
//	constraints(rel, ctype, degree:int)
//	taxonomy   (sub:int, super:int)
//
// Decode replays them in this order — members before taxonomy — so
// every slice, dictionary ID, and map entry of the reconstructed KB
// matches the source exactly; the round trip is bit-identical under
// kb.KB.Dump.

// Snapshot file names inside a store directory.
const (
	snapFile    = "snapshot.pks"
	snapTmpFile = snapFile + ".tmp" // WriteAtomic's temp name
)

// metaFormatVersion is the logical KB-snapshot layout version carried
// in the meta table (the byte-level framing version lives in the magic).
const metaFormatVersion = 1

var (
	metaSchema   = engine.NewSchema(engine.C("key", engine.String), engine.C("val", engine.Int32))
	nameSchema   = engine.NewSchema(engine.C("name", engine.String))
	relSchema    = engine.NewSchema(engine.C("name", engine.Int32), engine.C("domain", engine.Int32), engine.C("range", engine.Int32))
	memberSchema = engine.NewSchema(engine.C("class", engine.Int32), engine.C("entity", engine.Int32))
	factSchema   = engine.NewSchema(
		engine.C("rel", engine.Int32), engine.C("x", engine.Int32), engine.C("xclass", engine.Int32),
		engine.C("y", engine.Int32), engine.C("yclass", engine.Int32), engine.C("w", engine.Float64))
	ruleSchema = engine.NewSchema(
		engine.C("shape", engine.Int32), engine.C("head", engine.Int32),
		engine.C("b0", engine.Int32), engine.C("b1", engine.Int32),
		engine.C("c1", engine.Int32), engine.C("c2", engine.Int32), engine.C("c3", engine.Int32),
		engine.C("w", engine.Float64))
	constraintSchema = engine.NewSchema(engine.C("rel", engine.Int32), engine.C("ctype", engine.Int32), engine.C("degree", engine.Int32))
	taxonomySchema   = engine.NewSchema(engine.C("sub", engine.Int32), engine.C("super", engine.Int32))
)

// KBTables renders the KB as the snapshot's named tables. The result is
// a pure function of the KB — same KB, same tables, same bytes.
func KBTables(k *kb.KB, walGen uint32) ([]*engine.Table, error) {
	meta := engine.TableFromColumns("meta", metaSchema,
		[]string{"format", "wal_gen"}, []int32{metaFormatVersion, int32(walGen)})

	rels := engine.NewTable("relations", relSchema)
	rels.Reserve(len(k.Relations))
	for _, r := range k.Relations {
		rels.AppendRow(r.ID, r.Domain, r.Range)
	}
	members := engine.NewTable("members", memberSchema)
	members.Reserve(len(k.Members))
	for _, m := range k.Members {
		members.AppendRow(m.Class, m.Entity)
	}
	facts := engine.NewTable("facts", factSchema)
	facts.Reserve(len(k.Facts))
	for _, f := range k.Facts {
		facts.AppendRow(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.W)
	}
	rules := engine.NewTable("rules", ruleSchema)
	rules.Reserve(len(k.Rules))
	for _, c := range k.Rules {
		part, err := c.Partition()
		if err != nil {
			return nil, fmt.Errorf("store: rule does not partition: %w", err)
		}
		var b1 int32
		if len(c.Body) == 2 {
			b1 = c.Body[1].Rel
		}
		rules.AppendRow(int32(part), c.Head.Rel, c.Body[0].Rel, b1,
			c.Class[0], c.Class[1], c.Class[2], c.Weight)
	}
	constraints := engine.NewTable("constraints", constraintSchema)
	constraints.Reserve(len(k.Constraints))
	for _, c := range k.Constraints {
		constraints.AppendRow(c.Rel, int32(c.Type), int32(c.Degree))
	}
	taxonomy := engine.NewTable("taxonomy", taxonomySchema)
	for _, e := range k.SubclassEdges() {
		taxonomy.AppendRow(e.Sub, e.Super)
	}
	return []*engine.Table{
		meta,
		engine.TableFromColumns("entities", nameSchema, k.Entities.Names()),
		engine.TableFromColumns("classes", nameSchema, k.Classes.Names()),
		engine.TableFromColumns("relnames", nameSchema, k.RelDict.Names()),
		rels, members, facts, rules, constraints, taxonomy,
	}, nil
}

// snapshotLayout is the expected table name/schema sequence; decode
// rejects anything else so a truncated-but-CRC-valid file (impossible
// today, cheap to check anyway) or a reordered one fails loudly.
var snapshotLayout = []struct {
	name   string
	schema engine.Schema
}{
	{"meta", metaSchema},
	{"entities", nameSchema},
	{"classes", nameSchema},
	{"relnames", nameSchema},
	{"relations", relSchema},
	{"members", memberSchema},
	{"facts", factSchema},
	{"rules", ruleSchema},
	{"constraints", constraintSchema},
	{"taxonomy", taxonomySchema},
}

func sameSchema(a, b engine.Schema) bool {
	if a.NumCols() != b.NumCols() {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}

// KBFromTables reconstructs a KB from snapshot tables, returning the
// KB and the WAL generation recorded in meta. Every ID is range-checked
// against the dictionaries before use — the panicking fast paths
// (Dict.Name, mln.Shape) must be unreachable from corrupt input.
func KBFromTables(tables []*engine.Table) (*kb.KB, uint32, error) {
	if len(tables) != len(snapshotLayout) {
		return nil, 0, fmt.Errorf("store: snapshot has %d tables, want %d", len(tables), len(snapshotLayout))
	}
	for i, want := range snapshotLayout {
		if tables[i].Name() != want.name {
			return nil, 0, fmt.Errorf("store: snapshot table %d is %q, want %q", i, tables[i].Name(), want.name)
		}
		if !sameSchema(tables[i].Schema(), want.schema) {
			return nil, 0, fmt.Errorf("store: snapshot table %s has schema %v", want.name, tables[i].Schema())
		}
	}
	meta, entities, classes, relnames := tables[0], tables[1], tables[2], tables[3]
	rels, members, facts, rules, constraints, taxonomy :=
		tables[4], tables[5], tables[6], tables[7], tables[8], tables[9]

	var walGen uint32
	format := int32(-1)
	for r, key := range meta.StringCol(0) {
		switch v := meta.Int32Col(1)[r]; key {
		case "format":
			format = v
		case "wal_gen":
			if v < 0 {
				return nil, 0, fmt.Errorf("store: negative wal generation %d", v)
			}
			walGen = uint32(v)
		}
	}
	if format != metaFormatVersion {
		return nil, 0, fmt.Errorf("store: snapshot format %d, this build reads %d", format, metaFormatVersion)
	}

	k := kb.New()
	intern := func(d *kb.Dict, t *engine.Table) error {
		for _, name := range t.StringCol(0) {
			d.Intern(name)
		}
		if d.Len() != t.NumRows() {
			return fmt.Errorf("store: dictionary %s has duplicate symbols", t.Name())
		}
		return nil
	}
	if err := intern(k.Entities, entities); err != nil {
		return nil, 0, err
	}
	if err := intern(k.Classes, classes); err != nil {
		return nil, 0, err
	}
	if err := intern(k.RelDict, relnames); err != nil {
		return nil, 0, err
	}
	ne, nc, nr := int32(k.Entities.Len()), int32(k.Classes.Len()), int32(k.RelDict.Len())
	inRange := func(id, n int32) bool { return id >= 0 && id < n }

	for r := 0; r < rels.NumRows(); r++ {
		name, dom, rng := rels.Int32Col(0)[r], rels.Int32Col(1)[r], rels.Int32Col(2)[r]
		if !inRange(name, nr) || !inRange(dom, nc) || !inRange(rng, nc) {
			return nil, 0, fmt.Errorf("store: relation row %d references unknown symbols", r)
		}
		k.AddRelation(k.RelDict.Name(name), dom, rng)
	}
	// Members replay before taxonomy: with no subclass edges declared
	// yet nothing propagates, so the Members slice comes out exactly as
	// recorded; the later taxonomy replay only re-adds members that are
	// already present (the source KB upheld that closure).
	for r := 0; r < members.NumRows(); r++ {
		cls, ent := members.Int32Col(0)[r], members.Int32Col(1)[r]
		if !inRange(cls, nc) || !inRange(ent, ne) {
			return nil, 0, fmt.Errorf("store: member row %d references unknown symbols", r)
		}
		k.AddMember(cls, ent)
	}
	for r := 0; r < facts.NumRows(); r++ {
		f := kb.Fact{
			Rel: facts.Int32Col(0)[r],
			X:   facts.Int32Col(1)[r], XClass: facts.Int32Col(2)[r],
			Y: facts.Int32Col(3)[r], YClass: facts.Int32Col(4)[r],
			W: facts.Float64Col(5)[r],
		}
		if !inRange(f.Rel, nr) || !inRange(f.X, ne) || !inRange(f.Y, ne) ||
			!inRange(f.XClass, nc) || !inRange(f.YClass, nc) {
			return nil, 0, fmt.Errorf("store: fact row %d references unknown symbols", r)
		}
		if _, added := k.AddFact(f); !added {
			return nil, 0, fmt.Errorf("store: fact row %d duplicates an earlier key", r)
		}
	}
	for r := 0; r < rules.NumRows(); r++ {
		head, b0, b1 := rules.Int32Col(1)[r], rules.Int32Col(2)[r], rules.Int32Col(3)[r]
		c1, c2, c3 := rules.Int32Col(4)[r], rules.Int32Col(5)[r], rules.Int32Col(6)[r]
		if !inRange(head, nr) || !inRange(b0, nr) || !inRange(b1, nr) ||
			!inRange(c1, nc) || !inRange(c2, nc) || !inRange(c3, nc) {
			return nil, 0, fmt.Errorf("store: rule row %d references unknown symbols", r)
		}
		clause, err := clauseFromShape(int(rules.Int32Col(0)[r]), head, b0, b1, c1, c2, c3,
			rules.Float64Col(7)[r])
		if err != nil {
			return nil, 0, err
		}
		if err := k.AddRule(clause); err != nil {
			return nil, 0, err
		}
	}
	for r := 0; r < constraints.NumRows(); r++ {
		rel := constraints.Int32Col(0)[r]
		if !inRange(rel, nr) {
			return nil, 0, fmt.Errorf("store: constraint row %d references unknown relation", r)
		}
		ct := constraints.Int32Col(1)[r]
		deg := constraints.Int32Col(2)[r]
		if deg < 1 || deg > math.MaxInt32-1 {
			return nil, 0, fmt.Errorf("store: constraint row %d degree %d out of range", r, deg)
		}
		if err := k.AddConstraint(kb.Constraint{Rel: rel, Type: int(ct), Degree: int(deg)}); err != nil {
			return nil, 0, err
		}
	}
	for r := 0; r < taxonomy.NumRows(); r++ {
		sub, super := taxonomy.Int32Col(0)[r], taxonomy.Int32Col(1)[r]
		if !inRange(sub, nc) || !inRange(super, nc) {
			return nil, 0, fmt.Errorf("store: taxonomy row %d references unknown classes", r)
		}
		if err := k.DeclareSubclass(sub, super); err != nil {
			return nil, 0, err
		}
	}
	return k, walGen, nil
}

// WriteSnapshot atomically replaces dir's snapshot file with the given
// KB at the given WAL generation and returns the encoded size.
func WriteSnapshot(fs FS, dir string, k *kb.KB, walGen uint32) (int64, error) {
	tables, err := KBTables(k, walGen)
	if err != nil {
		return 0, err
	}
	data := EncodeTables(tables)
	if err := WriteAtomic(fs, dir, snapFile, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// WriteAtomic atomically replaces dir/name with data. The write order —
// dir/name.tmp, fsync, rename over dir/name, fsync(dir) — guarantees the
// directory always holds either the complete old file or the complete
// new one, never a torn hybrid.
func WriteAtomic(fs FS, dir, name string, data []byte) error {
	tmp := join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// Exists reports whether dir already holds a store snapshot — the
// marker callers check before Create to avoid clobbering a live store.
func Exists(fs FS, dir string) (bool, error) {
	return fs.Exists(join(dir, snapFile))
}

// ReadSnapshot reads dir's snapshot file into a KB plus its WAL
// generation.
func ReadSnapshot(fs FS, dir string) (*kb.KB, uint32, error) {
	data, err := fs.ReadFile(join(dir, snapFile))
	if err != nil {
		return nil, 0, err
	}
	tables, err := DecodeTables(data)
	if err != nil {
		return nil, 0, err
	}
	return KBFromTables(tables)
}

// clauseFromShape reconstructs a canonical clause from its partition
// shape and identifier tuple, rejecting (never panicking on) an
// out-of-range shape: the decoder feeds it untrusted bytes.
func clauseFromShape(part int, head, b0, b1, c1, c2, c3 int32, w float64) (mln.Clause, error) {
	if part < mln.P1 || part > mln.P6 {
		return mln.Clause{}, fmt.Errorf("store: rule shape %d out of range", part)
	}
	h, body := mln.Shape(part)
	c := mln.Clause{Head: h, Weight: w}
	c.Head.Rel = head
	c.Body = append(c.Body, body[0])
	c.Body[0].Rel = b0
	if len(body) == 2 {
		c.Body = append(c.Body, body[1])
		c.Body[1].Rel = b1
	}
	c.Class[mln.X] = c1
	c.Class[mln.Y] = c2
	c.Class[mln.Z] = c3
	if _, err := c.Partition(); err != nil {
		return mln.Clause{}, fmt.Errorf("store: snapshot rule invalid: %w", err)
	}
	return c, nil
}

// join is filepath.Join for store paths; the FS abstraction always
// runs on slash-free relative segments, so plain concatenation keeps
// MemFS paths platform-independent.
func join(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}
