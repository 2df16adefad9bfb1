package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"probkb/internal/kb"
)

// testKB builds a small KB exercising every persisted structure:
// dictionaries, relation signatures, a taxonomy edge with propagated
// members, facts (one with a NaN weight), rules, and constraints.
func testKB(t *testing.T) *kb.KB {
	t.Helper()
	k := kb.New()
	city := k.Classes.Intern("City")
	place := k.Classes.Intern("Place")
	if err := k.DeclareSubclass(city, place); err != nil {
		t.Fatal(err)
	}
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.InternFact("live_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", math.NaN())
	for _, line := range []string{
		"1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)",
		"0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x:Place), live_in(z, y:City)",
	} {
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: bornIn, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSnapshotRoundTrip(t *testing.T) {
	k := testKB(t)
	tables, err := KBTables(k, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeTables(tables)
	back, err := DecodeTables(data)
	if err != nil {
		t.Fatalf("DecodeTables: %v", err)
	}
	k2, gen, err := KBFromTables(back)
	if err != nil {
		t.Fatalf("KBFromTables: %v", err)
	}
	if gen != 7 {
		t.Fatalf("wal gen = %d, want 7", gen)
	}
	if !bytes.Equal(k.Dump(), k2.Dump()) {
		t.Fatal("snapshot round trip is not bit-identical")
	}
	// Determinism: encoding the same KB twice yields the same bytes.
	tables2, _ := KBTables(k, 7)
	if !bytes.Equal(data, EncodeTables(tables2)) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	k := testKB(t)
	tables, _ := KBTables(k, 1)
	data := EncodeTables(tables)
	// Flip one byte everywhere and expect either an error or (for the
	// few bytes CRC cannot see, i.e. none in this format) equality —
	// never a panic. Checked exhaustively by the fuzz target; here we
	// spot-check the interesting offsets.
	for _, off := range []int{0, 4, 8, 9, 12, 20, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if tabs, err := DecodeTables(mut); err == nil {
			if _, _, err := KBFromTables(tabs); err == nil {
				t.Fatalf("corruption at offset %d went undetected", off)
			}
		}
	}
	// Truncation at every prefix length must error, not panic.
	for n := 0; n < len(data); n += 7 {
		if tabs, err := DecodeTables(data[:n]); err == nil {
			if _, _, err := KBFromTables(tabs); err == nil {
				t.Fatalf("truncation to %d bytes went undetected", n)
			}
		}
	}
}

func TestStoreRecoveryEqualsMirror(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kbstore")
	fs := OSFS{}
	s, err := Create(fs, dir, testKB(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts([]FactRec{
		{Rel: "live_in", X: "Ada", XClass: "Writer", Y: "London", YClass: "City", W: 0.5},
		{Rel: "born_in", X: "Ada", XClass: "Writer", Y: "London", YClass: "City", W: 0.7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendMarginals([]FactRec{
		{Rel: "live_in", X: "Ruth_Gruber", XClass: "Writer", Y: "Brooklyn", YClass: "Place", W: 0.88},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDeletes([]FactRec{
		{Rel: "born_in", X: "Ruth_Gruber", XClass: "Writer", Y: "Brooklyn", YClass: "Place"},
	}); err != nil {
		t.Fatal(err)
	}
	want := s.KB().Dump()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(fs, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if !bytes.Equal(want, r.KB().Dump()) {
		t.Fatal("recovered KB differs from the mirror")
	}
	if r.Gen() != 1 || r.WALRecords() != 3 {
		t.Fatalf("gen=%d records=%d, want 1/3", r.Gen(), r.WALRecords())
	}
}

func TestStoreCheckpointRotatesWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kbstore")
	fs := OSFS{}
	s, err := Create(fs, dir, testKB(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts([]FactRec{
		{Rel: "live_in", X: "Ada", XClass: "Writer", Y: "London", YClass: "City", W: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Gen() != 2 || s.WALRecords() != 0 {
		t.Fatalf("after checkpoint: gen=%d records=%d, want 2/0", s.Gen(), s.WALRecords())
	}
	if _, err := os.Stat(filepath.Join(dir, WALName(1))); !os.IsNotExist(err) {
		t.Fatalf("old WAL not retired: %v", err)
	}
	// Post-checkpoint appends land in the new generation.
	if err := s.AppendFacts([]FactRec{
		{Rel: "live_in", X: "Bob", XClass: "Writer", Y: "Paris", YClass: "City", W: 0.4},
	}); err != nil {
		t.Fatal(err)
	}
	want := s.KB().Dump()
	s.Close()

	r, err := Open(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !bytes.Equal(want, r.KB().Dump()) {
		t.Fatal("recovered KB differs after checkpoint")
	}
	if r.Gen() != 2 || r.WALRecords() != 1 {
		t.Fatalf("gen=%d records=%d, want 2/1", r.Gen(), r.WALRecords())
	}
}

func TestWALTornTailAndDuplicateTail(t *testing.T) {
	recA := EncodeRecord(Record{Type: RecFacts, Facts: []FactRec{
		{Rel: "r", X: "a", XClass: "C", Y: "b", YClass: "D", W: 0.5},
	}})
	recB := EncodeRecord(Record{Type: RecMarginals, Facts: []FactRec{
		{Rel: "r", X: "a", XClass: "C", Y: "b", YClass: "D", W: 0.9},
	}})
	wal := append(append([]byte(nil), recA...), recB...)

	// Every torn prefix decodes to exactly the records fully contained
	// in it, and validLen points at the last record boundary.
	for n := 0; n <= len(wal); n++ {
		recs, validLen, err := DecodeWAL(wal[:n])
		if err != nil {
			t.Fatalf("torn prefix %d: %v", n, err)
		}
		wantRecs, wantLen := 0, 0
		if n >= len(recA) {
			wantRecs, wantLen = 1, len(recA)
		}
		if n >= len(wal) {
			wantRecs, wantLen = 2, len(wal)
		}
		if len(recs) != wantRecs || validLen != wantLen {
			t.Fatalf("prefix %d: got %d recs valid %d, want %d/%d", n, len(recs), validLen, wantRecs, wantLen)
		}
	}

	// A duplicated tail replays idempotently.
	dup := append(append([]byte(nil), wal...), recB...)
	recs, _, err := DecodeWAL(dup)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := kb.New(), kb.New()
	for _, r := range recs {
		if err := ApplyRecord(k1, r); err != nil {
			t.Fatal(err)
		}
	}
	cleanRecs, _, _ := DecodeWAL(wal)
	for _, r := range cleanRecs {
		if err := ApplyRecord(k2, r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(k1.Dump(), k2.Dump()) {
		t.Fatal("duplicated WAL tail changed the replayed state")
	}
}

// TestWriteAtomicReplaces drives the exported atomic-replace helper on
// the real filesystem: the target holds the new bytes, the temp file is
// gone.
func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	fs := OSFS{}
	if err := WriteAtomic(fs, dir, "data.bin", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(fs, dir, "data.bin", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "data.bin"))
	if err != nil || string(got) != "new" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "data.bin.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestStoreAccessors covers the small read-only surface end to end on
// the real filesystem: Exists before/after Create, Dir, SnapshotBytes,
// SetJournal tolerance of nil, and FactRecOf's symbolic rendering.
func TestStoreAccessors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kb")
	fs := OSFS{}
	if ok, err := Exists(fs, dir); err != nil || ok {
		t.Fatalf("Exists on missing dir: %v %v", ok, err)
	}
	k := fuzzSeedKB()
	s, err := Create(fs, dir, k)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ok, err := Exists(fs, dir); err != nil || !ok {
		t.Fatalf("Exists after Create: %v %v", ok, err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q", s.Dir())
	}
	if s.SnapshotBytes() <= 8 {
		t.Fatalf("SnapshotBytes() = %d", s.SnapshotBytes())
	}
	s.SetJournal(nil)
	if err := s.AppendFacts([]FactRec{{Rel: "born_in", X: "eve", XClass: "Person", Y: "oslo", YClass: "Place", W: 0.5}}); err != nil {
		t.Fatal(err)
	}

	rec := FactRecOf(s.KB(), s.KB().FactAt(s.KB().NumFacts()-1))
	if rec.Rel != "born_in" || rec.X != "eve" || rec.YClass != "Place" || rec.W != 0.5 {
		t.Fatalf("FactRecOf = %+v", rec)
	}

	// Open exercises the OSFS read/truncate path with a torn tail: chop
	// the WAL mid-record and recovery must truncate it back.
	walPath := filepath.Join(dir, WALName(s.Gen()))
	s.Close()
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.WALRecords() != 0 {
		t.Fatalf("torn-only WAL replayed %d records", re.WALRecords())
	}
	if got, _ := os.ReadFile(walPath); len(got) != 0 {
		t.Fatalf("torn tail not truncated: %d bytes", len(got))
	}
}
