package store

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenKB is the fixture the layout golden pins: deterministic, and
// small enough that the rendered layout stays reviewable, but touching
// every engine table the snapshot carries (facts, rules, constraints,
// members, taxonomy).
func goldenKB(t *testing.T) *kb.KB {
	t.Helper()
	k := kb.New()
	person := k.Classes.Intern("Person")
	place := k.Classes.Intern("Place")
	if err := k.DeclareSubclass(person, place); err != nil {
		t.Fatal(err)
	}
	k.InternFact("born_in", "ada", "Person", "london", "Place", 0.9)
	k.InternFact("live_in", "grace", "Person", "nyc", "Place", 0.75)
	c, err := k.ParseRule("1.10 live_in(x:Person, y:Place) :- born_in(x:Person, y:Place)")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(c); err != nil {
		t.Fatal(err)
	}
	rel, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(kb.Constraint{Rel: rel, Type: kb.TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	return k
}

// renderLayout walks a snapshot byte stream frame by frame and renders
// its physical layout: offsets, lengths, CRCs, frame kinds, and the
// decoded header fields. Pinning this text pins the on-disk format —
// any byte-level change to the encoding shows up as a golden diff.
func renderLayout(t *testing.T, data []byte) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "magic    %q (%d bytes)\n", data[:8], 8)
	off, idx := 8, 0
	for off < len(data) {
		payload, next, err := nextFrame(data, off)
		if err != nil {
			t.Fatalf("frame %d at offset %d: %v", idx, off, err)
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		c := &cursor{data: payload}
		switch kind := c.u8(); kind {
		case frameTableHeader:
			name := c.name()
			nrows := c.u32()
			ncols := c.u16()
			fmt.Fprintf(&b, "frame %-2d off %-5d len %-5d crc %08x  table-header %q rows=%d cols=%d\n",
				idx, off, len(payload), crc, name, nrows, ncols)
			for i := 0; i < int(ncols); i++ {
				cn := c.name()
				ct := engine.ColType(c.u8())
				fmt.Fprintf(&b, "         col %d: %-8s %v\n", i, cn, ct)
			}
		case frameColumn:
			ci := c.u16()
			ct := engine.ColType(c.u8())
			count := c.u32()
			fmt.Fprintf(&b, "frame %-2d off %-5d len %-5d crc %08x  column idx=%d type=%v count=%d\n",
				idx, off, len(payload), crc, ci, ct, count)
		default:
			t.Fatalf("frame %d: unknown kind %d", idx, kind)
		}
		if c.err != nil {
			t.Fatalf("frame %d: %v", idx, c.err)
		}
		off = next
		idx++
	}
	fmt.Fprintf(&b, "total    %d bytes, %d frames\n", len(data), idx)
	return b.String()
}

// TestSnapshotGoldenLayout pins the snapshot header and block layout of
// the fixture KB byte for byte (offsets, lengths, per-frame CRCs). A
// failure means the on-disk format changed: if that is deliberate, bump
// the magic's version suffix and refresh with `go test -run
// TestSnapshotGoldenLayout ./internal/store -update`.
func TestSnapshotGoldenLayout(t *testing.T) {
	tables, err := KBTables(goldenKB(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	got := renderLayout(t, EncodeTables(tables))

	golden := filepath.Join("testdata", "snapshot_layout.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (refresh with -update)", err)
	}
	if got != string(want) {
		t.Errorf("snapshot layout changed (refresh with -update if deliberate)\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The layout is only trustworthy if the bytes still decode to the
	// same KB: round-trip the fixture for good measure.
	k2, gen, err := KBFromTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 || k2.NumFacts() != 2 {
		t.Fatalf("fixture round trip: gen=%d facts=%d", gen, k2.NumFacts())
	}
}
