package probkb

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"probkb/internal/store/crashtest"
)

// TestSnapshotFileRoundTrip saves the crash matrix's random KBs, each
// with a NaN-weighted (deferred) fact added, over one and the same path
// and loads each back: the loaded KB must dump bit-identically (every
// dictionary ID, slice order and weight bit), every save must replace
// the previous file whole, and no temp file may be left behind.
func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.pks")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		inner := crashtest.RandKB(rng)
		inner.InternFact("deferred", "ada", "Person", "nyc", "Place", math.NaN())
		if err := (&KB{inner: inner}).SaveSnapshot(path); err != nil {
			t.Fatalf("KB %d: %v", i, err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("KB %d: %v", i, err)
		}
		if !bytes.Equal(loaded.inner.Dump(), inner.Dump()) {
			t.Fatalf("KB %d: loaded snapshot differs from the saved KB", i)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("KB %d: snapshot directory holds %d entries, want only kb.pks", i, len(entries))
		}
	}
}

// TestLoadRejectsHostileInput feeds Load files that are not snapshots,
// every truncation of a real one, and every single-byte corruption of
// it: each must give an error or an exact round trip, never a panic.
func TestLoadRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	for _, garbage := range [][]byte{nil, []byte("not a snapshot at all"), bytes.Repeat([]byte{0xff}, 64)} {
		if err := os.WriteFile(bad, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Fatalf("garbage %q accepted", garbage)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.pks")); err == nil {
		t.Fatal("missing file accepted")
	}

	k := paperKB(t)
	good := filepath.Join(dir, "good.pks")
	if err := k.SaveSnapshot(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(bad, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", n, len(data))
		}
	}
	want := k.inner.Dump()
	for off := range data {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Load(bad); err == nil && !bytes.Equal(got.inner.Dump(), want) {
			t.Fatalf("corruption at byte %d loaded a different KB", off)
		}
	}
}
