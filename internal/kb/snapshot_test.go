package kb_test

import (
	"bytes"
	"math"
	"testing"

	"probkb/internal/kb"
	"probkb/internal/store"
)

// roundTrip writes k as a store snapshot file and reads it back.
func roundTrip(t *testing.T, k *kb.KB) *kb.KB {
	t.Helper()
	dir := t.TempDir()
	if _, err := store.WriteSnapshot(store.OSFS{}, dir, k, 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := store.ReadSnapshot(store.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestBinaryRoundTrip round-trips the Table 1 KB, with a taxonomy edge
// and an extra member, through the binary snapshot file: every section
// comes back with its IDs unchanged.
func TestBinaryRoundTrip(t *testing.T) {
	k := kb.ExampleKB(t)
	city, _ := k.Classes.Lookup("City")
	place, _ := k.Classes.Lookup("Place")
	if err := k.DeclareSubclass(city, place); err != nil {
		t.Fatal(err)
	}
	k.AddMember(k.Classes.Intern("Org"), k.Entities.Intern("UN"))

	loaded := roundTrip(t, k)
	if !bytes.Equal(loaded.Dump(), k.Dump()) {
		t.Fatal("loaded snapshot differs from the saved KB")
	}
	lc, _ := loaded.Classes.Lookup("City")
	lp, _ := loaded.Classes.Lookup("Place")
	if !loaded.IsSubclass(lc, lp) {
		t.Fatal("taxonomy lost")
	}
	if errs := loaded.Validate(); len(errs) != 0 {
		t.Fatalf("loaded snapshot invalid: %v", errs)
	}
}

// TestBinaryNaNWeightSurvives checks that a fact whose weight is NaN
// (deferred to learning) keeps it through the binary snapshot file.
func TestBinaryNaNWeightSurvives(t *testing.T) {
	k := kb.New()
	k.InternFact("r", "a", "A", "b", "B", 0.5)
	k.InternFact("r", "b", "A", "a", "B", math.NaN())
	loaded := roundTrip(t, k)
	if len(loaded.Facts) != 2 || !math.IsNaN(loaded.Facts[1].W) {
		t.Fatalf("NaN weight lost: %+v", loaded.Facts)
	}
}
