package store

import (
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
)

// fuzzSeedKB is a tiny deterministic KB whose encodings seed both fuzz
// corpora with structurally valid inputs — coverage-guided mutation
// then explores the format from inside, not just from random bytes.
func fuzzSeedKB() *kb.KB {
	k := kb.New()
	k.InternFact("born_in", "ada", "Person", "london", "Place", 0.9)
	k.InternFact("live_in", "ada", "Person", "paris", "Place", 0.5)
	if c, err := k.ParseRule("1.10 live_in(x:Person, y:Place) :- born_in(x:Person, y:Place)"); err == nil {
		k.AddRule(c)
	}
	return k
}

// FuzzSnapshotDecode pins the snapshot decoder's core contract: on
// arbitrary bytes it returns an error or a valid table set — it never
// panics, and whatever decodes must re-encode and decode again (no
// half-valid states escape).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(snapshotMagic[:])
	valid := EncodeTables(mustKBTables(f, fuzzSeedKB()))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])      // torn tail
	f.Add(append(valid, 0xff, 0xff)) // trailing garbage
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0x40 // flip a bit mid-stream
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		tables, err := DecodeTables(data)
		if err != nil {
			return
		}
		// A decoded table set must survive the full round trip: encode is
		// total on valid tables, and re-decoding yields the same shape.
		again, err := DecodeTables(EncodeTables(tables))
		if err != nil {
			t.Fatalf("re-decoding a decoded snapshot failed: %v", err)
		}
		if len(again) != len(tables) {
			t.Fatalf("round trip changed table count: %d vs %d", len(again), len(tables))
		}
		// If the tables happen to form a KB snapshot, reconstruction must
		// not panic either; errors are fine (arbitrary tables are not KBs).
		_, _, _ = KBFromTables(tables)
	})
}

// FuzzWALReplay pins the WAL decoder and replay path: arbitrary bytes
// either stop at a torn tail or decode to records, the reported valid
// length is consistent, and replaying whatever decodes never panics.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	rec := EncodeRecord(Record{Type: RecFacts, Facts: []FactRec{
		{Rel: "born_in", X: "ada", XClass: "Person", Y: "london", YClass: "Place", W: 0.9},
	}})
	del := EncodeRecord(Record{Type: RecDeletes, Facts: []FactRec{
		{Rel: "born_in", X: "ada", XClass: "Person", Y: "london", YClass: "Place"},
	}})
	marg := EncodeRecord(Record{Type: RecMarginals, Facts: []FactRec{
		{Rel: "born_in", X: "ada", XClass: "Person", Y: "london", YClass: "Place", W: 0.42},
	}})
	full := append(append(append([]byte{}, rec...), del...), marg...)
	f.Add(full)
	f.Add(full[:len(full)-5])                       // torn tail mid-record
	dup := append(append([]byte{}, rec...), rec...) // duplicated record
	f.Add(dup)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := DecodeWAL(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("valid length %d outside [0, %d]", validLen, len(data))
		}
		if err != nil {
			return
		}
		// The durable prefix must re-decode to the same record count —
		// truncation at validLen is what recovery does to the file.
		again, againLen, err := DecodeWAL(data[:validLen])
		if err != nil || againLen != validLen || len(again) != len(recs) {
			t.Fatalf("truncated prefix decodes differently: %d recs / %d bytes / %v", len(again), againLen, err)
		}
		// Replay must be panic-free on whatever decoded, and idempotent:
		// applying the stream twice ends in the same fact count.
		k := fuzzSeedKB()
		for _, r := range recs {
			if err := ApplyRecord(k, r); err != nil {
				t.Fatalf("applying decoded record: %v", err)
			}
		}
		n := k.NumFacts()
		for _, r := range recs {
			if err := ApplyRecord(k, r); err != nil {
				t.Fatalf("re-applying decoded record: %v", err)
			}
		}
		if k.NumFacts() != n {
			t.Fatalf("replay not idempotent: %d facts, then %d", n, k.NumFacts())
		}
	})
}

func mustKBTables(f *testing.F, k *kb.KB) []*engine.Table {
	tables, err := KBTables(k, 1)
	if err != nil {
		f.Fatal(err)
	}
	return tables
}
