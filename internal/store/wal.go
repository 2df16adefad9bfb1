package store

import (
	"bytes"
	"fmt"
	"math"

	"probkb/internal/kb"
)

// WAL record types. Each record is one frame (see block.go) whose
// payload is `u8 type | u32 count | count × fact`, with every fact a
// *symbolic* 5-tuple plus weight:
//
//	str rel | str x | str xclass | str y | str yclass | f64 w
//
// Records carry strings, not dictionary IDs, on purpose: replaying
// them in order interns symbols in exactly the order the live KB did,
// so recovered dictionaries assign identical IDs — which is what makes
// recovered KBs bit-identical under kb.KB.Dump and keeps MPP hash
// placement stable across restarts.
//
// Replay is idempotent record-by-record: inserts dedup on the fact
// key, deletes of absent keys no-op, and marginal updates assign (not
// merge) the weight. A crash that leaves a duplicated tail therefore
// recovers to the same state as a clean log.
const (
	// RecFacts inserts weighted facts (ground.Extend, initial load).
	RecFacts = 1
	// RecDeletes removes facts by key (quality constraint repairs);
	// the weight field is ignored.
	RecDeletes = 2
	// RecMarginals assigns inferred marginal probabilities as fact
	// weights.
	RecMarginals = 3
)

// FactRec is one symbolic fact in a WAL record.
type FactRec struct {
	Rel, X, XClass, Y, YClass string
	W                         float64
}

// FactRecOf renders fact f of k symbolically.
func FactRecOf(k *kb.KB, f kb.Fact) FactRec {
	return FactRec{
		Rel: k.RelDict.Name(f.Rel),
		X:   k.Entities.Name(f.X), XClass: k.Classes.Name(f.XClass),
		Y: k.Entities.Name(f.Y), YClass: k.Classes.Name(f.YClass),
		W: f.W,
	}
}

// Record is one decoded WAL record.
type Record struct {
	Type  byte
	Facts []FactRec
}

// EncodeRecord renders the record as one framed byte sequence ready to
// append to a WAL.
func EncodeRecord(rec Record) []byte {
	var p bytes.Buffer
	p.WriteByte(rec.Type)
	putU32(&p, uint32(len(rec.Facts)))
	for _, f := range rec.Facts {
		putStr(&p, f.Rel)
		putStr(&p, f.X)
		putStr(&p, f.XClass)
		putStr(&p, f.Y)
		putStr(&p, f.YClass)
		putU64(&p, math.Float64bits(f.W))
	}
	var buf bytes.Buffer
	appendFrame(&buf, p.Bytes())
	return buf.Bytes()
}

// decodeRecord parses one frame payload into a Record.
func decodeRecord(payload []byte) (Record, error) {
	c := &cursor{data: payload}
	rec := Record{Type: c.u8()}
	if c.err == nil && rec.Type != RecFacts && rec.Type != RecDeletes && rec.Type != RecMarginals {
		return Record{}, fmt.Errorf("store: unknown WAL record type %d", rec.Type)
	}
	count := c.u32()
	if c.err != nil {
		return Record{}, c.err
	}
	if count > maxRows {
		return Record{}, fmt.Errorf("store: WAL record count %d implausible", count)
	}
	// Each fact needs at least 5 length prefixes + the weight.
	if remaining := len(c.data) - c.off; remaining < int(count)*28 {
		return Record{}, fmt.Errorf("store: WAL record holds %d bytes for %d facts", remaining, count)
	}
	rec.Facts = make([]FactRec, count)
	for i := range rec.Facts {
		rec.Facts[i] = FactRec{
			Rel: c.str(maxSymbolLen),
			X:   c.str(maxSymbolLen), XClass: c.str(maxSymbolLen),
			Y: c.str(maxSymbolLen), YClass: c.str(maxSymbolLen),
			W: c.f64(),
		}
	}
	if err := c.done(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// ApplyRecord applies one WAL record to k. The same function runs at
// append time (on the store's live mirror) and at replay time, so
// recovery reproduces the mirror by construction.
func ApplyRecord(k *kb.KB, rec Record) error {
	switch rec.Type {
	case RecFacts:
		for _, f := range rec.Facts {
			k.InternFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.W)
		}
	case RecDeletes:
		keys := make(map[kb.Key]bool, len(rec.Facts))
		for _, f := range rec.Facts {
			if key, ok := KeyOf(k, f); ok {
				keys[key] = true
			}
		}
		k.DeleteFacts(keys)
	case RecMarginals:
		for _, f := range rec.Facts {
			if key, ok := KeyOf(k, f); ok {
				k.SetWeight(key, f.W)
			}
		}
	default:
		return fmt.Errorf("store: unknown WAL record type %d", rec.Type)
	}
	return nil
}

// KeyOf resolves a symbolic fact to its ID key in k's dictionaries; any
// unknown symbol means the fact cannot be present.
func KeyOf(k *kb.KB, f FactRec) (kb.Key, bool) {
	rel, ok1 := k.RelDict.Lookup(f.Rel)
	x, ok2 := k.Entities.Lookup(f.X)
	xc, ok3 := k.Classes.Lookup(f.XClass)
	y, ok4 := k.Entities.Lookup(f.Y)
	yc, ok5 := k.Classes.Lookup(f.YClass)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return kb.Key{}, false
	}
	return kb.Key{Rel: rel, X: x, XClass: xc, Y: y, YClass: yc}, true
}

// DecodeWAL parses a WAL byte stream, tolerating a torn tail: it
// returns the records of the longest valid prefix and the byte offset
// where that prefix ends (the truncation point recovery cuts the file
// back to). Framing damage past valid records is NOT an error — that
// is exactly what a crash leaves behind; only a CRC-valid frame whose
// payload fails to decode reports one, since no crash can produce it.
func DecodeWAL(data []byte) (recs []Record, validLen int, err error) {
	off := 0
	for off < len(data) {
		payload, next, ferr := nextFrame(data, off)
		if ferr != nil {
			return recs, off, nil // torn tail: durable prefix ends here
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return recs, off, derr
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, nil
}

// WALName returns the WAL file name for a generation.
func WALName(gen uint32) string { return fmt.Sprintf("wal.%06d", gen) }
