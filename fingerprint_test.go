package probkb

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
)

// Grounding's output is pinned byte for byte: TΠ (every column, fact IDs
// included, in row order) and TΦ (in row order) after Expand on the
// scale-0.05 corpus (seed 42, what kbgen writes by default), constrained
// and not, and after a 4-batch ExtendWith stream on top of each. The
// deferred keys pin the streaming-ingest path under inference: Expand,
// four ExtendWithDeferred batches, then RefreshMarginals, so the weight
// column carries marginals and TΦ's singleton weights carry them too. The
// baseline keys pin Expand on Tuffy-T's per-rule plans. The
// unconstrained run's candidate order decides its fact IDs: a semi-naive
// leg emitting its rows in another order fails it. The fingerprints were recorded before the
// semi-naive Δ legs moved onto the entity index, the deferred ones before
// the factor phase was maintained from the Δ; a change to grounding's
// physical plans must leave every one of them as it is. A change that
// means to alter the output (a new rule semantics, a different merge
// order) updates them and says why.
var groundingFingerprints = map[string]string{
	"constrained/expand":     "81079efd584fed88/972eff8b94e310f4",
	"constrained/extend":     "20e813984f096753/e3bf261839d04908",
	"unconstrained/expand":   "5b462643e67fc6e8/8eab2436df18d0f6",
	"unconstrained/extend":   "cee3d08bace5a9c5/0ce2c416d2b8c520",
	"constrained/deferred":   "fae92abd27442e09/076fa5b6737975a4",
	"unconstrained/deferred": "583d5a1fc86294a5/a0faaeadd34b5afa",
	"constrained/baseline":   "4bf827fda037e8ab/a7f0b85cbc6876ee",
	"unconstrained/baseline": "2b02b4c230dcf35a/7adf65f7a3c37bd6",
}

// tableFingerprint hashes every column of t in row order: Int32 values
// as 4 little-endian bytes, or as their symbol when sym names one for the
// column; Float64 values as their IEEE bits (so NULL, a NaN, hashes by
// its payload); Strings and symbols with a length prefix.
func tableFingerprint(t *engine.Table, sym map[int]*kb.Dict) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:n])
	}
	put(uint64(t.NumRows()), 8)
	for c, col := range t.Schema().Cols {
		switch col.Type {
		case engine.Int32:
			d := sym[c]
			for _, v := range t.Int32Col(c) {
				if d == nil {
					put(uint64(uint32(v)), 4)
					continue
				}
				name := d.Name(v)
				put(uint64(len(name)), 8)
				h.Write([]byte(name))
			}
		case engine.Float64:
			for _, v := range t.Float64Col(c) {
				put(math.Float64bits(v), 8)
			}
		case engine.String:
			for _, v := range t.StringCol(c) {
				put(uint64(len(v)), 8)
				h.Write([]byte(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// expansionFingerprint is TΠ's fingerprint, then TΦ's. TΠ's relation,
// entity and class columns hash by symbol: Synthesize interns symbols in
// an order that varies between processes, so their IDs do (fact IDs, and
// hence TΦ, do not).
func expansionFingerprint(e *Expansion) string {
	k := e.kb
	sym := map[int]*kb.Dict{kb.TPiR: k.RelDict, kb.TPiX: k.Entities, kb.TPiC1: k.Classes, kb.TPiY: k.Entities, kb.TPiC2: k.Classes}
	return tableFingerprint(e.res.Facts, sym) + "/" + tableFingerprint(e.res.Factors, nil)
}

// streamBatches derives n batches of size new facts from e's own facts:
// each pairs a fact's subject with the object of the fact before it
// when both share a relation, skipping pairs the KB already holds. The
// stride spreads the batches over the whole table.
func streamBatches(e *Expansion, n, size int) [][]Fact {
	facts := e.Facts()
	seen := make(map[[3]string]bool, len(facts))
	for _, f := range facts {
		seen[[3]string{f.Rel, f.X, f.Y}] = true
	}
	var out []Fact
	for i := 1; i < len(facts) && len(out) < n*size; i += 7 {
		a, b := facts[i], facts[i-1]
		k := [3]string{a.Rel, a.X, b.Y}
		if a.Rel != b.Rel || a.X == b.Y || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, Fact{Rel: a.Rel, X: a.X, XClass: a.XClass, Y: b.Y, YClass: b.YClass, Probability: 0.9})
	}
	batches := make([][]Fact, 0, n)
	for len(out) >= size && len(batches) < n {
		batches = append(batches, out[:size])
		out = out[size:]
	}
	return batches
}

func TestGroundingFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds the scale-0.05 corpus five times")
	}
	for _, constrained := range []bool{true, false} {
		name := "unconstrained"
		if constrained {
			name = "constrained"
		}
		t.Run(name, func(t *testing.T) {
			k, _, err := Synthesize(0.05, 42)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Engine: SingleNode, ApplyConstraints: constrained, Seed: 1}
			e, err := k.Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{name + "/expand": expansionFingerprint(e)}
			batches := streamBatches(e, 4, 32)
			if len(batches) != 4 {
				t.Fatalf("derived %d batches, want 4", len(batches))
			}
			for _, b := range batches {
				if e, err = e.ExtendWith(b); err != nil {
					t.Fatal(err)
				}
			}
			got[name+"/extend"] = expansionFingerprint(e)

			cfg.RunInference = true
			e, err = k.Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if e, err = e.ExtendWithDeferred(context.Background(), b); err != nil {
					t.Fatal(err)
				}
			}
			if e, err = e.RefreshMarginals(context.Background()); err != nil {
				t.Fatal(err)
			}
			got[name+"/deferred"] = expansionFingerprint(e)

			if e, err = k.Expand(Config{Engine: Baseline, ApplyConstraints: constrained, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			got[name+"/baseline"] = expansionFingerprint(e)
			for key, fp := range got {
				if want := groundingFingerprints[key]; fp != want {
					t.Errorf("%s: fingerprint %s, want %s", key, fp, want)
				}
			}
		})
	}
}
