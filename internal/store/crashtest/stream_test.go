package crashtest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"probkb"
	"probkb/internal/store"
)

// streamedIngestScript records what a real streamed ingest writes — a
// persisted baseline expansion, then batches absorbed with
// ExtendWithDeferred and a RefreshMarginals every second batch, the
// write path behind POST /facts?stream=1 — and replays it as a crash
// script: the store's generation-1 snapshot is the base, each WAL
// record one op, with a checkpoint dropped in mid-stream. The records
// are the ones the O(delta) sync produced, in the shapes it produces
// them: whole batches of inserts over new symbols, marginal updates
// turning NaN into a probability.
func streamedIngestScript(t *testing.T) Script {
	t.Helper()
	build := func() *probkb.KB {
		k := probkb.New()
		k.AddFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
		k.MustAddRule("1.40 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)")
		k.MustAddRule("0.52 located_in(x:City, y:City) :- born_in(z:Writer, x:City), born_in(z, y:City)")
		return k
	}
	dir := filepath.Join(t.TempDir(), "store")
	st, err := probkb.CreateStore(dir, build())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := build().Expand(probkb.Config{
		Engine: probkb.SingleNode, RunInference: true,
		GibbsBurnin: 10, GibbsSamples: 20, Seed: 7, Persist: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cities := []string{"Vienna", "Prague", "Trieste"}
	for i := 0; i < 6; i++ {
		writer := fmt.Sprintf("Writer%d", i/2) // two cities each: located_in pairs
		batch := []probkb.Fact{{
			Rel: "born_in", X: writer, XClass: "Writer",
			Y: cities[i%len(cities)], YClass: "City", Probability: 0.6 + 0.05*float64(i),
		}}
		if exp, err = exp.ExtendWithDeferred(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if exp, err = exp.RefreshMarginals(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	base, gen, err := store.ReadSnapshot(store.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, store.WALName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	recs, validLen, err := store.DecodeWAL(data)
	if err != nil || validLen != len(data) {
		t.Fatalf("the stream's own WAL does not decode cleanly: %v (%d of %d bytes)", err, validLen, len(data))
	}
	if len(recs) < 8 {
		t.Fatalf("the stream logged only %d records", len(recs))
	}
	script := Script{Base: base}
	for i, rec := range recs {
		if i == len(recs)/2 {
			script.Ops = append(script.Ops, Op{Kind: OpCheckpoint})
		}
		script.Ops = append(script.Ops, Op{Kind: rec.Type, Facts: rec.Facts})
	}
	return script
}

// TestCrashStreamedIngest crashes the streamed-ingest script at every
// WAL record boundary, at one offset inside every record, and before
// every filesystem operation, in both survival modes: each recovery
// must equal the prefix-durability oracle — the snapshot plus exactly
// the records that were durable — and accept appends again.
func TestCrashStreamedIngest(t *testing.T) {
	script := streamedIngestScript(t)
	pts, err := Points(script, 1, rand.New(rand.NewSource(20260927)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := RunPoint(script, p); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("streamed ingest: %d ops, %d crash points, all recovered bit-identically", len(script.Ops), len(pts))
}
