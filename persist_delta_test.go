package probkb

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/store"
)

// This file is the durability differential for the O(delta) sync: the
// WAL a store writes while it stays in step with the facts table must
// equal, byte for byte, the WAL the full diff writes. The oracle is the
// same code made forgetful — a store knocked out of step before every
// sync can only take the full diff.

// walBytes reads the store's current WAL generation off disk.
func walBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(st.Dir(), store.WALName(st.Gen())))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSyncDeltaMatchesFullDiff drives Store.sync directly with the table mutations grounding,
// constraint repair and inference perform — plus the ones they never do
// to a synced table, which must fall back — on a pair of stores: one
// left to choose its path, one forced through the full diff every time.
func TestSyncDeltaMatchesFullDiff(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src := paperKB(t).inner
			dirA := filepath.Join(t.TempDir(), "a")
			dirB := filepath.Join(t.TempDir(), "b")
			a, err := CreateStore(dirA, &KB{inner: src})
			if err != nil {
				t.Fatal(err)
			}
			b, err := CreateStore(dirB, &KB{inner: src})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { a.Close(); b.Close() }()

			tpi := src.FactsTable()
			var from *engine.Table
			// wroteIDs lists the facts whose weights the mutations since
			// the last sync wrote; each sync is handed their rows, as
			// inference reports its pending rows.
			var wroteIDs []int32
			next := int32(tpi.NumRows())
			have := map[kb.Key]bool{}
			for r := 0; r < tpi.NumRows(); r++ {
				have[kb.FactAtRow(tpi, r).Key()] = true
			}
			weight := func() float64 {
				if rng.Intn(3) == 0 {
					return engine.NullFloat64()
				}
				return float64(rng.Intn(1000)) / 1000
			}
			check := func(step string) {
				t.Helper()
				var wrote []int32
				for _, id := range wroteIDs {
					if r, ok := slices.BinarySearch(tpi.Int32Col(kb.TPiI), id); ok {
						wrote = append(wrote, int32(r))
					}
				}
				slices.Sort(wrote)
				wrote = slices.Compact(wrote)
				if err := a.sync(src, tpi, from, wrote); err != nil {
					t.Fatal(err)
				}
				b.step = inStep{}
				if err := b.sync(src, tpi, from, wrote); err != nil {
					t.Fatal(err)
				}
				wroteIDs = wroteIDs[:0]
				if !bytes.Equal(walBytes(t, a), walBytes(t, b)) {
					t.Fatalf("after %s: delta-path WAL differs from the full diff's", step)
				}
				if got, want := a.KB().inner.Dump(), b.KB().inner.Dump(); !bytes.Equal(got, want) {
					t.Fatalf("after %s: mirrors differ", step)
				}
				if a.Facts() != tpi.NumRows() {
					t.Fatalf("after %s: mirror holds %d facts, table %d", step, a.Facts(), tpi.NumRows())
				}
			}
			mutate := func() string {
				switch rng.Intn(9) {
				case 0, 1, 2: // grounding: append a few rows, some with new symbols
					for i, n := 0, 1+rng.Intn(4); i < n; i++ {
						cx, cy := src.Classes.Intern("Writer"), src.Classes.Intern(fmt.Sprintf("C%d", rng.Intn(3)))
						f := kb.Fact{
							Rel: src.RelDict.Intern(fmt.Sprintf("r%d", rng.Intn(3))),
							X:   src.Entities.Intern(fmt.Sprintf("e%d", rng.Intn(12))), XClass: cx,
							Y: src.Entities.Intern(fmt.Sprintf("e%d", rng.Intn(12))), YClass: cy,
							W: weight(),
						}
						if have[f.Key()] {
							continue
						}
						have[f.Key()] = true
						tpi.AppendRow(next, f.Rel, f.X, f.XClass, f.Y, f.YClass, f.W)
						next++
					}
					return "append"
				case 3: // inference: rewrite some weights in place, declaring the rows
					if n := tpi.NumRows(); n > 0 {
						ws := tpi.MutableFloat64Col(kb.TPiW, 0)
						for i := 0; i < 3; i++ {
							r := rng.Intn(n)
							ws[r] = weight()
							wroteIDs = append(wroteIDs, tpi.Int32Col(kb.TPiI)[r])
						}
					}
					return "reweight"
				case 4: // constraint repair: order-preserving deletion anywhere
					tpi.DeleteWhere(func(r int) bool {
						if rng.Intn(6) != 0 {
							return false
						}
						delete(have, kb.FactAtRow(tpi, r).Key())
						return true
					})
					return "delete"
				case 5: // ground.Extend: the next generation grows a declared Fork
					from, tpi = tpi, tpi.Fork()
					return "declared successor"
				case 6: // a fresh table nobody vouches for
					from, tpi = nil, tpi.Clone()
					return "undeclared clone"
				case 7: // POST /admin/snapshot mid-stream
					if err := a.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := b.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					return "checkpoint"
				default: // crash and recover: the reopened store is out of step
					a.Close()
					b.Close()
					if a, err = OpenStore(dirA); err != nil {
						t.Fatal(err)
					}
					if b, err = OpenStore(dirB); err != nil {
						t.Fatal(err)
					}
					return "reopen"
				}
			}
			check("first sync")
			for op := 0; op < 30; op++ {
				// One to three mutations between syncs, as one grounding
				// iteration appends and then repairs: a deletion inside the
				// synced prefix hidden behind as many appended rows must
				// still be noticed.
				var step string
				for m, n := 0, 1+rng.Intn(3); m < n; m++ {
					if m > 0 {
						step += " + "
					}
					step += mutate()
				}
				fullBefore := a.fullSyncs
				check(step)
				if (strings.Contains(step, "undeclared clone") || strings.Contains(step, "reopen")) && a.fullSyncs != fullBefore+1 {
					t.Fatalf("%s must fall back to the full diff", step)
				}
			}
			if b.deltaSyncs != 0 {
				t.Fatalf("oracle store took the delta path %d times", b.deltaSyncs)
			}
			// The last sync left both tables and mirrors equal: syncing
			// again is a no-op on either path.
			before := a.WALRecords()
			if err := a.sync(src, tpi, from, nil); err != nil {
				t.Fatal(err)
			}
			a.step = inStep{}
			if err := a.sync(src, tpi, from, nil); err != nil {
				t.Fatal(err)
			}
			if a.WALRecords() != before {
				t.Fatalf("re-syncing an unchanged table appended %d records", a.WALRecords()-before)
			}
		})
	}
}

// forgetful returns cfg with callbacks that knock st out of step before
// every sync that can find something to log: each grounding iteration's
// observer and the post-inference sync. A run under it takes the full
// diff wherever the facts table changed.
func forgetful(cfg Config, st *Store) Config {
	cfg.OnIteration = func(IterationStats) { st.step = inStep{} }
	cfg.OnGibbsSweep = func(GibbsSweep) { st.step = inStep{} }
	return cfg
}

// bothWays runs the same persisted workload on two fresh stores over
// base — one choosing its sync path, one forgetful — requires identical
// WAL bytes, and returns the store that chose.
func bothWays(t *testing.T, base func() *KB, cfg Config, run func(st *Store, cfg Config)) *Store {
	t.Helper()
	var stores [2]*Store
	for i := range stores {
		st, err := CreateStore(filepath.Join(t.TempDir(), "store"), base())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		c := cfg
		c.Persist = st
		if i == 1 {
			c = forgetful(c, st)
		}
		run(st, c)
		if st.Err() != nil {
			t.Fatalf("persistence error latched: %v", st.Err())
		}
		stores[i] = st
	}
	got, want := walBytes(t, stores[0]), walBytes(t, stores[1])
	if len(want) == 0 {
		t.Fatal("the workload logged nothing")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delta-path WAL (%d bytes, %d records) differs from the full diff's (%d bytes, %d records)",
			len(got), stores[0].WALRecords(), len(want), stores[1].WALRecords())
	}
	return stores[0]
}

// TestStreamWALMatchesFullDiff is the end-to-end differential over the
// streaming write path: random fact streams, batch splits and refresh
// points, absorbed with ExtendWithDeferred / ExtendWith / RefreshMarginals.
func TestStreamWALMatchesFullDiff(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 10, GibbsSamples: 30, Seed: 7}
	cases := 12
	if testing.Short() {
		cases = 4
	}
	for seed := int64(1); seed <= int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := ingestStream()
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		// Repeats of earlier facts (no-op batches) and facts over brand-new
		// symbols (the fork's write barrier) ride along.
		stream = append(stream, stream[0], Fact{
			Rel: "died_in", X: fmt.Sprintf("Writer%d", seed), XClass: "Author",
			Y: "Vienna", YClass: "City", Probability: 0.7,
		})
		var sizes []int
		for left := len(stream); left > 0; {
			n := 1 + rng.Intn(4)
			sizes = append(sizes, n)
			left -= n
		}
		batches := splitStream(stream, sizes)
		refreshAt := map[int]bool{}
		inferAt := map[int]bool{}
		for i := range batches {
			switch rng.Intn(4) {
			case 0:
				refreshAt[i] = true
			case 1:
				inferAt[i] = true
			}
		}
		st := bothWays(t, func() *KB { return ingestBaseKB(t) }, cfg, func(_ *Store, cfg Config) {
			exp, err := ingestBaseKB(t).Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i, b := range batches {
				if inferAt[i] {
					exp, err = exp.ExtendWithContext(ctx, b)
				} else {
					exp, err = exp.ExtendWithDeferred(ctx, b)
				}
				if err != nil {
					t.Fatal(err)
				}
				if refreshAt[i] {
					if exp, err = exp.RefreshMarginals(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		// One full diff when the baseline's table is first seen; every
		// generation after it descends from a synced table.
		if st.fullSyncs != 1 || st.deltaSyncs == 0 {
			t.Fatalf("seed %d: %d full and %d delta syncs, want exactly one full diff", seed, st.fullSyncs, st.deltaSyncs)
		}
	}
}

// repairKB derives, on its second iteration, a born_in fact that breaks
// the relation's functional constraint against a base fact the first
// iteration's sync already made durable: the repair drops every fact of
// the ambiguous entity, reaching into the synced prefix. The other
// writers make the same iteration append more rows than the repair
// removes, so the table does not shrink — only the fact ID at the
// synced row count gives the deletion away.
func repairKB(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.AddFact("born_in", "Kafka", "Writer", "Prague", "City", 0.9)
	for _, w := range []string{"Kafka", "Rilke", "Zweig", "Musil", "Broch"} {
		k.AddFact("schooled_in", w, "Writer", "Vienna", "City", 0.8)
	}
	k.MustAddRule("1.10 raised_in(x:Writer, y:City) :- schooled_in(x:Writer, y:City)")
	for _, rel := range []string{"born_in", "visited", "toured", "wrote_in"} {
		k.MustAddRule(fmt.Sprintf("0.90 %s(x:Writer, y:City) :- raised_in(x:Writer, y:City)", rel))
	}
	if err := k.AddConstraint("born_in", TypeI, 1); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestFallbackLegsMatchFullDiff covers the runs in which the store must
// notice it is out of step: the WAL still equals the oracle's, and the
// sync counters show the full diff was taken where it had to be.
func TestFallbackLegsMatchFullDiff(t *testing.T) {
	t.Run("constraint hook deletes synced rows", func(t *testing.T) {
		var deleted []int
		grew := true
		st := bothWays(t, func() *KB { return repairKB(t) }, persistConfig(), func(_ *Store, cfg Config) {
			exp, err := repairKB(t).Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			deleted = deleted[:0]
			for _, it := range exp.PerIteration() {
				if it.Deleted > 0 {
					deleted = append(deleted, it.Iteration)
					grew = grew && it.NewFacts >= it.Deleted
				}
			}
		})
		if len(deleted) == 0 || deleted[0] < 2 || !grew {
			t.Fatalf("fixture drifted: deletions in iterations %v (table grew: %t), want them after the first sync and outnumbered by that iteration's new facts", deleted, grew)
		}
		// The first table of the run, and each iteration that deleted below
		// the synced row count.
		if st.fullSyncs < 2 {
			t.Fatalf("%d full syncs: a deletion inside the synced prefix must fall back", st.fullSyncs)
		}
	})

	t.Run("probkb-p", func(t *testing.T) {
		cfg := persistConfig()
		cfg.Engine = MPP
		cfg.Segments = 2
		st := bothWays(t, func() *KB { return paperKB(t) }, cfg, func(_ *Store, cfg Config) {
			if _, err := paperKB(t).Expand(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if st.fullSyncs == 0 {
			t.Fatal("an MPP run's master table was never diffed in full")
		}
	})

	t.Run("second Expand on a resumed store", func(t *testing.T) {
		var resumed [2]*Store
		for i := range resumed {
			dir := filepath.Join(t.TempDir(), "store")
			st, err := CreateStore(dir, paperKB(t))
			if err != nil {
				t.Fatal(err)
			}
			cfg := persistConfig()
			cfg.Persist = st
			if _, err := paperKB(t).Expand(cfg); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			cfg.Persist = re
			cfg.Seed = 11 // new marginals: the second run has something to log
			if i == 1 {
				cfg = forgetful(cfg, re)
			}
			exp, err := re.KB().Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// And a streamed batch on top of the resumed run.
			if _, err := exp.ExtendWithDeferred(context.Background(), []Fact{{
				Rel: "born_in", X: "Elie_Wiesel", XClass: "Writer", Y: "New_York_City", YClass: "City", Probability: 0.9,
			}}); err != nil {
				t.Fatal(err)
			}
			resumed[i] = re
		}
		if !bytes.Equal(walBytes(t, resumed[0]), walBytes(t, resumed[1])) {
			t.Fatal("resumed store: delta-path WAL differs from the full diff's")
		}
		if resumed[0].fullSyncs != 1 || resumed[0].deltaSyncs == 0 {
			t.Fatalf("resumed store: %d full and %d delta syncs, want the first sync after OpenStore — and only it — in full",
				resumed[0].fullSyncs, resumed[0].deltaSyncs)
		}
	})
}

// TestCheckpointKeepsStoreInStep pins the checkpoint contract the
// server's POST /admin/snapshot relies on: folding the WAL does not
// touch the mirror, so the next batch is still logged by the delta path
// and recovery lands on the same KB.
func TestCheckpointKeepsStoreInStep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := CreateStore(dir, ingestBaseKB(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: SingleNode, Persist: st}
	exp, err := ingestBaseKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := ingestStream()
	if exp, err = exp.ExtendWithDeferred(context.Background(), stream[:4]); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full := st.fullSyncs
	if exp, err = exp.ExtendWithDeferred(context.Background(), stream[4:8]); err != nil {
		t.Fatal(err)
	}
	if st.fullSyncs != full {
		t.Fatal("a checkpoint knocked the store out of step")
	}
	if st.WALRecords() == 0 {
		t.Fatal("the batch after the checkpoint logged nothing")
	}
	live := st.KB().inner.Dump()
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(re.KB().inner.Dump(), live) {
		t.Fatal("recovery after checkpoint + delta batch differs from the live mirror")
	}
	if re.Facts() != exp.Stats().TotalFacts {
		t.Fatalf("recovered %d facts, expansion holds %d", re.Facts(), exp.Stats().TotalFacts)
	}
}
