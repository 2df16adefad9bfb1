package probkb

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"probkb/internal/obs/journal"
)

// persistConfig is a single-node run with inference on a fixed seed —
// the configuration the durability tests expand under.
func persistConfig() Config {
	return Config{
		Engine:           SingleNode,
		ApplyConstraints: true,
		RunInference:     true,
		GibbsBurnin:      50,
		GibbsSamples:     100,
		Seed:             7,
	}
}

// TestPersistedExpandRecovers runs a persisted expansion, drops the
// store handle without any shutdown courtesy (the crash), and recovers:
// the reopened KB must be bit-identical to the live mirror — facts,
// marginal probabilities, dictionaries, IDs.
func TestPersistedExpandRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := CreateStore(dir, paperKB(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := persistConfig()
	cfg.Persist = st
	exp, err := paperKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err() != nil {
		t.Fatalf("persistence error latched: %v", st.Err())
	}
	if st.WALRecords() == 0 {
		t.Fatal("persisted expansion appended no WAL records")
	}
	live := st.KB().inner.Dump()
	// No Close, no Checkpoint: recovery gets whatever the WAL holds.

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.KB().inner.Dump(); string(got) != string(live) {
		t.Fatal("recovered KB differs from the live mirror")
	}
	if re.Facts() != exp.Stats().TotalFacts {
		t.Fatalf("recovered %d facts, expansion holds %d", re.Facts(), exp.Stats().TotalFacts)
	}
	// Every inferred fact's marginal survived: probabilities live in the
	// recovered weights, not just in the expansion object.
	recovered := re.KB()
	for _, f := range exp.InferredFacts() {
		ok := false
		for i := range recovered.inner.NumFacts() {
			rf := recovered.inner.FactAt(i)
			if recovered.inner.RelDict.Name(rf.Rel) == f.Rel &&
				recovered.inner.Entities.Name(rf.X) == f.X &&
				recovered.inner.Entities.Name(rf.Y) == f.Y &&
				rf.W == f.Probability {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("inferred fact %s(%s, %s) p=%v missing from recovered KB", f.Rel, f.X, f.Y, f.Probability)
		}
	}
}

// TestPersistCheckpointFoldsWAL checkpoints after a persisted run: the
// WAL resets, the generation advances, and recovery still lands on the
// same KB from the snapshot alone.
func TestPersistCheckpointFoldsWAL(t *testing.T) {
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
	live := st.KB().inner.Dump()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.Gen() != 2 || st.WALRecords() != 0 {
		t.Fatalf("after checkpoint: gen=%d records=%d, want gen=2 records=0", st.Gen(), st.WALRecords())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.KB().inner.Dump(); string(got) != string(live) {
		t.Fatal("post-checkpoint recovery differs from the live mirror")
	}
}

// TestCreateStoreRefusesExisting pins the clobber guard: pointing
// CreateStore at a directory that already holds a store must fail.
func TestCreateStoreRefusesExisting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := CreateStore(dir, paperKB(t))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := CreateStore(dir, paperKB(t)); err == nil || !strings.Contains(err.Error(), "already holds a store") {
		t.Fatalf("CreateStore over an existing store: %v", err)
	}
}

// TestOpenOrCreateStore: an empty directory gets a store created from
// load's KB, which the run continues from; a directory holding a store
// is recovered and load is not called.
func TestOpenOrCreateStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	want := paperKB(t)
	st, k, created, err := OpenOrCreateStore(dir, func() (*KB, error) { return want, nil })
	if err != nil || !created || k != want {
		t.Fatalf("first open: created=%v, same KB=%v, %v", created, k == want, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, k, created, err = OpenOrCreateStore(dir, func() (*KB, error) {
		return nil, errors.New("load called for an existing store")
	})
	if err != nil || created {
		t.Fatalf("reopen: created=%v, %v", created, err)
	}
	defer st.Close()
	if string(k.inner.Dump()) != string(st.KB().inner.Dump()) {
		t.Fatal("reopen continues from a KB other than the recovered one")
	}
}

// TestRecoveredKBExtendsIdentically is the differential determinism
// test: expanding and then extending a *recovered* KB must produce
// byte-identical canonical journals to the same pipeline on a KB that
// was never persisted. Same seed, same Config.Hash() — persistence and
// recovery must be invisible to every result-determining byte.
func TestRecoveredKBExtendsIdentically(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := CreateStore(dir, paperKB(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := persistConfig()
	cfg.Persist = st
	exp, err := paperKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Path A: the never-persisted continuation — the expanded KB kept in
	// memory. Path B: the same state read back through snapshot + WAL
	// replay.
	memKB := exp.ToKB()
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recKB := re.KB()

	delta := []Fact{{
		Rel: "born_in", X: "Elie_Wiesel", XClass: "Writer",
		Y: "New_York_City", YClass: "City", Probability: 0.9,
	}}
	pipeline := func(k *KB) ([]journal.Event, []journal.Event) {
		t.Helper()
		e, err := k.Expand(persistConfig())
		if err != nil {
			t.Fatal(err)
		}
		ext, err := e.ExtendWith(delta)
		if err != nil {
			t.Fatal(err)
		}
		return journal.Canonicalize(e.Journal().Events()),
			journal.Canonicalize(ext.Journal().Events())
	}
	memExpand, memExtend := pipeline(memKB)
	recExpand, recExtend := pipeline(recKB)

	diff := func(name string, a, b []journal.Event) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: event counts differ: %d in-memory vs %d recovered", name, len(a), len(b))
		}
		for i := range a {
			ja, _ := json.Marshal(a[i])
			jb, _ := json.Marshal(b[i])
			if string(ja) != string(jb) {
				t.Fatalf("%s: event %d differs:\nin-memory: %s\nrecovered: %s", name, i, ja, jb)
			}
		}
	}
	diff("expand", memExpand, recExpand)
	diff("extend", memExtend, recExtend)
}

// TestCancelledMPPExpandLeavesResumableStore is the regression for the
// observer the MPP closure loop never called: a persisted expansion must
// make every completed grounding iteration durable as it goes on every
// engine, so a run cancelled after iteration k — ExpandContext returns
// the PartialError before its end-of-run sync — leaves iteration k's
// facts in the store. The single-node run cancelled at the same
// iteration is the oracle.
func TestCancelledMPPExpandLeavesResumableStore(t *testing.T) {
	const cancelAfter = 1
	recovered := func(engine Engine) []string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "store")
		st, err := CreateStore(dir, paperKB(t))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := persistConfig()
		cfg.Engine = engine
		cfg.Segments = 2
		cfg.Persist = st
		cfg.OnIteration = func(it IterationStats) {
			if it.Iteration == cancelAfter {
				cancel()
			}
		}
		_, err = paperKB(t).ExpandContext(ctx, cfg)
		var pe *PartialError
		if !errors.As(err, &pe) || pe.Phase != "ground" {
			t.Fatalf("%v: err = %v, want a PartialError in phase ground", engine, err)
		}
		if st.Err() != nil {
			t.Fatalf("%v: persistence error latched: %v", engine, st.Err())
		}
		// No Close, no Checkpoint: the process died with the cancel.
		re, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		k := re.KB().inner
		var facts []string
		for i := range k.NumFacts() {
			f := k.FactAt(i)
			facts = append(facts, k.FactString(f))
		}
		sort.Strings(facts)
		return facts
	}

	want := recovered(SingleNode)
	if base := paperKB(t).inner.NumFacts(); len(want) <= base {
		t.Fatalf("single-node store holds %d facts, no more than the %d base facts: %v", len(want), base, want)
	}
	// Iteration 1 is naive on every engine, Tuffy-T's included, so the
	// engines agree on its facts.
	for _, engine := range []Engine{MPP, Baseline} {
		if got := recovered(engine); !reflect.DeepEqual(got, want) {
			t.Fatalf("cancelled %v run left\n%v\nin the store, single-node left\n%v", engine, got, want)
		}
	}
}
