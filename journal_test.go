package probkb

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// journalConfig is an MPP run with inference: over giantKB it exercises
// every journal event type (profiles with per-segment stats, motions,
// repairs, the inference split, checkpoints).
func journalConfig() Config {
	return Config{
		Engine:           MPP,
		Segments:         2,
		ApplyConstraints: true,
		RunInference:     true,
		GibbsBurnin:      50,
		GibbsSamples:     100,
		Seed:             7,
	}
}

// TestJournalFileMatchesInMemory checks -journal's file sink records the
// exact event stream the in-memory journal holds, and that the header
// carries the seed and config hash.
func TestJournalFileMatchesInMemory(t *testing.T) {
	cfg := journalConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "run.jsonl")
	exp, err := giantKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fromFile, err := journal.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile.Events, exp.Journal().Events()) {
		t.Fatal("file journal differs from in-memory journal")
	}
	h := fromFile.Header
	if h == nil || h.Seed != 7 || h.Segments != 2 || h.ConfigHash != cfg.Hash() {
		t.Fatalf("header = %+v, want seed=7 segments=2 hash=%s", h, cfg.Hash())
	}
	if fromFile.End == nil || fromFile.End.InferredFacts != len(exp.InferredFacts()) {
		t.Fatalf("run_end = %+v", fromFile.End)
	}
	if len(fromFile.Profiles) == 0 || len(fromFile.Checkpoints) == 0 {
		t.Fatalf("journal missing profiles (%d) or checkpoints (%d)",
			len(fromFile.Profiles), len(fromFile.Checkpoints))
	}
	// Two components: the paper's five atoms, enumerated, and the 32-atom
	// one the checkpoints above come from.
	if in := fromFile.Inference; in == nil || *in != (journal.Inference{Components: 2, Exact: 1, SampledVars: 32, MaxComponent: 32}) {
		t.Fatalf("inference event = %+v", in)
	}
	// probkb top reads the same split from /metrics.
	for name, want := range map[string]float64{
		"probkb_infer_components": 2, "probkb_infer_exact_components": 1,
		"probkb_infer_sampled_vars": 32, "probkb_infer_max_component": 32,
	} {
		if got := obs.Default.Snapshot()[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// A run with nothing to sample journals its split and no checkpoint.
	small, err := paperKB(t).Expand(journalConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := journal.FromEvents(small.Journal().Events())
	if err != nil {
		t.Fatal(err)
	}
	if in := run.Inference; in == nil || in.Exact != in.Components || in.SampledVars != 0 || len(run.Checkpoints) != 0 {
		t.Fatalf("paper KB: inference event %+v with %d checkpoints, want all exact and none", in, len(run.Checkpoints))
	}

	// An MPP run's profiles carry per-segment breakdowns the skew
	// analyzer can use.
	prof := journal.Analyze(fromFile)
	if len(prof.Skew) == 0 {
		t.Fatal("MPP run produced no skew rows")
	}
	if len(prof.Motions) == 0 {
		t.Fatal("MPP run produced no motion events")
	}
}

// TestJournalDeterministic: two same-seed runs differ only in timing, so
// their canonicalized journals are byte-identical — the diffability
// contract the header's seed and config hash promise.
func TestJournalDeterministic(t *testing.T) {
	canon := func() []journal.Event {
		exp, err := giantKB(t).Expand(journalConfig())
		if err != nil {
			t.Fatal(err)
		}
		return journal.Canonicalize(exp.Journal().Events())
	}
	a, b := canon(), canon()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ja, _ := json.Marshal(a[i])
		jb, _ := json.Marshal(b[i])
		if string(ja) != string(jb) {
			t.Fatalf("event %d differs:\n%s\n%s", i, ja, jb)
		}
	}
}

// TestConfigHash: the hash pins run-determining knobs and ignores
// outputs like JournalPath.
func TestConfigHash(t *testing.T) {
	base := journalConfig()
	same := base
	same.JournalPath = "/elsewhere/run.jsonl"
	if base.Hash() != same.Hash() {
		t.Fatal("JournalPath changed the config hash")
	}
	reseeded := base
	reseeded.Seed = 8
	if base.Hash() == reseeded.Hash() {
		t.Fatal("seed change kept the config hash")
	}
	reengined := base
	reengined.Engine = SingleNode
	if base.Hash() == reengined.Hash() {
		t.Fatal("engine change kept the config hash")
	}
}
