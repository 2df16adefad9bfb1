package journal

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// emitSampleRun writes one event of every type, the shape a real
// expansion produces.
func emitSampleRun(w *Writer) {
	w.Emit(TypeRunStart, Header{Engine: "ProbKB-p", Segments: 2, Seed: 7, ConfigHash: "deadbeef00000000", Start: "2026-01-01T00:00:00Z"})
	w.Emit(TypeIteration, Iteration{Phase: "ground", Iteration: 1, NewFacts: 40, Deleted: 3, Queries: 6, Seconds: 0.01})
	w.EmitProfile(QueryProfile{
		Query: "mpp-atoms", Partition: 3, Iteration: 1,
		Plan: PlanNode{
			Label: "Gather Motion", Rows: 40, Seconds: 0.004,
			Children: []PlanNode{{
				Label: "Redistribute Motion (hash x)", Rows: 40, Seconds: 0.002,
				SegRows: []int{39, 1}, SegSeconds: []float64{0.0019, 0.0001},
				MovedRows: 22, MovedBytes: 616,
				Children: []PlanNode{{
					Label: "Hash Join on x", Rows: 40, Seconds: 0.001,
					SegRows: []int{20, 20}, SegSeconds: []float64{0.0005, 0.0005},
				}},
			}},
		},
	})
	w.Emit(TypeConstraintRepair, Repair{Iteration: 1, Violations: 2, Deleted: 3})
	w.Emit(TypeInference, Inference{Components: 12, Exact: 11, SampledVars: 100, MaxComponent: 100})
	w.Emit(TypeGibbsCheckpoint, GibbsCheckpoint{Sweep: 50, Burnin: true, Vars: 100, Flips: 31, Seconds: 0.002, SamplesPerSec: 2.5e6})
	w.Emit(TypeGibbsCheckpoint, GibbsCheckpoint{
		Sweep: 100, Vars: 100, Flips: 29, Seconds: 0.004, SamplesPerSec: 2.5e6,
		RHatMax: 1.05, ESSMin: 40,
		Tracked: []VarDiagnostic{{Var: 0, FactID: 17, Mean: 0.66, RHat: 1.05, ESS: 40}},
	})
	w.Emit(TypeRunEnd, RunEnd{
		Iterations: 1, Converged: true, BaseFacts: 100, InferredFacts: 40, TotalFacts: 140,
		Factors: 80, LoadSeconds: 0.001, GroundSeconds: 0.01, FactorSeconds: 0.002, InferSeconds: 0.004,
	})
}

// TestRoundTrip writes a full run to a JSONL file and checks every
// payload survives the file round trip without loss.
func TestRoundTrip(t *testing.T) {
	w := New()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := w.SinkTo(path); err != nil {
		t.Fatal(err)
	}
	emitSampleRun(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	run, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := FromEvents(w.Events())
	if err != nil {
		t.Fatal(err)
	}

	if run.Header == nil || run.Header.Seed != 7 || run.Header.ConfigHash != "deadbeef00000000" {
		t.Fatalf("header = %+v", run.Header)
	}
	if len(run.Iterations) != 1 || run.Iterations[0].NewFacts != 40 {
		t.Fatalf("iterations = %+v", run.Iterations)
	}
	if len(run.Profiles) != 1 {
		t.Fatalf("profiles = %d", len(run.Profiles))
	}
	motion := run.Profiles[0].Plan.Children[0]
	if !reflect.DeepEqual(motion.SegRows, []int{39, 1}) || motion.MovedBytes != 616 {
		t.Fatalf("motion node = %+v", motion)
	}
	// EmitProfile extracts motion nodes into standalone motion events.
	if len(run.Motions) != 1 || run.Motions[0].Kind != "redistribute" || run.Motions[0].Rows != 22 {
		t.Fatalf("motions = %+v", run.Motions)
	}
	if len(run.Repairs) != 1 || run.Repairs[0].Deleted != 3 {
		t.Fatalf("repairs = %+v", run.Repairs)
	}
	if len(run.Checkpoints) != 2 || run.Checkpoints[1].RHatMax != 1.05 || len(run.Checkpoints[1].Tracked) != 1 {
		t.Fatalf("checkpoints = %+v", run.Checkpoints)
	}
	if run.End == nil || run.End.TotalFacts != 140 {
		t.Fatalf("end = %+v", run.End)
	}

	// The file and in-memory views decode identically.
	if !reflect.DeepEqual(run.Events, mem.Events) {
		t.Fatal("file round trip altered the event stream")
	}
}

func TestNilWriterIsSafe(t *testing.T) {
	var w *Writer
	w.Emit(TypeIteration, Iteration{Iteration: 1})
	w.EmitProfile(QueryProfile{})
	if w.Events() != nil || w.Dropped() != 0 || w.Close() != nil {
		t.Fatal("nil writer must no-op")
	}
}

// TestBound checks the ring drops excess events but always keeps
// run_end, and counts the drops.
func TestBound(t *testing.T) {
	w := New()
	w.max = 4
	for i := 0; i < 10; i++ {
		w.Emit(TypeIteration, Iteration{Iteration: i})
	}
	w.Emit(TypeRunEnd, RunEnd{Iterations: 10, DroppedEvents: w.Dropped()})

	events := w.Events()
	if len(events) != 5 {
		t.Fatalf("kept %d events, want 4 + run_end", len(events))
	}
	if got := events[len(events)-1].Type; got != TypeRunEnd {
		t.Fatalf("last event = %s, want run_end", got)
	}
	if w.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", w.Dropped())
	}
}

// TestEmitOnFullWriterOnlyCounts: once the bound is reached, an event
// is dropped before its payload is marshaled — the drop counter moves
// and nothing is allocated.
func TestEmitOnFullWriterOnlyCounts(t *testing.T) {
	w := New()
	w.max = 1
	w.Emit(TypeIteration, Iteration{Iteration: 1})
	var payload any = &QueryLocal{Rel: "born_in", X: "x", Y: "y", Found: true}
	before := w.Dropped()
	if n := testing.AllocsPerRun(100, func() { w.Emit(TypeQueryLocal, payload) }); n != 0 {
		t.Errorf("Emit on a full writer: %v allocs, want 0", n)
	}
	if got := w.Dropped() - before; got != 101 { // AllocsPerRun's warm-up call + 100 runs
		t.Errorf("dropped %d events, want 101", got)
	}
	if n := len(w.Events()); n != 1 {
		t.Errorf("full writer kept %d events, want 1", n)
	}
}

// TestSkewDetector feeds a synthetic skewed hash distribution and checks
// the imbalance is computed and flagged, with the straggler identified.
func TestSkewDetector(t *testing.T) {
	p := QueryProfile{
		Query: "mpp-atoms", Partition: 1, Iteration: 2,
		Plan: PlanNode{
			Label:      "Hash Join on x",
			Rows:       80,
			SegRows:    []int{50, 10, 10, 10}, // max/mean = 50/20 = 2.5
			SegSeconds: []float64{0.010, 0.002, 0.002, 0.002},
		},
	}
	rows := Skew(p)
	if len(rows) != 1 {
		t.Fatalf("skew rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if !r.Flagged {
		t.Fatalf("2.5x imbalance not flagged: %+v", r)
	}
	if got := r.RowImbalance; got < 2.49 || got > 2.51 {
		t.Fatalf("row imbalance = %g, want 2.5", got)
	}
	if r.Straggler != 0 {
		t.Fatalf("straggler = %d, want segment 0", r.Straggler)
	}
	if r.Label != "Hash Join" {
		t.Fatalf("label = %q, want operator kind", r.Label)
	}

	// A balanced operator is reported but not flagged.
	p.Plan.SegRows = []int{20, 20, 20, 20}
	p.Plan.SegSeconds = []float64{0.002, 0.002, 0.002, 0.002}
	if r := Skew(p)[0]; r.Flagged || r.RowImbalance != 1 {
		t.Fatalf("balanced operator flagged: %+v", r)
	}

	// Single-segment plans produce no skew rows at all.
	p.Plan.SegRows = []int{80}
	p.Plan.SegSeconds = []float64{0.002}
	if rows := Skew(p); len(rows) != 0 {
		t.Fatalf("single-segment plan produced skew rows: %+v", rows)
	}
}

// TestAnalyzeAndRender runs the full pipeline over a synthetic journal
// and checks the report carries every section.
func TestAnalyzeAndRender(t *testing.T) {
	w := New()
	emitSampleRun(w)
	run, err := FromEvents(w.Events())
	if err != nil {
		t.Fatal(err)
	}
	prof := Analyze(run)

	if len(prof.Phases) != 4 {
		t.Fatalf("phases = %+v", prof.Phases)
	}
	if len(prof.Operators) == 0 || prof.Operators[0].Label == "" {
		t.Fatalf("operators = %+v", prof.Operators)
	}
	// The sample plan has two multi-segment operators; the skewed motion
	// (39/1 rows -> imbalance 1.95) must lead and be flagged.
	if len(prof.Skew) != 2 || !prof.Skew[0].Flagged || prof.Skew[1].Flagged {
		t.Fatalf("skew = %+v", prof.Skew)
	}
	if prof.Convergence == nil || prof.Convergence.SweepToThreshold != 100 {
		t.Fatalf("convergence = %+v", prof.Convergence)
	}
	if prof.Convergence.FinalESSMin != 40 {
		t.Fatalf("final ESS = %g", prof.Convergence.FinalESSMin)
	}

	text := Render(prof)
	for _, section := range []string{
		"Phase breakdown", "Grounding iterations", "Top operators",
		"Per-segment skew", "Motion volumes", "Constraint repairs",
		"11 components exact, 1 sampled (largest 100)",
		"Gibbs convergence timeline", "Summary",
		"deadbeef00000000", // config hash in the header line
	} {
		if !strings.Contains(text, section) {
			t.Fatalf("report missing %q:\n%s", section, text)
		}
	}

	// A pass with nothing to sample renders its split and no timeline.
	prof.Inference, prof.Convergence = &Inference{Components: 12, Exact: 12, MaxComponent: 9}, nil
	text = Render(prof)
	if !strings.Contains(text, "12 components exact, 0 sampled (largest 9)") || strings.Contains(text, "Gibbs convergence timeline") {
		t.Fatalf("report of an all-exact pass:\n%s", text)
	}
}

// TestCanonicalize checks timing fields are stripped recursively while
// run-determined fields survive, so same-seed journals diff clean.
func TestCanonicalize(t *testing.T) {
	w := New()
	emitSampleRun(w)
	canon := Canonicalize(w.Events())

	all := ""
	for _, ev := range canon {
		if ev.ElapsedS != 0 {
			t.Fatalf("elapsed_s survived canonicalization: %+v", ev)
		}
		all += string(ev.Data) + "\n"
	}
	for _, timing := range []string{"seconds", "samples_per_sec", "start", "seg_seconds"} {
		if strings.Contains(all, `"`+timing+`"`) {
			t.Fatalf("timing key %q survived canonicalization:\n%s", timing, all)
		}
	}
	for _, keep := range []string{"seg_rows", "moved_bytes", "config_hash", "new_facts", "rhat_max"} {
		if !strings.Contains(all, `"`+keep+`"`) {
			t.Fatalf("run-determined key %q was stripped:\n%s", keep, all)
		}
	}
}

// TestCanonicalizeQueryLocal: a point-query answer is a deterministic
// function of the evidence, the query, and the seed, so Canonicalize
// keeps the event — only its wall-clock field goes.
func TestCanonicalizeQueryLocal(t *testing.T) {
	w := New()
	p := 0.42
	w.Emit(TypeQueryLocal, QueryLocal{
		Rel: "located_in", X: "Brooklyn", Y: "New_York_City",
		Depth: 3, Radius: 4, Found: true,
		SeedFacts: 2, LocalFacts: 5, LocalVars: 3, LocalFactors: 4,
		Rules: 4, Collected: 500, Probability: &p, Seconds: 0.012,
	})
	canon := Canonicalize(w.Events())
	if len(canon) != 1 || canon[0].Type != TypeQueryLocal {
		t.Fatalf("canonicalized events = %+v, want the query_local event kept", canon)
	}
	data := string(canon[0].Data)
	for _, keep := range []string{"probability", "local_facts", "seed_facts", "collected"} {
		if !strings.Contains(data, `"`+keep+`"`) {
			t.Fatalf("run-determined key %q was stripped:\n%s", keep, data)
		}
	}
	if strings.Contains(data, `"seconds"`) {
		t.Fatalf("timing key survived canonicalization:\n%s", data)
	}
}
