package probkb

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"probkb/internal/ingest"
	"probkb/internal/obs/journal"
)

// This file is the streaming-ingest differential battery: a fact stream
// absorbed batch by batch — under ANY batch split — must land on the
// same canonical closure and dictionaries as the t=0 oracle that had
// every fact up front, and the refreshed marginals must agree with the
// oracle's within Gibbs tolerance. The chaos leg kills the stream
// mid-flight and proves WAL recovery plus idempotent re-streaming
// resume to the same state with no torn generation.

// ingestBaseKB is the evidence and rules present before the stream
// starts. Streamed facts are always fresh born_in extractions, so an
// observed fact never collides with a derived one (live_in/located_in)
// and the dedup-keeps-first-weight rule cannot make splits diverge.
func ingestBaseKB(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.MustAddRule("1.40 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)")
	k.MustAddRule("0.52 located_in(x:City, y:City) :- born_in(z:Writer, x:City), born_in(z, y:City)")
	return k
}

// ingestStream is the firehose: born_in extractions whose closure has
// real depth (shared writers force located_in cross products).
func ingestStream() []Fact {
	cities := []string{"Vienna", "Berlin", "Prague", "Trieste"}
	writers := []string{"Freud", "Mahler", "Zweig", "Kafka", "Rilke", "Svevo"}
	var out []Fact
	rng := rand.New(rand.NewSource(42))
	for i, w := range writers {
		for j := 0; j < 2; j++ {
			c := cities[(i+j)%len(cities)]
			out = append(out, Fact{
				Rel: "born_in", X: w, XClass: "Writer", Y: c, YClass: "City",
				Probability: 0.5 + 0.4*rng.Float64(),
			})
		}
	}
	return out
}

// canonicalClosure renders an expansion's fact set order-independently:
// one line per fact, sorted. NaN probabilities (inference skipped or
// deferred) print as NaN on both sides of a diff.
func canonicalClosure(e *Expansion) string {
	facts := e.Facts()
	lines := make([]string, len(facts))
	for i, f := range facts {
		lines[i] = fmt.Sprintf("%s(%s:%s, %s:%s) w=%v", f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// dictFingerprint renders the three dictionaries in ID order — batch
// splits must not perturb a single interned ID.
func dictFingerprint(e *Expansion) string {
	return fmt.Sprintf("rels=%v classes=%v entities=%v",
		e.kb.RelDict.Names(), e.kb.Classes.Names(), e.kb.Entities.Names())
}

// canonicalKeys is canonicalClosure without probabilities — the right
// yardstick when one side ran marginal refreshes (which fill NaNs) and
// the other didn't.
func canonicalKeys(e *Expansion) string {
	facts := e.Facts()
	lines := make([]string, len(facts))
	for i, f := range facts {
		lines[i] = fmt.Sprintf("%s(%s:%s, %s:%s)", f.Rel, f.X, f.XClass, f.Y, f.YClass)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// splitStream cuts the stream into batches of the given sizes, cycling
// the size list until the stream is exhausted.
func splitStream(stream []Fact, sizes []int) [][]Fact {
	var out [][]Fact
	i, s := 0, 0
	for i < len(stream) {
		n := sizes[s%len(sizes)]
		s++
		if n > len(stream)-i {
			n = len(stream) - i
		}
		out = append(out, stream[i:i+n])
		i += n
	}
	return out
}

// ingestOracle is the t=0 run: every streamed fact present before the
// single expansion.
func ingestOracle(t *testing.T, cfg Config) *Expansion {
	t.Helper()
	k := ingestBaseKB(t)
	for _, f := range ingestStream() {
		k.AddFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
	}
	exp, err := k.Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// absorbAll streams the batches through an Ingester synchronously (the
// pipeline's writer is serial too; calling the Absorber directly keeps
// the differential test deterministic) and returns the final pinned
// expansion.
func absorbAll(t *testing.T, in *Ingester, batches [][]Fact) *Expansion {
	t.Helper()
	for _, b := range batches {
		stream := make([]ingest.Fact, len(b))
		for i, f := range b {
			stream[i] = ingest.Fact{Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass, Probability: f.Probability}
		}
		if _, err := in.Absorb(context.Background(), stream); err != nil {
			t.Fatalf("Absorb: %v", err)
		}
	}
	pin := in.Current()
	defer pin.Unpin()
	return pin.Value()
}

// TestIngestDifferentialBatchSplits is the tentpole oracle: the same
// stream under every batch split — one huge batch, one fact at a time,
// fixed sizes, ragged mixes, random seeded splits — lands byte-
// identically on the t=0 closure and dictionaries.
func TestIngestDifferentialBatchSplits(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: false}
	oracle := ingestOracle(t, cfg)
	wantClosure := canonicalClosure(oracle)
	wantDicts := dictFingerprint(oracle)

	stream := ingestStream()
	splits := map[string][]int{
		"one-batch":  {len(stream)},
		"one-by-one": {1},
		"pairs":      {2},
		"threes":     {3},
		"ragged":     {1, 3, 2, 5},
		"head-heavy": {len(stream) - 1, 1},
		"tail-heavy": {1, len(stream) - 1},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		sizes := make([]int, 1+rng.Intn(4))
		for j := range sizes {
			sizes[j] = 1 + rng.Intn(5)
		}
		splits[fmt.Sprintf("random-%d", i)] = sizes
	}

	for name, sizes := range splits {
		t.Run(name, func(t *testing.T) {
			base, err := ingestBaseKB(t).Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			final := absorbAll(t, NewIngester(base), splitStream(stream, sizes))
			if got := canonicalClosure(final); got != wantClosure {
				t.Errorf("closure diverged from t=0 oracle under split %v:\n--- streamed ---\n%s\n--- oracle ---\n%s", sizes, got, wantClosure)
			}
			if got := dictFingerprint(final); got != wantDicts {
				t.Errorf("dictionaries diverged under split %v:\n%s\nvs\n%s", sizes, got, wantDicts)
			}
		})
	}
}

// TestIngestMarginalsMatchOracle streams with deferred absorption, pays
// the staleness down with one final refresh, and compares every
// marginal against the t=0 oracle's. Gibbs sample paths differ when
// graph construction order differs, so agreement is within tolerance,
// not byte-exact.
func TestIngestMarginalsMatchOracle(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 200, GibbsSamples: 800, Seed: 3}
	oracle := ingestOracle(t, cfg)
	oracleP := map[string]float64{}
	for _, f := range oracle.Facts() {
		oracleP[fmt.Sprintf("%s(%s,%s)", f.Rel, f.X, f.Y)] = f.Probability
	}

	base, err := ingestBaseKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngester(base)
	// Deferred absorption leaves new derivations' marginals NaN...
	mid := absorbAll(t, in, splitStream(ingestStream(), []int{3}))
	nan := 0
	for _, f := range mid.Facts() {
		if math.IsNaN(f.Probability) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("deferred absorption should leave stale (NaN) marginals before refresh")
	}
	// ...and the refresh fills every one of them.
	if _, err := in.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	pin := in.Current()
	defer pin.Unpin()
	final := pin.Value()
	const tol = 0.25
	checked := 0
	for _, f := range final.Facts() {
		if math.IsNaN(f.Probability) {
			t.Fatalf("stale marginal survived the refresh: %+v", f)
		}
		want, ok := oracleP[fmt.Sprintf("%s(%s,%s)", f.Rel, f.X, f.Y)]
		if !ok {
			t.Fatalf("streamed fact %+v missing from oracle", f)
		}
		if math.Abs(f.Probability-want) > tol {
			t.Errorf("marginal of %s(%s,%s) = %.3f, oracle %.3f (tol %.2f)", f.Rel, f.X, f.Y, f.Probability, want, tol)
		}
		checked++
	}
	if checked != len(oracleP) {
		t.Fatalf("checked %d facts, oracle has %d", checked, len(oracleP))
	}
}

// TestExtendWithSplitDifferential is the satellite differential: N
// facts absorbed one ExtendWith at a time vs one ExtendWith of N vs
// t=0 — identical closure, identical dictionaries, and an identical
// canonical journal for a fresh expansion over each path's final,
// canonically reordered state. Table-driven over stream seeds.
func TestExtendWithSplitDifferential(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: false}
	cities := []string{"Vienna", "Berlin", "Prague", "Zurich", "Paris"}
	writers := []string{"Freud", "Mahler", "Zweig", "Kafka", "Canetti", "Roth", "Musil"}
	for _, seed := range []int64{1, 17, 99} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var stream []Fact
			for i := 0; i < 8; i++ {
				stream = append(stream, Fact{
					Rel: "born_in",
					X:   writers[rng.Intn(len(writers))], XClass: "Writer",
					Y: cities[rng.Intn(len(cities))], YClass: "City",
					Probability: math.Round((0.5+0.45*rng.Float64())*100) / 100,
				})
			}

			expand := func() *Expansion {
				e, err := ingestBaseKB(t).Expand(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			// Path A: N×1. Path B: 1×N. Path C: t=0.
			pathA := expand()
			for _, f := range stream {
				next, err := pathA.ExtendWith([]Fact{f})
				if err != nil {
					t.Fatal(err)
				}
				pathA = next
			}
			pathB, err := expand().ExtendWith(stream)
			if err != nil {
				t.Fatal(err)
			}
			kC := ingestBaseKB(t)
			for _, f := range stream {
				kC.AddFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
			}
			pathC, err := kC.Expand(cfg)
			if err != nil {
				t.Fatal(err)
			}

			wantClosure, wantDicts := canonicalClosure(pathC), dictFingerprint(pathC)
			for name, e := range map[string]*Expansion{"Nx1": pathA, "1xN": pathB} {
				if got := canonicalClosure(e); got != wantClosure {
					t.Errorf("%s closure diverged from t=0:\n%s\nvs\n%s", name, got, wantClosure)
				}
				if got := dictFingerprint(e); got != wantDicts {
					t.Errorf("%s dictionaries diverged from t=0:\n%s\nvs\n%s", name, got, wantDicts)
				}
			}

			// Canonical-journal leg: re-expand each path's final state after
			// canonical reordering; every result-determining byte — iteration
			// shapes, factor counts, query plans — must agree across paths.
			journals := map[string][]journal.Event{}
			for name, e := range map[string]*Expansion{"Nx1": pathA, "1xN": pathB, "t0": pathC} {
				re, err := reorderedKB(t, e).Expand(cfg)
				if err != nil {
					t.Fatal(err)
				}
				journals[name] = journal.Canonicalize(re.Journal().Events())
			}
			for _, name := range []string{"Nx1", "1xN"} {
				a, b := journals[name], journals["t0"]
				if len(a) != len(b) {
					t.Fatalf("%s: canonical journal has %d events, t=0 has %d", name, len(a), len(b))
				}
				for i := range a {
					ja, _ := json.Marshal(a[i])
					jb, _ := json.Marshal(b[i])
					if string(ja) != string(jb) {
						t.Fatalf("%s: canonical journal event %d differs:\n%s\nvs\n%s", name, i, ja, jb)
					}
				}
			}
		})
	}
}

// reorderedKB rebuilds an expansion's final state as a fresh KB with
// facts in canonical (sorted) order, normalizing the row-order
// differences batch splits legitimately introduce.
func reorderedKB(t *testing.T, e *Expansion) *KB {
	t.Helper()
	facts := e.Facts()
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		ka := fmt.Sprintf("%s|%s|%s|%s|%s", a.Rel, a.X, a.XClass, a.Y, a.YClass)
		kb := fmt.Sprintf("%s|%s|%s|%s|%s", b.Rel, b.X, b.XClass, b.Y, b.YClass)
		return ka < kb
	})
	k := New()
	k.MustAddRule("1.40 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)")
	k.MustAddRule("0.52 located_in(x:City, y:City) :- born_in(z:Writer, x:City), born_in(z, y:City)")
	for _, f := range facts {
		k.AddFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
	}
	return k
}

// TestIngestPipelineEndToEnd drives the real async pipeline — bounded
// queue, batcher, single writer, refresh policy — over the stream and
// checks the final generation matches the t=0 oracle, acks are monotone
// in generation and durable sequence, and staleness bookkeeping lands
// at zero after the close-time refresh.
func TestIngestPipelineEndToEnd(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: false}
	oracle := ingestOracle(t, cfg)
	base, err := ingestBaseKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngester(base)
	var mu sync.Mutex
	var acks []ingest.Ack
	jr := journal.New()
	p := in.Pipeline(context.Background(), ingest.Config{
		MaxBatch:     4,
		MaxDelay:     10 * time.Millisecond,
		RefreshEvery: 3,
		Journal:      jr,
		OnBatch: func(a ingest.Ack) {
			mu.Lock()
			acks = append(acks, a)
			mu.Unlock()
		},
	})
	for _, f := range ingestStream() {
		err := p.Submit(context.Background(), ingest.Fact{
			Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass, Probability: f.Probability,
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	pin := in.Current()
	defer pin.Unpin()
	// The pipeline's refresh policy fills marginals the inference-less
	// oracle leaves NaN, so compare fact identity, not weights.
	if got, want := canonicalKeys(pin.Value()), canonicalKeys(oracle); got != want {
		t.Errorf("pipeline closure diverged from t=0 oracle:\n%s\nvs\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acks) == 0 {
		t.Fatal("no acks observed")
	}
	total := 0
	for i, a := range acks {
		total += a.Facts
		if i > 0 {
			if a.Generation <= acks[i-1].Generation {
				t.Fatalf("ack generations not strictly monotone: %d then %d", acks[i-1].Generation, a.Generation)
			}
			if a.DurableSeq < acks[i-1].DurableSeq {
				t.Fatalf("ack durable seqs went backwards: %d then %d", acks[i-1].DurableSeq, a.DurableSeq)
			}
		}
	}
	if total != len(ingestStream()) {
		t.Fatalf("acks cover %d facts, stream has %d", total, len(ingestStream()))
	}
	st := p.Stats()
	if st.Facts != int64(len(ingestStream())) || st.QueueDepth != 0 {
		t.Fatalf("pipeline stats = %+v", st)
	}
	batchEvents := 0
	for _, ev := range jr.Events() {
		if ev.Type == journal.TypeIngestBatch {
			batchEvents++
		}
	}
	if batchEvents != len(acks) {
		t.Fatalf("journal has %d ingest_batch events, saw %d acks", batchEvents, len(acks))
	}
}

// TestIngestChaosCancelResume is the chaos leg: a persisted stream is
// killed mid-flight — a cancelled batch publishes nothing (no torn
// generation), and the store handle is dropped with no shutdown
// courtesy. Recovery replays the WAL and idempotent re-streaming of the
// whole firehose lands on exactly the t=0 closure.
func TestIngestChaosCancelResume(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: false}
	oracle := ingestOracle(t, cfg)
	stream := ingestStream()
	batches := splitStream(stream, []int{3})

	dir := filepath.Join(t.TempDir(), "store")
	st, err := CreateStore(dir, ingestBaseKB(t))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Persist = st
	base, err := ingestBaseKB(t).Expand(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngester(base)

	// Absorb the first half of the firehose.
	half := batches[:len(batches)/2]
	absorbAll(t, in, half)
	genBefore := in.Generation()

	// Kill: the next batch's context is already cancelled. The absorb
	// must fail without publishing — readers never see a torn
	// generation.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	toIngest := make([]ingest.Fact, len(batches[len(batches)/2]))
	for i, f := range batches[len(batches)/2] {
		toIngest[i] = ingest.Fact{Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass, Probability: f.Probability}
	}
	if _, err := in.Absorb(cancelled, toIngest); err == nil {
		t.Fatal("cancelled absorb succeeded")
	}
	if got := in.Generation(); got != genBefore {
		t.Fatalf("cancelled absorb published generation %d (was %d): torn generation", got, genBefore)
	}
	// Crash: no Close, no Checkpoint. Recovery gets snapshot + WAL.
	walBefore := st.WALRecords()
	if walBefore == 0 {
		t.Fatal("persisted absorbs appended no WAL records")
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recovered := re.KB()
	// The recovered KB carries the durable prefix; re-expand it and
	// re-stream the ENTIRE firehose — absorption dedups, so replaying
	// already-durable facts is a no-op and the tail fills in.
	rcfg := cfg
	rcfg.Persist = re
	rbase, err := recovered.Expand(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rin := NewIngester(rbase)
	final := absorbAll(t, rin, batches)
	if got, want := canonicalClosure(final), canonicalClosure(oracle); got != want {
		t.Errorf("post-recovery closure diverged from t=0 oracle:\n%s\nvs\n%s", got, want)
	}
	if re.Err() != nil {
		t.Fatalf("store error latched during resume: %v", re.Err())
	}
}

// TestExtendWithRejectsInvalidFacts: every ExtendWith entry point
// refuses the facts CLI and HTTP ingest refuse — a fact with no relation,
// a NaN probability (the closure's "marginal pending" marker) and one
// outside [0, 1] — naming the offending fact as ingest.Validate does,
// and the receiver generation is left exactly as it was.
func TestExtendWithRejectsInvalidFacts(t *testing.T) {
	exp, err := paperKB(t).Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	closure, dicts, gen := canonicalClosure(exp), dictFingerprint(exp), exp.Generation()
	good := Fact{Rel: "born_in", X: "Freud", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.9}
	entries := map[string]func([]Fact) (*Expansion, error){
		"ExtendWith": exp.ExtendWith,
		"ExtendWithContext": func(fs []Fact) (*Expansion, error) {
			return exp.ExtendWithContext(context.Background(), fs)
		},
		"ExtendWithDeferred": func(fs []Fact) (*Expansion, error) {
			return exp.ExtendWithDeferred(context.Background(), fs)
		},
	}
	for _, tc := range []struct {
		name string
		bad  Fact
		want string
	}{
		{"no rel", Fact{X: "Nobody", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.5},
			"facts[1]: rel, x, xClass, y, yClass are all required"},
		{"NaN", Fact{Rel: "born_in", X: "Nobody", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: math.NaN()},
			"facts[1]: probability NaN outside [0, 1]"},
		{"7", Fact{Rel: "born_in", X: "Nobody", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 7},
			"facts[1]: probability 7 outside [0, 1]"},
	} {
		for name, extend := range entries {
			next, err := extend([]Fact{good, tc.bad})
			if err == nil || err.Error() != tc.want || next != nil {
				t.Fatalf("%s with the %q fact: (%v, %v), want the error %q", name, tc.name, next, err, tc.want)
			}
			if got := exp.Find(tc.bad.Rel, tc.bad.X, ""); len(got) != 0 {
				t.Fatalf("%s with the %q fact: the receiver finds %v", name, tc.name, got)
			}
			if canonicalClosure(exp) != closure || dictFingerprint(exp) != dicts || exp.Generation() != gen {
				t.Fatalf("%s with the %q fact changed the receiver", name, tc.name)
			}
		}
	}
}
