package probkb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"probkb/internal/factor"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/obs/journal"
)

// chaosFaults is the fault plan the equivalence tests run under: heavy
// enough that faults actually land on the paper KB's handful of segment
// tasks, light enough that an 8-retry budget always absorbs them.
func chaosFaults() *FaultConfig {
	return &FaultConfig{
		Seed:          7,
		FailRate:      0.25,
		PanicRate:     0.1,
		StraggleRate:  0.05,
		StraggleDelay: 100 * time.Microsecond,
	}
}

// TestChaosEquivalence runs the same MPP expansion twice — once clean,
// once under a seeded fault plan with segment retries — and checks the
// tentpole's determinism contract: identical facts and stats, and
// byte-identical canonical journals (fault/retry events are
// nondeterministically interleaved bookkeeping, so Canonicalize drops
// them and renumbers).
func TestChaosEquivalence(t *testing.T) {
	dir := t.TempDir()

	clean := journalConfig()
	clean.JournalPath = filepath.Join(dir, "clean.jsonl")
	expClean, err := paperKB(t).Expand(clean)
	if err != nil {
		t.Fatal(err)
	}

	faulted := journalConfig()
	faulted.JournalPath = filepath.Join(dir, "faulted.jsonl")
	faulted.Faults = chaosFaults()
	faulted.SegmentRetries = 8
	faulted.RetryBackoff = 100 * time.Microsecond
	expFaulted, err := paperKB(t).Expand(faulted)
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}

	if !reflect.DeepEqual(expClean.Facts(), expFaulted.Facts()) {
		t.Errorf("facts differ between clean and faulted runs:\nclean:   %v\nfaulted: %v",
			expClean.Facts(), expFaulted.Facts())
	}
	// Wall-clock fields legitimately differ (retries cost time); every
	// logical field must not.
	stClean, stFaulted := expClean.Stats(), expFaulted.Stats()
	stClean.LoadTime, stClean.GroundingTime, stClean.FactorTime, stClean.InferenceTime = 0, 0, 0, 0
	stFaulted.LoadTime, stFaulted.GroundingTime, stFaulted.FactorTime, stFaulted.InferenceTime = 0, 0, 0, 0
	if !reflect.DeepEqual(stClean, stFaulted) {
		t.Errorf("stats differ:\nclean:   %+v\nfaulted: %+v", stClean, stFaulted)
	}

	runClean, err := journal.ReadFile(clean.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	runFaulted, err := journal.ReadFile(faulted.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	// The faulted run must actually have exercised the fault path …
	if len(runFaulted.Faults) == 0 {
		t.Fatal("fault plan injected nothing; raise the rates or change the seed")
	}
	if len(runFaulted.Retries) == 0 {
		t.Fatal("no segment retries recorded despite injected faults")
	}
	// … and Faults/SegmentRetries are excluded from the config hash, so
	// both journals describe the same logical run.
	if runClean.Header.ConfigHash != runFaulted.Header.ConfigHash {
		t.Errorf("config hashes differ: clean %q faulted %q",
			runClean.Header.ConfigHash, runFaulted.Header.ConfigHash)
	}
	canonClean := journal.Canonicalize(runClean.Events)
	canonFaulted := journal.Canonicalize(runFaulted.Events)
	if !reflect.DeepEqual(canonClean, canonFaulted) {
		n := len(canonClean)
		if len(canonFaulted) < n {
			n = len(canonFaulted)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(canonClean[i], canonFaulted[i]) {
				t.Fatalf("canonical journals diverge at event %d:\nclean:   %+v\nfaulted: %+v",
					i, canonClean[i], canonFaulted[i])
			}
		}
		t.Fatalf("canonical journals differ in length: clean %d, faulted %d",
			len(canonClean), len(canonFaulted))
	}
}

// TestExactOracleUnderFaults checks that a faulted-but-retried MPP run
// still agrees with exact inference: the marginals written into the
// expanded facts are the enumerated marginals of the same factor graph
// (the paper KB's one component is five atoms).
func TestExactOracleUnderFaults(t *testing.T) {
	cfg := journalConfig()
	cfg.GibbsBurnin = 300
	cfg.GibbsSamples = 6000
	cfg.Faults = chaosFaults()
	cfg.SegmentRetries = 8
	cfg.RetryBackoff = 100 * time.Microsecond
	exp, err := paperKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, err := factor.FromResult(exp.res)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := infer.Exact(g)
	if err != nil {
		t.Fatal(err)
	}

	ids := exp.res.Facts.Int32Col(kb.TPiI)
	ws := exp.res.Facts.Float64Col(kb.TPiW)
	checked := 0
	// Only inferred facts (rows past BaseFacts) carry Gibbs marginals;
	// observed facts keep their extraction confidence.
	for r := exp.res.BaseFacts; r < exp.res.Facts.NumRows(); r++ {
		v, ok := g.VarOf(ids[r])
		if !ok {
			continue
		}
		if math.IsNaN(ws[r]) {
			t.Fatalf("fact %d has NaN probability after inference", ids[r])
		}
		if ws[r] != exact[v] {
			t.Errorf("fact %d: marginal %v vs exact %v", ids[r], ws[r], exact[v])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no facts mapped to factor-graph variables; oracle comparison checked nothing")
	}
}

// cancelDuringGrounding cancels the run from the first grounding
// iteration's callback and asserts the PartialError contract for the
// "ground" phase.
func cancelDuringGrounding(t *testing.T, cfg Config) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnIteration = func(st IterationStats) {
		if st.Iteration >= 1 {
			cancel()
		}
	}
	start := time.Now()
	exp, err := paperKB(t).ExpandContext(ctx, cfg)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
	if exp != nil {
		t.Fatal("interrupted expansion also returned a non-nil result")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if pe.Phase != "ground" {
		t.Fatalf("phase = %q, want %q", pe.Phase, "ground")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, does not unwrap to context.Canceled", err)
	}
	if pe.Partial == nil {
		t.Fatal("PartialError.Partial is nil")
	}
	st := pe.Partial.Stats()
	if st.Converged {
		t.Fatal("interrupted grounding reported Converged")
	}
	if st.TotalFacts < st.BaseFacts || st.BaseFacts == 0 {
		t.Fatalf("partial stats look empty: %+v", st)
	}
}

func TestCancelMidGrounding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunInference = false
	cancelDuringGrounding(t, cfg)
}

func TestCancelMidGroundingMPP(t *testing.T) {
	cfg := journalConfig()
	cfg.RunInference = false
	cancelDuringGrounding(t, cfg)
}

// TestCancelMidGibbs cancels during sampling and checks the "infer"
// phase contract: the partial expansion carries marginals estimated
// from the sweeps collected before the cut, and the cut is prompt even
// though millions of sweeps remain.
func TestCancelMidGibbs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.GibbsBurnin = 20
	cfg.GibbsSamples = 50_000_000
	cfg.OnGibbsSweep = func(sw GibbsSweep) {
		if sw.Sweep >= cfg.GibbsBurnin+40 {
			cancel()
		}
	}
	start := time.Now()
	_, err := giantKB(t).ExpandContext(ctx, cfg)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if pe.Phase != "infer" {
		t.Fatalf("phase = %q, want %q", pe.Phase, "infer")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, does not unwrap to context.Canceled", err)
	}
	st := pe.Partial.Stats()
	if st.Converged {
		t.Fatal("interrupted inference reported Converged")
	}
	if st.InferredFacts == 0 {
		t.Fatal("partial expansion has no inferred facts; grounding should have finished")
	}
	// Partial marginals from the collected sweeps must have been applied.
	withMarginal := 0
	for _, f := range pe.Partial.InferredFacts() {
		if !math.IsNaN(f.Probability) {
			if f.Probability < 0 || f.Probability > 1 {
				t.Fatalf("partial marginal out of range: %v", f)
			}
			withMarginal++
		}
	}
	if withMarginal == 0 {
		t.Fatal("no inferred fact carries a partial marginal")
	}
}

// TestDeadlineMidGibbs drives the same path with a deadline instead of
// an explicit cancel: the error must unwrap to DeadlineExceeded.
func TestDeadlineMidGibbs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.GibbsBurnin = 20
	cfg.GibbsSamples = 50_000_000
	start := time.Now()
	_, err := giantKB(t).ExpandContext(ctx, cfg)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, does not unwrap to context.DeadlineExceeded", err)
	}
}

// --- MVCC under chaos: failed builds never reach readers ---

// raceChaosReaders hammers the serving generation's full query surface
// (observeGeneration, from mvcc_test.go) from n goroutines until the
// returned func is called, which stops them and reports the first
// divergence from want. Under -race this doubles as a data-race probe:
// the faulted/cancelled rebuild must write nothing these readers touch.
func raceChaosReaders(t *testing.T, exp *Expansion, want []byte, n int) func() error {
	t.Helper()
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := observeGeneration(t, exp); string(got) != string(want) {
					select {
					case errCh <- fmt.Errorf("serving generation drifted during a doomed rebuild:\n got %s\nwant %s", got, want):
					default:
					}
					return
				}
			}
		}()
	}
	return func() error {
		close(stop)
		wg.Wait()
		select {
		case err := <-errCh:
			return err
		default:
			return nil
		}
	}
}

// TestChaosFaultedExpandNeverSwaps serves a generation to racing
// readers, then rebuilds from that very generation's KB under a lethal
// fault plan (every segment task fails, zero retries). The rebuild must
// die, return nothing publishable, and leave the pinned readers'
// answers byte-identical throughout — the "swap never occurs" half of
// the MVCC publication contract, under injected faults rather than a
// clean cancel.
func TestChaosFaultedExpandNeverSwaps(t *testing.T) {
	clean := journalConfig()
	clean.RunInference = false
	exp, err := paperKB(t).Expand(clean)
	if err != nil {
		t.Fatal(err)
	}
	before := observeGeneration(t, exp)
	check := raceChaosReaders(t, exp, before, 4)

	lethal := journalConfig()
	lethal.RunInference = false
	lethal.Faults = &FaultConfig{Seed: 1, FailRate: 1}
	lethal.SegmentRetries = 0
	// Rebuild from the generation being served, exactly like a server
	// /admin/expand against the pinned snapshot.
	expFail, err := exp.KB().ExpandContext(context.Background(), lethal)
	if err == nil {
		t.Fatal("lethal fault plan did not kill the rebuild")
	}
	if expFail != nil {
		t.Fatal("failed rebuild returned a publishable expansion")
	}

	if rerr := check(); rerr != nil {
		t.Fatal(rerr)
	}
	if got := observeGeneration(t, exp); string(got) != string(before) {
		t.Fatalf("faulted rebuild mutated the serving generation:\n got %s\nwant %s", got, before)
	}

	// The machinery recovers: the same rebuild with the faults gone
	// succeeds from the untouched generation.
	ok := journalConfig()
	ok.RunInference = false
	if _, err := exp.KB().ExpandContext(context.Background(), ok); err != nil {
		t.Fatalf("clean rebuild after the faulted one failed: %v", err)
	}
}

// TestChaosCancelledExpandKeepsReaders is the cancellation variant:
// a rebuild from the served generation is cancelled mid-grounding
// (PartialError, phase "ground") while readers race; the served
// answers must not move and the partial result is never the serving
// generation's problem.
func TestChaosCancelledExpandKeepsReaders(t *testing.T) {
	clean := journalConfig()
	clean.RunInference = false
	exp, err := paperKB(t).Expand(clean)
	if err != nil {
		t.Fatal(err)
	}
	before := observeGeneration(t, exp)
	check := raceChaosReaders(t, exp, before, 4)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doomed := journalConfig()
	doomed.RunInference = false
	doomed.OnIteration = func(st IterationStats) {
		if st.Iteration >= 1 {
			cancel()
		}
	}
	expFail, err := exp.KB().ExpandContext(ctx, doomed)
	if expFail != nil {
		t.Fatal("cancelled rebuild returned a publishable expansion")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if pe.Phase != "ground" {
		t.Fatalf("phase = %q, want %q", pe.Phase, "ground")
	}

	if rerr := check(); rerr != nil {
		t.Fatal(rerr)
	}
	if got := observeGeneration(t, exp); string(got) != string(before) {
		t.Fatalf("cancelled rebuild mutated the serving generation:\n got %s\nwant %s", got, before)
	}
}
