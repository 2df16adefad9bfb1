package probkb

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"probkb/internal/ground"
	"probkb/internal/obs/journal"
)

// An extend-produced generation carries the fact index its round
// published (internal/ground's Result): the next round forks it, and the
// generation's local grounder reads its entity columns in place of
// building its own over the evidence. These tests hold both readers to
// what a generation without that index answers.

// extendedGeneration expands the scale-0.02 corpus, streams two deferred
// batches into it and refreshes: the generation ingest-serve serves after
// a refresh, whose index was carried forward twice. It returns the
// generation and two more batches for its siblings.
func extendedGeneration(t *testing.T) (*Expansion, [][]Fact) {
	t.Helper()
	k, _, err := Synthesize(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 20, GibbsSamples: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(e, 4, 32)
	if len(batches) != 4 {
		t.Fatalf("derived %d batches, want 4", len(batches))
	}
	for _, b := range batches[:2] {
		if e, err = e.ExtendWithDeferred(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if e, err = e.RefreshMarginals(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, batches[2:]
}

// rebuilt is e as a generation rebuilt from its facts holds it: the same
// KB and TΠ, TΦ and bookkeeping, but no fact index carried from a round,
// so its local grounder indexes the evidence itself.
func rebuilt(e *Expansion) *Expansion {
	res := &ground.Result{
		Facts:        e.res.Facts.Clone(),
		Factors:      e.res.Factors,
		BaseFacts:    e.res.BaseFacts,
		FirstDerived: e.res.FirstDerived,
		Converged:    e.res.Converged,
	}
	return newExpansion(e.kb, res, e.cfg, journal.New(), nil)
}

// lineageAtoms picks point-query atoms from e's facts, observed and
// derived alike, plus one no fact holds.
func lineageAtoms(e *Expansion) [][3]string {
	facts := e.Facts()
	var atoms [][3]string
	for i := 0; i < len(facts); i += len(facts)/24 + 1 {
		atoms = append(atoms, [3]string{facts[i].Rel, facts[i].X, facts[i].Y})
	}
	for i := len(facts) - 1; i >= 0 && len(atoms) < 40; i -= 5 {
		if facts[i].Inferred {
			atoms = append(atoms, [3]string{facts[i].Rel, facts[i].X, facts[i].Y})
		}
	}
	return append(atoms, [3]string{facts[0].Rel, facts[0].Y, facts[0].X})
}

// localAnswers answers every atom from the local grounder, bypassing the
// answer table, with the run-to-run metadata cleared.
func localAnswers(t *testing.T, e *Expansion, atoms [][3]string) string {
	t.Helper()
	var out []Marginal
	for _, a := range atoms {
		m, err := e.QueryLocal(context.Background(), PointQuery{Rel: a[0], X: a[1], Y: a[2], NoCache: true})
		if err != nil {
			t.Errorf("QueryLocal(%v): %v", a, err)
			return ""
		}
		m.Elapsed, m.Cached, m.Coalesced, m.Generation = 0, false, false, 0
		out = append(out, m)
	}
	return fmt.Sprintf("%+v", out)
}

// TestExtendedGenerationLocalAnswers: on an extend-produced generation
// the local grounder reads the round's published entity columns, rows
// past the evidence included, and keeps only the evidence; its answers
// equal those of the same generation rebuilt from its facts, whose
// grounder indexes the evidence prefix itself. Both a refreshed
// generation (all of whose facts are evidence) and a deferred round's
// (whose derived facts are not) are checked.
func TestExtendedGenerationLocalAnswers(t *testing.T) {
	refreshed, batches := extendedGeneration(t)
	deferred, err := refreshed.ExtendWithDeferred(context.Background(), batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if deferred.Stats().InferredFacts == 0 {
		t.Fatal("the deferred round derived nothing: no rows past its evidence")
	}
	for name, e := range map[string]*Expansion{"refreshed": refreshed, "deferred": deferred} {
		atoms := lineageAtoms(e)
		got := localAnswers(t, e, atoms)
		want := localAnswers(t, rebuilt(e), atoms)
		if got != want {
			t.Fatalf("%s: local answers on the extended generation differ from the rebuilt one's:\n got %s\nwant %s", name, got, want)
		}
		found := 0
		for _, a := range atoms {
			if m, _ := e.QueryLocal(context.Background(), PointQuery{Rel: a[0], X: a[1], Y: a[2]}); m.Found {
				found++
			}
		}
		if found < len(atoms)/2 {
			t.Fatalf("%s: only %d of %d atoms found: the differential compares little", name, found, len(atoms))
		}
	}
}

// TestExtendedGenerationConcurrentReaders races, on one extend-produced
// generation, two sibling ExtendWithDeferred rounds forking its index,
// cache-bypassing point queries reading it, and Explain building the
// lineage graph; every answer must equal a serial run's over an
// identical generation. Under -race a write to the shared index is a
// reported data race.
func TestExtendedGenerationConcurrentReaders(t *testing.T) {
	serial, batches := extendedGeneration(t)
	atoms := lineageAtoms(serial)
	explained := atoms[len(atoms)-2]
	var wantKids [2]string
	for i, b := range batches {
		kid, err := serial.ExtendWithDeferred(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		wantKids[i] = fmt.Sprintf("%+v", kid.Facts())
	}
	wantLocal := localAnswers(t, serial, atoms)
	wantExplain, err := serial.Explain(explained[0], explained[1], explained[2], 2)
	if err != nil {
		t.Fatal(err)
	}

	e, _ := extendedGeneration(t)
	start := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f()
		}()
	}
	for i, b := range batches {
		run(func() {
			kid, err := e.ExtendWithDeferred(context.Background(), b)
			if err != nil {
				t.Errorf("sibling %d: %v", i, err)
			} else if got := fmt.Sprintf("%+v", kid.Facts()); got != wantKids[i] {
				t.Errorf("sibling %d's facts differ from the serial run's", i)
			}
		})
	}
	for range 2 {
		run(func() {
			if got := localAnswers(t, e, atoms); got != wantLocal {
				t.Errorf("concurrent local answers differ from the serial run's:\n got %s\nwant %s", got, wantLocal)
			}
		})
		run(func() {
			if got, err := e.Explain(explained[0], explained[1], explained[2], 2); err != nil || got != wantExplain {
				t.Errorf("Explain = %q, %v; want %q", got, err, wantExplain)
			}
		})
	}
	close(start)
	wg.Wait()
}
