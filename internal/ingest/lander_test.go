package ingest

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// failingRefresh lands batches like the recording fake and fails every
// refresh.
type failingRefresh struct{ *fakeAbsorber }

func (failingRefresh) Refresh(context.Context) (uint64, error) {
	return 0, errors.New("gibbs diverged")
}

// TestLandAcksBeforeRefreshError: a batch whose refresh fails has still
// landed — published and durable — so its ack (unrefreshed, staleness as
// counted) and journal event are delivered first, then the error.
func TestLandAcksBeforeRefreshError(t *testing.T) {
	jr := journal.New()
	l := NewLander(failingRefresh{&fakeAbsorber{}}, jr)
	ctx := context.Background()
	a1, err := l.Land(ctx, []Fact{fact(0)}, 2)
	if err != nil || a1.Batch != 1 || a1.StaleBatches != 1 {
		t.Fatalf("batch 1 = %+v, %v", a1, err)
	}
	a2, err := l.Land(ctx, []Fact{fact(1), fact(2)}, 2)
	if err == nil || !strings.Contains(err.Error(), "refresh after batch: gibbs diverged") {
		t.Fatalf("err = %v, want the refresh failure", err)
	}
	if a2.Batch != 2 || a2.Facts != 2 || a2.Added != 2 || a2.Refreshed || a2.StaleBatches != 2 || a2.Generation == 0 {
		t.Fatalf("landed batch's ack = %+v, want batch 2 unrefreshed with stale=2", a2)
	}
	var batches, refreshes int
	for _, ev := range jr.Events() {
		switch ev.Type {
		case journal.TypeIngestBatch:
			batches++
		case journal.TypeIngestRefresh:
			refreshes++
		}
	}
	if batches != 2 || refreshes != 0 {
		t.Fatalf("journal has %d ingest_batch and %d ingest_refresh events, want 2 and 0", batches, refreshes)
	}

	// The same through a pipeline: OnBatch sees both acks, then the error
	// latches.
	var acks []Ack
	p := New(failingRefresh{&fakeAbsorber{}}, Config{
		MaxBatch: 1, MaxDelay: time.Hour, RefreshEvery: 2,
		OnBatch: func(a Ack) { acks = append(acks, a) },
	})
	p.Start(ctx)
	p.Submit(ctx, fact(0), fact(1), fact(2))
	err = p.Close(ctx)
	if err == nil || !strings.Contains(err.Error(), "batch 2: refresh after batch: gibbs diverged") {
		t.Fatalf("Close = %v, want batch 2's refresh failure", err)
	}
	if len(acks) != 2 || acks[1].Refreshed || acks[1].StaleBatches != 2 {
		t.Fatalf("acks = %+v, want two, the second unrefreshed with stale=2", acks)
	}
}

// TestLandRejectsInvalidBatch: the validator runs inside the landing
// step, so no driver can skip it — nothing reaches the absorber and the
// staleness counter does not move.
func TestLandRejectsInvalidBatch(t *testing.T) {
	abs := &fakeAbsorber{}
	l := NewLander(abs, nil)
	bad := fact(1)
	for name, mutate := range map[string]func(*Fact){
		"NaN":       func(f *Fact) { f.Probability = math.NaN() },
		"+Inf":      func(f *Fact) { f.Probability = math.Inf(1) },
		"-Inf":      func(f *Fact) { f.Probability = math.Inf(-1) },
		"above 1":   func(f *Fact) { f.Probability = 7 },
		"negative":  func(f *Fact) { f.Probability = -1 },
		"no rel":    func(f *Fact) { f.Rel = "" },
		"no x":      func(f *Fact) { f.X = "" },
		"no xClass": func(f *Fact) { f.XClass = "" },
		"no y":      func(f *Fact) { f.Y = "" },
		"no yClass": func(f *Fact) { f.YClass = "" },
	} {
		f := bad
		mutate(&f)
		ack, err := l.Land(context.Background(), []Fact{fact(0), f}, 1)
		if err == nil || !strings.HasPrefix(err.Error(), "facts[1]: ") || ack != (Ack{}) {
			t.Errorf("%s: Land = %+v, %v; want a facts[1] rejection and no ack", name, ack, err)
		}
	}
	if _, err := l.Land(context.Background(), nil, 0); err == nil {
		t.Error("empty batch landed")
	}
	if n, _, _ := abs.snapshot(); n != 0 || l.stale.Load() != 0 {
		t.Fatalf("rejected batches reached the absorber (%d) or moved staleness (%d)", n, l.stale.Load())
	}
}

// TestLandSetsQueryPhases: a landing under an active query reports its
// progress to /debug/queries — "queue" while it waits its turn, "infer"
// while a due refresh runs.
func TestLandSetsQueryPhases(t *testing.T) {
	ctx, q := obs.Queries.Begin(context.Background(), "extend", "extend stream")
	defer obs.Queries.Finish(q)
	l := NewLander(&fakeAbsorber{}, nil)
	if _, err := l.Land(ctx, []Fact{fact(0)}, 0); err != nil {
		t.Fatal(err)
	}
	if p := q.Phase(); p != "queue" {
		t.Fatalf("phase after an unrefreshed landing = %q, want queue", p)
	}
	if a, err := l.Land(ctx, []Fact{fact(1)}, 2); err != nil || !a.Refreshed {
		t.Fatalf("second landing = %+v, %v", a, err)
	}
	if p := q.Phase(); p != "infer" {
		t.Fatalf("phase after a refreshed landing = %q, want infer", p)
	}
}
