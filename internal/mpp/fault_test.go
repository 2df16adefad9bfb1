package mpp

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"probkb/internal/engine"
	"probkb/internal/obs/journal"
)

// TestFaultDrawDeterminism: the fault decision is a pure function of
// (seed, task, segment, attempt) — repeated draws agree, and a different
// seed gives a different sequence.
func TestFaultDrawDeterminism(t *testing.T) {
	p := &FaultPlan{Seed: 42, FailRate: 0.2, PanicRate: 0.1, StraggleRate: 0.1}
	q := &FaultPlan{Seed: 43, FailRate: 0.2, PanicRate: 0.1, StraggleRate: 0.1}
	diff := 0
	for task := int64(1); task <= 64; task++ {
		for seg := 0; seg < 4; seg++ {
			for attempt := 0; attempt < 3; attempt++ {
				k := p.draw(task, seg, attempt)
				if k != p.draw(task, seg, attempt) {
					t.Fatalf("draw(%d,%d,%d) not deterministic", task, seg, attempt)
				}
				if k != q.draw(task, seg, attempt) {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 drew identical fault sequences")
	}
}

// keepAll lowers a pass-everything filter over base onto its cluster
// copy d: the smallest plan that runs a segment task.
func keepAll(base *engine.Table, d *DistTable) Node {
	f := engine.NewFilter(engine.NewScan(base), "true", func(*engine.Table, int) bool { return true })
	return Lower(f, placing{base: d}.place, nil, true)
}

// TestRetryAbsorbsFaults: with injected failures and panics but a
// generous retry budget, every distributed query still completes with
// the correct result, and the injected faults land in the journal.
func TestRetryAbsorbsFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomTable(rng, "T", 200, 10)
	c := NewCluster(4)
	jr := journal.New()
	c.SetJournal(jr)
	c.SetFaults(&FaultPlan{Seed: 5, FailRate: 0.2, PanicRate: 0.1})
	c.SetRetry(RetryPolicy{MaxRetries: 10, Backoff: 0})
	d := c.Distribute(base, []int{0})

	for i := 0; i < 20; i++ {
		out, err := keepAll(base, d).Run()
		if err != nil {
			t.Fatalf("query %d failed despite retries: %v", i, err)
		}
		if out.NumRows() != base.NumRows() {
			t.Fatalf("query %d: %d rows, want %d", i, out.NumRows(), base.NumRows())
		}
	}
	var faults, retries int
	for _, ev := range jr.Events() {
		switch ev.Type {
		case journal.TypeSegmentFault:
			faults++
		case journal.TypeSegmentRetry:
			retries++
		}
	}
	if faults == 0 || retries == 0 {
		t.Fatalf("journal recorded %d faults, %d retries; expected both > 0", faults, retries)
	}
}

// TestInjectedPanicBecomesError: with panics on every attempt and no
// retries, the runner's recover converts the worker panic into a
// per-segment error instead of crashing the process.
func TestInjectedPanicBecomesError(t *testing.T) {
	base := twoColTable("T", []int32{1, 2, 3}, []int32{4, 5, 6})
	c := NewCluster(2)
	c.SetFaults(&FaultPlan{Seed: 3, PanicRate: 1})
	d := c.Distribute(base, []int{0})
	_, err := keepAll(base, d).Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a recovered panic error", err)
	}
}

// TestClusterContextCancel: a dead context stops segment tasks before
// they run and is never retried.
func TestClusterContextCancel(t *testing.T) {
	base := twoColTable("T", []int32{1, 2, 3}, []int32{4, 5, 6})
	c := NewCluster(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetContext(ctx)
	c.SetRetry(RetryPolicy{MaxRetries: 5, Backoff: time.Second})
	d := c.Distribute(base, []int{0})
	start := time.Now()
	_, err := keepAll(base, d).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must not burn the retry budget (5 retries x 1s backoff
	// would blow this bound).
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled query took %v", elapsed)
	}
}

// TestStragglerDelaysButCompletes: injected stragglers slow a task down
// without failing it.
func TestStragglerDelaysButCompletes(t *testing.T) {
	base := twoColTable("T", []int32{1, 2, 3}, []int32{4, 5, 6})
	c := NewCluster(2)
	c.SetFaults(&FaultPlan{Seed: 9, StraggleRate: 1, StraggleDelay: time.Millisecond})
	d := c.Distribute(base, []int{0})
	out, err := keepAll(base, d).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != base.NumRows() {
		t.Fatalf("rows = %d, want %d", out.NumRows(), base.NumRows())
	}
}
