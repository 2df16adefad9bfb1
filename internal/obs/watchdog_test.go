package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// All watchdog tests drive Runner.Tick with explicit clock values and
// synthetic sources — no sleeps, no tickers.

var t0 = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

// collectRunner returns a runner (never Started) whose firings append
// to the returned slice.
func collectRunner() (*Runner, *[]Finding) {
	var fired []Finding
	r := NewRunner(time.Second)
	r.OnFire = func(f Finding) { fired = append(fired, f) }
	return r, &fired
}

func TestStuckQueryDetector(t *testing.T) {
	reg := &QueryRegistry{}
	r, fired := collectRunner()
	r.Add(&StuckQueryDetector{Registry: reg, MaxElapsed: 30 * time.Second}, Hysteresis{})

	// Healthy: a fresh query, checked 1s later — quiet.
	ctx, q := reg.Begin(context.Background(), "sql", "SELECT T.R FROM T")
	_ = ctx
	r.Tick(t0.Add(time.Second))
	if len(*fired) != 0 {
		t.Fatalf("fired on a 1s-old query: %v", *fired)
	}

	// The same query viewed from 31s past its start: stuck.
	r.Tick(q.Start().Add(31 * time.Second))
	if len(*fired) != 1 {
		t.Fatalf("did not fire on a 31s query: %v", *fired)
	}
	f := (*fired)[0]
	if f.Detector != "stuck_query" || f.QueryID != q.ID() || f.QueryText != "SELECT T.R FROM T" {
		t.Fatalf("finding = %+v", f)
	}
	if !strings.Contains(f.Summary, q.ID()) {
		t.Fatalf("summary %q does not name the query", f.Summary)
	}

	// Still stuck: no refire while the condition persists.
	r.Tick(q.Start().Add(60 * time.Second))
	if len(*fired) != 1 {
		t.Fatal("refired without clearing")
	}

	// Finished: condition clears, detector re-arms, a new stuck query
	// fires again.
	reg.Finish(q)
	r.Tick(t0.Add(2 * time.Minute))
	_, q2 := reg.Begin(context.Background(), "expand", "POST /admin/expand")
	defer reg.Finish(q2)
	r.Tick(q2.Start().Add(31 * time.Second))
	if len(*fired) != 2 {
		t.Fatalf("re-armed detector did not fire on a second stuck query: %v", *fired)
	}
}

func TestHysteresisFireAfterAndClearAfter(t *testing.T) {
	reg := &QueryRegistry{}
	r, fired := collectRunner()
	r.Add(&StuckQueryDetector{Registry: reg, MaxElapsed: 10 * time.Second}, Hysteresis{FireAfter: 3, ClearAfter: 2})

	_, q := reg.Begin(context.Background(), "sql", "SELECT 1")
	stuck := q.Start().Add(time.Minute)

	// Two bad ticks: below FireAfter, still quiet.
	r.Tick(stuck)
	r.Tick(stuck)
	if len(*fired) != 0 {
		t.Fatal("fired before FireAfter consecutive bad ticks")
	}
	// A good tick in between resets the streak.
	reg.Finish(q)
	r.Tick(t0)
	_, q2 := reg.Begin(context.Background(), "sql", "SELECT 2")
	stuck2 := q2.Start().Add(time.Minute)
	r.Tick(stuck2)
	r.Tick(stuck2)
	if len(*fired) != 0 {
		t.Fatal("bad streak survived a good tick")
	}
	// Third consecutive bad tick fires.
	r.Tick(stuck2)
	if len(*fired) != 1 {
		t.Fatal("did not fire after FireAfter consecutive bad ticks")
	}

	// One good tick is below ClearAfter: a following bad tick must NOT
	// re-fire (the detector has not re-armed).
	reg.Finish(q2)
	r.Tick(t0)
	_, q3 := reg.Begin(context.Background(), "sql", "SELECT 3")
	defer reg.Finish(q3)
	stuck3 := q3.Start().Add(time.Minute)
	r.Tick(stuck3)
	r.Tick(stuck3)
	r.Tick(stuck3)
	if len(*fired) != 1 {
		t.Fatalf("re-fired after only one good tick (ClearAfter=2): %v", *fired)
	}
}

func TestGoroutineLeakDetector(t *testing.T) {
	n := 10
	r, fired := collectRunner()
	r.Add(&GoroutineLeakDetector{Max: 100, Sample: func() int { return n }}, Hysteresis{})

	r.Tick(t0)
	if len(*fired) != 0 {
		t.Fatal("fired at a healthy count")
	}
	n = 101
	r.Tick(t0.Add(time.Second))
	if len(*fired) != 1 || (*fired)[0].Detector != "goroutine_leak" {
		t.Fatalf("fired = %v", *fired)
	}
}

func TestHeapGrowthDetector(t *testing.T) {
	heap := uint64(0)
	d := &HeapGrowthDetector{Window: 3, MinGrowth: 100, Sample: func() uint64 { return heap }}
	r, fired := collectRunner()
	r.Add(d, Hysteresis{})

	// Stable large heap: never fires.
	heap = 1 << 30
	for i := 0; i < 5; i++ {
		r.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	if len(*fired) != 0 {
		t.Fatal("fired on a stable heap")
	}
	// Monotone growth but below MinGrowth: quiet.
	for i := 0; i < 5; i++ {
		heap += 10
		r.Tick(t0)
	}
	if len(*fired) != 0 {
		t.Fatal("fired below MinGrowth")
	}
	// Monotone growth over the window above MinGrowth: fires.
	for i := 0; i < 3; i++ {
		heap += 200
		r.Tick(t0)
	}
	if len(*fired) != 1 || (*fired)[0].Detector != "heap_growth" {
		t.Fatalf("fired = %v", *fired)
	}
}

func TestGibbsDivergenceDetector(t *testing.T) {
	h := &ChainHealth{}
	r, fired := collectRunner()
	r.Add(&GibbsDivergenceDetector{Health: h, MaxRHat: 1.2}, Hysteresis{})

	// Healthy chain converging.
	h.ObserveSweep(100)
	h.ObserveRHat(1.05)
	r.Tick(t0)
	if len(*fired) != 0 {
		t.Fatal("fired on a converging chain")
	}
	// Diverging.
	h.ObserveRHat(2.5)
	r.Tick(t0.Add(time.Second))
	if len(*fired) != 1 || !strings.Contains((*fired)[0].Summary, "R-hat") {
		t.Fatalf("fired = %v", *fired)
	}
	// Finished chain with a stale bad R-hat: quiet (not active).
	h.Done()
	h2 := &ChainHealth{}
	r2, fired2 := collectRunner()
	r2.Add(&GibbsDivergenceDetector{Health: h2, MaxRHat: 1.2}, Hysteresis{})
	r2.Tick(t0)
	if len(*fired2) != 0 {
		t.Fatal("fired on an inactive chain")
	}
}

func TestGibbsStallDetector(t *testing.T) {
	h := &ChainHealth{}
	r, fired := collectRunner()
	r.Add(&GibbsStallDetector{Health: h}, Hysteresis{})

	// Progressing chain: sweep advances between ticks.
	h.ObserveSweep(10)
	r.Tick(t0)
	h.ObserveSweep(20)
	r.Tick(t0.Add(time.Second))
	h.ObserveSweep(30)
	r.Tick(t0.Add(2 * time.Second))
	if len(*fired) != 0 {
		t.Fatal("fired on a progressing chain")
	}
	// Sweep counter frozen across a tick: stall.
	r.Tick(t0.Add(3 * time.Second))
	if len(*fired) != 1 || (*fired)[0].Detector != "gibbs_stall" {
		t.Fatalf("fired = %v", *fired)
	}
	// Done: goes quiet even with the counter frozen.
	h.Done()
	r2, fired2 := collectRunner()
	d := &GibbsStallDetector{Health: h}
	r2.Add(d, Hysteresis{})
	r2.Tick(t0)
	r2.Tick(t0.Add(time.Second))
	if len(*fired2) != 0 {
		t.Fatal("fired on a finished chain")
	}
}

func TestWALGrowthDetector(t *testing.T) {
	records := int64(0)
	r, fired := collectRunner()
	r.Add(&WALGrowthDetector{Records: func() int64 { return records }, MaxRecords: 1000}, Hysteresis{})

	records = 500
	r.Tick(t0)
	if len(*fired) != 0 {
		t.Fatal("fired below the record limit")
	}
	records = 1500
	r.Tick(t0.Add(time.Second))
	if len(*fired) != 1 || (*fired)[0].Detector != "wal_growth" {
		t.Fatalf("fired = %v", *fired)
	}
	// A checkpoint zeroes the count; detector clears and re-arms.
	records = 0
	r.Tick(t0.Add(2 * time.Second))
	records = 2000
	r.Tick(t0.Add(3 * time.Second))
	if len(*fired) != 2 {
		t.Fatal("did not re-fire after a checkpoint reset")
	}
}

func TestRetryStormDetector(t *testing.T) {
	var retries int64
	r, fired := collectRunner()
	r.Add(&RetryStormDetector{Retries: func() int64 { return retries }, MaxPerTick: 10}, Hysteresis{})

	// Priming tick: a pre-existing total is not a storm.
	retries += 500
	r.Tick(t0)
	if len(*fired) != 0 {
		t.Fatal("fired on the priming tick")
	}
	// Slow drip: below the per-tick limit.
	retries += 5
	r.Tick(t0.Add(time.Second))
	if len(*fired) != 0 {
		t.Fatal("fired on a slow retry drip")
	}
	// Burst: 50 retries in one tick.
	retries += 50
	r.Tick(t0.Add(2 * time.Second))
	if len(*fired) != 1 || (*fired)[0].Detector != "retry_storm" {
		t.Fatalf("fired = %v", *fired)
	}
	// Storm over: delta back to zero, detector clears and re-arms.
	r.Tick(t0.Add(3 * time.Second))
	retries += 50
	r.Tick(t0.Add(4 * time.Second))
	if len(*fired) != 2 {
		t.Fatal("did not re-fire on a second burst")
	}
}

// TestRunnerStartStop is the only test touching the real ticker: Start
// then Stop must not leak the goroutine or deadlock.
func TestRunnerStartStop(t *testing.T) {
	r := NewRunner(time.Hour) // never actually ticks
	r.Start()
	r.Start() // idempotent
	r.Stop()
	r.Stop() // idempotent
}
