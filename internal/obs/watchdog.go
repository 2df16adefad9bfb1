package obs

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Anomaly watchdogs: a Runner evaluates pluggable Detectors on a ticker
// against live sources — the active-query registry, the Go runtime, the
// Gibbs chain health feed, the store's WAL, and the MPP retry counters.
// Every detector is a pure function of (its source, the tick's clock
// value), so tests drive Tick with an injected clock and synthetic
// sources instead of sleeping. Hysteresis wraps each detector: a
// finding must persist for FireAfter consecutive ticks to open an
// incident, and the condition must stay clear for ClearAfter ticks
// before the detector re-arms, so a flapping signal yields one incident
// rather than a storm.

// Finding is one detector's report of an anomaly: what fired, a
// human-readable summary, and — when a specific query is implicated —
// enough of its identity for the incident store to capture its plan.
type Finding struct {
	Detector  string `json:"detector"`
	Summary   string `json:"summary"`
	QueryID   string `json:"query_id,omitempty"`
	QueryKind string `json:"query_kind,omitempty"`
	QueryText string `json:"query_text,omitempty"`
}

// Detector checks one anomaly class. Check is called once per runner
// tick with the tick's clock value and reports whether the anomaly is
// currently present; detectors keep their own cross-tick state (heap
// windows, last-seen counters) and must be safe for use from the single
// runner goroutine plus Tick calls in tests.
type Detector interface {
	Name() string
	Check(now time.Time) (Finding, bool)
}

// Hysteresis is the fire/clear debounce applied to a detector.
// Zero values mean 1: fire on the first bad tick, re-arm on the first
// good one.
type Hysteresis struct {
	FireAfter  int // consecutive bad ticks before firing
	ClearAfter int // consecutive good ticks before re-arming
}

func (h Hysteresis) withDefaults() Hysteresis {
	if h.FireAfter < 1 {
		h.FireAfter = 1
	}
	if h.ClearAfter < 1 {
		h.ClearAfter = 1
	}
	return h
}

// armed is one registered detector plus its hysteresis state.
type armed struct {
	d      Detector
	h      Hysteresis
	bad    int  // consecutive bad ticks
	good   int  // consecutive good ticks while firing
	firing bool // fired and not yet re-armed
}

// Runner evaluates detectors on a ticker. OnFire receives each
// detector's finding exactly once per fire/clear cycle (the incident
// store's Open, in production). The zero interval defaults to 5s.
type Runner struct {
	OnFire func(Finding)

	interval time.Duration
	now      func() time.Time

	mu        sync.Mutex
	detectors []*armed

	stop chan struct{}
	done chan struct{}
}

// NewRunner returns a stopped runner ticking every interval once
// started.
func NewRunner(interval time.Duration) *Runner {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Runner{interval: interval, now: time.Now}
}

var (
	watchdogTicks    = NewCounter("probkb_watchdog_ticks_total", "Watchdog evaluation rounds run.")
	watchdogFindings = NewCounterVec("probkb_watchdog_findings_total",
		"Watchdog detector firings, by detector.", "detector")
)

// Add registers a detector under the given hysteresis.
func (r *Runner) Add(d Detector, h Hysteresis) *Runner {
	r.mu.Lock()
	r.detectors = append(r.detectors, &armed{d: d, h: h.withDefaults()})
	r.mu.Unlock()
	return r
}

// Tick evaluates every detector once against the given clock value —
// the runner goroutine calls it each interval; tests call it directly
// with synthetic times.
func (r *Runner) Tick(now time.Time) {
	watchdogTicks.Inc()
	r.mu.Lock()
	ds := append([]*armed(nil), r.detectors...)
	r.mu.Unlock()
	for _, a := range ds {
		f, bad := a.d.Check(now)
		if bad {
			a.bad++
			a.good = 0
			if !a.firing && a.bad >= a.h.FireAfter {
				a.firing = true
				watchdogFindings.With(a.d.Name()).Inc()
				Logger().Warn("watchdog fired", "detector", a.d.Name(), "summary", f.Summary)
				if r.OnFire != nil {
					r.OnFire(f)
				}
			}
			continue
		}
		a.bad = 0
		if a.firing {
			a.good++
			if a.good >= a.h.ClearAfter {
				a.firing = false
				a.good = 0
			}
		}
	}
}

// Start launches the ticker goroutine; Stop ends it. Start on a running
// runner is a no-op.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				r.Tick(now)
			}
		}
	}(r.stop, r.done)
}

// Stop halts the ticker goroutine and waits for it to exit.
func (r *Runner) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// --- Detectors ---------------------------------------------------------

// StuckQueryDetector flags any registered query running longer than
// MaxElapsed — the unbounded-work failure mode the active-query
// registry exists to expose.
type StuckQueryDetector struct {
	Registry   *QueryRegistry
	MaxElapsed time.Duration
}

func (d *StuckQueryDetector) Name() string { return "stuck_query" }

func (d *StuckQueryDetector) Check(now time.Time) (Finding, bool) {
	for _, q := range d.Registry.Snapshot(now) {
		if q.Elapsed > d.MaxElapsed {
			return Finding{
				Detector: d.Name(),
				Summary: fmt.Sprintf("query %s (%s) running %s in phase %q, limit %s",
					q.ID, q.Kind, q.Elapsed.Round(time.Millisecond), q.Phase, d.MaxElapsed),
				QueryID: q.ID, QueryKind: q.Kind, QueryText: q.Text,
			}, true
		}
	}
	return Finding{}, false
}

// GoroutineLeakDetector flags a goroutine count above Max. Sample
// defaults to runtime.NumGoroutine; tests inject a synthetic counter.
type GoroutineLeakDetector struct {
	Max    int
	Sample func() int
}

func (d *GoroutineLeakDetector) Name() string { return "goroutine_leak" }

func (d *GoroutineLeakDetector) Check(time.Time) (Finding, bool) {
	sample := d.Sample
	if sample == nil {
		sample = runtime.NumGoroutine
	}
	if n := sample(); n > d.Max {
		return Finding{
			Detector: d.Name(),
			Summary:  fmt.Sprintf("%d goroutines, limit %d", n, d.Max),
		}, true
	}
	return Finding{}, false
}

// HeapGrowthDetector flags heap that grows on every one of Window
// consecutive ticks by at least MinGrowth bytes in total — a slope
// check, so a stable-but-large heap never fires. Sample defaults to
// reading runtime.MemStats.HeapAlloc.
type HeapGrowthDetector struct {
	Window    int    // ticks of monotone growth required (default 4)
	MinGrowth uint64 // bytes over the window (default 64 MiB)
	Sample    func() uint64

	window []uint64
}

func (d *HeapGrowthDetector) Name() string { return "heap_growth" }

func (d *HeapGrowthDetector) Check(time.Time) (Finding, bool) {
	sample := d.Sample
	if sample == nil {
		sample = func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
	}
	win := d.Window
	if win < 2 {
		win = 4
	}
	min := d.MinGrowth
	if min == 0 {
		min = 64 << 20
	}
	d.window = append(d.window, sample())
	if len(d.window) > win {
		d.window = d.window[len(d.window)-win:]
	}
	if len(d.window) < win {
		return Finding{}, false
	}
	for i := 1; i < len(d.window); i++ {
		if d.window[i] <= d.window[i-1] {
			return Finding{}, false
		}
	}
	growth := d.window[len(d.window)-1] - d.window[0]
	if growth < min {
		return Finding{}, false
	}
	return Finding{
		Detector: d.Name(),
		Summary: fmt.Sprintf("heap grew %d bytes over %d consecutive ticks (now %d bytes)",
			growth, win-1, d.window[len(d.window)-1]),
	}, true
}

// ChainHealth is the live Gibbs feed: the sampler reports each sweep
// and each checkpoint's max split R-hat; detectors read the latest
// state. Gibbs is the process-wide instance internal/infer updates. A
// chain is active from its first sweep to Done; an inference pass that
// enumerates every component runs no chain and never activates the
// feed, so "nothing to sample" reads as idle — healthy — to both
// detectors below.
type ChainHealth struct {
	mu     sync.Mutex
	active bool
	sweep  int
	rhat   float64
}

// Gibbs is the process-wide chain-health feed.
var Gibbs = &ChainHealth{}

// ObserveSweep records sampling progress (called once per sweep).
func (c *ChainHealth) ObserveSweep(sweep int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.active = true
	c.sweep = sweep
	c.mu.Unlock()
}

// ObserveRHat records the latest checkpoint's max split R-hat.
func (c *ChainHealth) ObserveRHat(rhat float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rhat = rhat
	c.mu.Unlock()
}

// Done marks the chain finished; detectors go quiet.
func (c *ChainHealth) Done() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.active = false
	c.sweep, c.rhat = 0, 0
	c.mu.Unlock()
}

// State returns the current (active, sweep, rhat) triple.
func (c *ChainHealth) State() (active bool, sweep int, rhat float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active, c.sweep, c.rhat
}

// GibbsDivergenceDetector flags an active chain whose latest checkpoint
// R-hat exceeds MaxRHat — the chain is drifting, not converging.
type GibbsDivergenceDetector struct {
	Health  *ChainHealth
	MaxRHat float64
}

func (d *GibbsDivergenceDetector) Name() string { return "gibbs_divergence" }

func (d *GibbsDivergenceDetector) Check(time.Time) (Finding, bool) {
	active, sweep, rhat := d.Health.State()
	if active && rhat > d.MaxRHat {
		return Finding{
			Detector: d.Name(),
			Summary:  fmt.Sprintf("gibbs chain at sweep %d has R-hat %.3f, limit %.3f", sweep, rhat, d.MaxRHat),
		}, true
	}
	return Finding{}, false
}

// GibbsStallDetector flags an active chain whose sweep counter did not
// advance between two runner ticks — the sampler is alive but stuck.
type GibbsStallDetector struct {
	Health *ChainHealth

	lastSweep  int
	lastActive bool
}

func (d *GibbsStallDetector) Name() string { return "gibbs_stall" }

func (d *GibbsStallDetector) Check(time.Time) (Finding, bool) {
	active, sweep, _ := d.Health.State()
	stalled := active && d.lastActive && sweep == d.lastSweep
	d.lastActive, d.lastSweep = active, sweep
	if stalled {
		return Finding{
			Detector: d.Name(),
			Summary:  fmt.Sprintf("gibbs chain stalled at sweep %d (no progress since last tick)", sweep),
		}, true
	}
	return Finding{}, false
}

// WALGrowthDetector flags a write-ahead log holding more than
// MaxRecords records. The store zeroes the count at each checkpoint,
// so a high count means the WAL is growing without one.
type WALGrowthDetector struct {
	Records    func() int64
	MaxRecords int64
}

func (d *WALGrowthDetector) Name() string { return "wal_growth" }

func (d *WALGrowthDetector) Check(time.Time) (Finding, bool) {
	if n := d.Records(); n > d.MaxRecords {
		return Finding{
			Detector: d.Name(),
			Summary:  fmt.Sprintf("WAL holds %d records without a checkpoint, limit %d", n, d.MaxRecords),
		}, true
	}
	return Finding{}, false
}

// RetryStormDetector flags MPP segment retries arriving faster than
// MaxPerTick per runner tick; Retries reads the cumulative retry count.
// A burst that stops does not keep it firing: only the delta since the
// previous tick counts.
type RetryStormDetector struct {
	Retries    func() int64
	MaxPerTick int64

	last   int64
	primed bool
}

func (d *RetryStormDetector) Name() string { return "retry_storm" }

func (d *RetryStormDetector) Check(time.Time) (Finding, bool) {
	cur := d.Retries()
	delta := cur - d.last
	first := !d.primed
	d.last, d.primed = cur, true
	if first || delta <= d.MaxPerTick {
		return Finding{}, false
	}
	return Finding{
		Detector: d.Name(),
		Summary:  fmt.Sprintf("%d segment retries since last tick, limit %d", delta, d.MaxPerTick),
	}, true
}
