package mpp

import (
	"context"
	"errors"
	"time"

	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// Fault-injection and retry metrics. Retries and injected faults also
// land in the run journal (segment_fault / segment_retry events) so
// `probkb report` can show them; Canonicalize drops both types because
// their interleaving with other events is scheduling-dependent.
var (
	faultsInjected = obs.NewCounterVec("probkb_mpp_faults_injected_total",
		"Segment task faults injected by the active FaultPlan, by kind.", "kind")
	segmentRetries = obs.NewCounter("probkb_mpp_segment_retries_total",
		"Segment task retries after a failed attempt.")
)

// SegmentRetries returns the segment task retries run in this process;
// the server's retry-storm watchdog reads it.
func SegmentRetries() int64 { return segmentRetries.Value() }

// FaultPlan deterministically injects faults into segment task execution:
// plain failures, worker panics (exercising the last-resort recover in
// the task runner), and stragglers (an injected sleep). Whether a given
// (task, segment, attempt) triple faults is a pure function of the seed,
// so two runs with the same plan draw exactly the same faults regardless
// of goroutine scheduling — and because segment tasks are pure functions
// of their input partitions, retried execution is idempotent and a
// faulted run's results are byte-identical to a fault-free run's.
type FaultPlan struct {
	// Seed selects the fault sequence.
	Seed int64
	// FailRate, PanicRate and StraggleRate are per-attempt probabilities
	// in [0, 1]; they are tested in that order against one uniform draw,
	// so their sum should stay <= 1.
	FailRate     float64
	PanicRate    float64
	StraggleRate float64
	// StraggleDelay is how long an injected straggler sleeps.
	StraggleDelay time.Duration
}

// RetryPolicy bounds how often the cluster re-executes a failed segment
// task. The zero value disables retries.
type RetryPolicy struct {
	// MaxRetries is the number of re-executions after the first attempt.
	MaxRetries int
	// Backoff is the base delay before retry k (scaled linearly by k).
	Backoff time.Duration
}

type faultKind int

const (
	faultNone faultKind = iota
	faultFail
	faultPanic
	faultStraggle
)

func (k faultKind) String() string {
	switch k {
	case faultFail:
		return "fail"
	case faultPanic:
		return "panic"
	case faultStraggle:
		return "straggle"
	}
	return "none"
}

// splitmix is the splitmix64 finalizer: a cheap, well-mixed integer hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw decides what fault (if any) attempt number `attempt` of segment
// `seg`'s part of task `task` suffers. Pure: no shared RNG state, so the
// decision is independent of execution order.
func (p *FaultPlan) draw(task int64, seg, attempt int) faultKind {
	if p == nil {
		return faultNone
	}
	h := splitmix(uint64(p.Seed))
	h = splitmix(h ^ uint64(task))
	h = splitmix(h ^ uint64(seg))
	h = splitmix(h ^ uint64(attempt))
	u := float64(h>>11) / float64(uint64(1)<<53)
	switch {
	case u < p.FailRate:
		return faultFail
	case u < p.FailRate+p.PanicRate:
		return faultPanic
	case u < p.FailRate+p.PanicRate+p.StraggleRate:
		return faultStraggle
	}
	return faultNone
}

// noteFault records one injected fault in the registry and the journal.
func (c *Cluster) noteFault(task int64, seg, attempt int, kind faultKind) {
	faultsInjected.With(kind.String()).Inc()
	c.jr.Emit(journal.TypeSegmentFault, journal.SegmentFault{
		Task: task, Segment: seg, Attempt: attempt, Kind: kind.String(),
	})
}

// noteRetry records one segment task re-execution.
func (c *Cluster) noteRetry(task int64, seg, attempt int, cause error) {
	segmentRetries.Inc()
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	c.jr.Emit(journal.TypeSegmentRetry, journal.SegmentRetry{
		Task: task, Segment: seg, Attempt: attempt, Cause: msg,
	})
}

// isCtxErr reports whether err is a cancellation or deadline error;
// those are never retried — the caller asked the work to stop.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
