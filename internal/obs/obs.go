// Package obs is the stdlib-only observability layer of the probkb
// pipeline: a concurrency-safe metrics registry rendered in Prometheus
// text exposition format (registry.go), a span tracer whose text
// renderer generalizes the engine's EXPLAIN ANALYZE style to the whole
// expansion pipeline (span.go), and shared structured logging carrying
// trace ids (log.go).
//
// The paper demonstrates its 237× grounding speedup with annotated
// Greenplum EXPLAIN plans (Figure 4) and per-stage timings (Section 8);
// this package makes the same evidence available continuously: every
// grounding iteration, motion, Gibbs sweep, and HTTP request records
// into the Default registry, and every Expand call leaves a span tree
// in the DefaultTracer ring. internal/server surfaces both at
// GET /metrics and GET /debug/traces.
//
// Conventions: metric names are probkb_<area>_<what>[_total]; durations
// are histograms in seconds over DurationBuckets; byte volumes use
// SizeBuckets. A metric's declaration checks the naming rules
// (registry.go).
package obs

import "time"

// Seconds converts a duration to the float seconds metrics record.
func Seconds(d time.Duration) float64 { return d.Seconds() }

// Since is shorthand for Seconds(time.Since(t)).
func Since(t time.Time) float64 { return time.Since(t).Seconds() }
