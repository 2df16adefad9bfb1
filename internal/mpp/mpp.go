// Package mpp implements the shared-nothing massively parallel processing
// database substrate that ProbKB-p runs on (the paper uses Greenplum 4.2;
// this package plays that role).
//
// A Cluster owns a fixed number of segments. A DistTable is a relation
// whose rows are hash-partitioned across segments by a tuple of Int32
// "distribution key" columns, or fully replicated on every segment.
// Distributed operators execute the single-node engine operators once
// per segment, in parallel goroutines, with *motion* operators —
// Redistribute, Broadcast, Gather — wherever the data placement an
// operator needs differs from the placement it has. Motions account for
// the rows and bytes they ship, so Explain output reproduces the
// plan-shape comparison of Figure 4 in the paper: a join against a table
// already distributed on the join key shows a cheap Redistribute Motion on
// the other input, while the unoptimized plan shows an expensive Broadcast
// Motion.
//
// Section 4.4 of the paper keys its optimization on *redistributed
// materialized views*: extra copies of TΠ distributed by the exact key
// tuples the grounding joins use. Views.Materialize registers such a
// view.
//
// Distributed plans are not written by hand: a query is stated once as a
// single-node engine plan, and Lower (lower.go) places it on the
// cluster — rebinding scans to their cluster copies, picking the
// collocated view when one exists, and inserting the motions.
package mpp

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probkb/internal/engine"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// Cluster metrics: per-segment task wall times (the skew view Figure 6
// cares about) and motion volumes; see nodes.go for the motion side.
var (
	segmentSeconds = obs.NewHistogramVec("probkb_mpp_segment_seconds",
		"Per-segment task wall time across distributed operators.", nil, "segment")
	motionRows = obs.NewCounterVec("probkb_mpp_motion_rows_total",
		"Rows shipped across segments, by motion kind.", "motion")
	motionBytesTotal = obs.NewCounterVec("probkb_mpp_motion_bytes_total",
		"Bytes shipped across segments, by motion kind.", "motion")
	motionBytes = obs.NewHistogramVec("probkb_mpp_motion_bytes",
		"Per-motion shipped byte volume distribution.", obs.SizeBuckets, "motion")
)

// Cluster models a shared-nothing MPP database with a fixed segment count.
//
// Setup or collocation mistakes never panic: an invalid cluster carries a
// deferred error that every derived table and plan inherits and that
// surfaces when the plan runs, so a malformed distributed query is an
// ordinary error at the SQL/HTTP surface instead of a process exit.
type Cluster struct {
	nseg int
	err  error

	// ctx, faults, retry and jr configure segment-task execution; see
	// SetContext, SetFaults, SetRetry and SetJournal.
	ctx     context.Context
	faults  *FaultPlan
	retry   RetryPolicy
	jr      *journal.Writer
	taskSeq atomic.Int64

	// workers is the per-segment worker budget; see SetWorkers.
	workers    int
	morselSize int
}

// NewCluster returns a cluster with n segments. A cluster with n < 1 is
// invalid; it is still returned (with one inert segment) and every plan
// run against it fails with the recorded error.
func NewCluster(n int) *Cluster {
	if n < 1 {
		return &Cluster{nseg: 1, err: fmt.Errorf("mpp: cluster needs at least one segment, got %d", n)}
	}
	return &Cluster{nseg: n}
}

// NumSegments returns the cluster's segment count.
func (c *Cluster) NumSegments() int { return c.nseg }

// Err returns the cluster's deferred setup error, if any.
func (c *Cluster) Err() error { return c.err }

// SetContext attaches a context to the cluster. Segment tasks check it
// before (and retries during) execution, so cancelling it stops a
// running distributed plan at the next task boundary.
func (c *Cluster) SetContext(ctx context.Context) { c.ctx = ctx }

// SetFaults installs a deterministic fault-injection plan (nil disables).
func (c *Cluster) SetFaults(p *FaultPlan) { c.faults = p }

// SetRetry installs the segment-task retry policy.
func (c *Cluster) SetRetry(p RetryPolicy) { c.retry = p }

// SetJournal attaches a run journal; injected faults and retries are
// recorded as segment_fault / segment_retry events.
func (c *Cluster) SetJournal(w *journal.Writer) { c.jr = w }

// SetWorkers sets the worker budget each segment task hands to the engine
// kernels it runs. The default (anything < 2) keeps the historical
// behavior — segments execute their inner plans serially, and all
// parallelism comes from the goroutine-per-segment in forEachSegment.
// Results are identical for every setting (see engine.Opts).
func (c *Cluster) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.workers = n
}

// SetMorselSize overrides engine.DefaultMorselSize for the engine kernels
// segment tasks run (0 keeps the default). Like the worker budget it never
// changes results, but tests shrink it so small per-segment partitions
// still split into enough morsels to engage the worker pool.
func (c *Cluster) SetMorselSize(n int) {
	if n < 0 {
		n = 0
	}
	c.morselSize = n
}

// engineOpts returns the engine execution options segment tasks run under.
func (c *Cluster) engineOpts() engine.Opts {
	w := c.workers
	if w < 1 {
		w = 1
	}
	return engine.Opts{Workers: w, MorselSize: c.morselSize}
}

// ctxErr returns the attached context's error, if any.
func (c *Cluster) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// sleep waits d, returning early with the context error on cancellation.
func (c *Cluster) sleep(d time.Duration) error {
	if d <= 0 {
		return c.ctxErr()
	}
	if c.ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	case <-t.C:
		return nil
	}
}

// Distribution describes how a DistTable's rows are placed.
//
// Exactly one of three states holds: hash-distributed by Key (Key != nil),
// replicated on every segment (Replicated), or scattered with no placement
// invariant (both zero — "distributed randomly" in Greenplum terms).
type Distribution struct {
	Key        []int
	Replicated bool
}

// HashedBy returns a hash distribution on the given key columns.
func HashedBy(key ...int) Distribution { return Distribution{Key: key} }

// ReplicatedDist returns the replicated distribution.
func ReplicatedDist() Distribution { return Distribution{Replicated: true} }

// RandomDist returns the no-invariant distribution.
func RandomDist() Distribution { return Distribution{} }

// Random reports whether the distribution carries no placement invariant.
func (d Distribution) Random() bool { return d.Key == nil && !d.Replicated }

// String renders the distribution for Explain output.
func (d Distribution) String() string {
	switch {
	case d.Replicated:
		return "replicated"
	case d.Key != nil:
		return fmt.Sprintf("hashed%v", d.Key)
	default:
		return "random"
	}
}

// DistTable is a relation partitioned (or replicated) across the segments
// of one cluster. A table created under an invalid cluster or placement
// carries a deferred error (Err); plans over it fail at Run instead of
// panicking.
type DistTable struct {
	cluster *Cluster
	name    string
	schema  engine.Schema
	dist    Distribution
	segs    []*engine.Table
	err     error
}

// Name returns the distributed table's name.
func (d *DistTable) Name() string { return d.name }

// Err returns the table's deferred setup error, if any.
func (d *DistTable) Err() error { return d.err }

// SetName renames the distributed table.
func (d *DistTable) SetName(n string) {
	d.name = n
	for i, s := range d.segs {
		s.SetName(fmt.Sprintf("%s.seg%d", n, i))
	}
}

// Schema returns the table schema.
func (d *DistTable) Schema() engine.Schema { return d.schema }

// Dist returns the table's distribution.
func (d *DistTable) Dist() Distribution { return d.dist }

// Replicated reports whether every segment holds a full copy.
func (d *DistTable) Replicated() bool { return d.dist.Replicated }

// Segment returns segment i's local slice of the table.
func (d *DistTable) Segment(i int) *engine.Table { return d.segs[i] }

// ByteSize returns the total bytes the table's segment slices pin —
// every copy counted, so a replicated table costs nseg copies. Like
// engine.Table.ByteSize it is a pure function of the data, making it
// safe to pin in golden EXPLAIN ANALYZE files.
func (d *DistTable) ByteSize() int64 {
	var n int64
	for _, s := range d.segs {
		n += s.ByteSize()
	}
	return n
}

// NumRows returns the logical row count: the sum over segments for a
// distributed table, or one copy's count for a replicated one.
func (d *DistTable) NumRows() int {
	if d.Replicated() {
		return d.segs[0].NumRows()
	}
	n := 0
	for _, s := range d.segs {
		n += s.NumRows()
	}
	return n
}

// segmentOf returns the segment a row of t belongs on under key.
func segmentOf(t *engine.Table, row int, key []int, nseg int) int {
	return int(engine.HashRow(t, row, key) % uint64(nseg))
}

// newDistTable allocates the per-segment shells; the table inherits the
// cluster's deferred error.
func (c *Cluster) newDistTable(name string, schema engine.Schema, dist Distribution) *DistTable {
	d := &DistTable{cluster: c, name: name, schema: schema, dist: dist, err: c.err}
	d.segs = make([]*engine.Table, c.nseg)
	for i := range d.segs {
		d.segs[i] = engine.NewTable(fmt.Sprintf("%s.seg%d", name, i), schema)
	}
	return d
}

// Distribute loads t into the cluster hash-partitioned by the given key
// columns. This is the bulkload path (CREATE TABLE ... DISTRIBUTED BY).
// An empty key is a placement error, recorded on the returned table
// (use Replicate for replicated tables).
func (c *Cluster) Distribute(t *engine.Table, key []int) *DistTable {
	return c.distribute(t.Name(), t.Schema(), []*engine.Table{t}, key)
}

// distribute is Distribute of the rows of srcs, one table after the
// other, without concatenating them first.
func (c *Cluster) distribute(name string, schema engine.Schema, srcs []*engine.Table, key []int) *DistTable {
	if len(key) == 0 {
		d := c.newDistTable(name, schema, RandomDist())
		d.err = fmt.Errorf("mpp: Distribute %s needs a non-empty key; use Replicate for replicated tables", name)
		return d
	}
	d := c.newDistTable(name, schema, HashedBy(append([]int(nil), key...)...))
	if d.err != nil {
		return d
	}
	for _, t := range srcs {
		scatterInto(t, 0, d.segs, key)
	}
	return d
}

// Replicate loads t as a replicated table: every segment gets a full copy
// (CREATE TABLE ... DISTRIBUTED REPLICATED). The paper replicates the
// small MLN partition tables M1..M6 this way.
func (c *Cluster) Replicate(t *engine.Table) *DistTable {
	d := c.newDistTable(t.Name(), t.Schema(), ReplicatedDist())
	for i := range d.segs {
		d.segs[i].AppendTable(t)
	}
	return d
}

// scatterInto hash-partitions rows [from, t.NumRows()) of t into the
// given per-segment tables and returns the per-segment row lists (useful
// to motions for accounting).
func scatterInto(t *engine.Table, from int, segs []*engine.Table, key []int) [][]int32 {
	nseg := len(segs)
	perSeg := make([][]int32, nseg)
	for r := from; r < t.NumRows(); r++ {
		s := segmentOf(t, r, key, nseg)
		perSeg[s] = append(perSeg[s], int32(r))
	}
	for s, rows := range perSeg {
		if len(rows) == 0 {
			continue
		}
		segs[s].AppendRowsFrom(t, rows)
	}
	return perSeg
}

// AppendFrom incrementally loads rows [from, t.NumRows()) of t into the
// distributed table, straight from t: hashed tables scatter them by
// their key, replicated tables append them everywhere. This is the
// incremental materialized-view maintenance path the grounder uses
// between iterations; DeleteWhere is the other half, for the rows a
// constraint pass removed. Appending into an errored or randomly
// distributed table is an error.
func (d *DistTable) AppendFrom(t *engine.Table, from int) error {
	if d.err != nil {
		return d.err
	}
	n := t.NumRows()
	if from >= n {
		return nil
	}
	if d.Replicated() {
		rows := make([]int32, 0, n-from)
		for r := from; r < n; r++ {
			rows = append(rows, int32(r))
		}
		for _, s := range d.segs {
			s.AppendRowsFrom(t, rows)
		}
		return nil
	}
	key := d.dist.Key
	if key == nil {
		return fmt.Errorf("mpp: AppendFrom into randomly distributed table %s", d.name)
	}
	scatterInto(t, from, d.segs, key)
	return nil
}

// DeleteWhere removes from every segment (every copy, for a replicated
// table) the rows whose value in Int32 column col gone reports. Each
// segment closes up in order (engine.Table.DeleteRows), so a hashed
// table stays what distributing its surviving rows in their order
// gives. Like AppendFrom it runs on the master, segment by segment; a
// second call with the same gone removes nothing more.
func (d *DistTable) DeleteWhere(col int, gone func(v int32) bool) error {
	if d.err != nil {
		return d.err
	}
	for _, s := range d.segs {
		var rows []int32
		for r, v := range s.Int32Col(col) {
			if gone(v) {
				rows = append(rows, int32(r))
			}
		}
		s.DeleteRows(rows)
	}
	return nil
}

// Gather collects a distributed table onto the master as one engine table.
func Gather(d *DistTable) *engine.Table {
	out := engine.NewTable(d.name, d.schema)
	for _, s := range d.parts() {
		out.AppendTable(s)
	}
	return out
}

// parts returns the segment tables whose rows, in order, are d's rows
// as Gather collects them: one copy of a replicated table, every segment
// of another.
func (d *DistTable) parts() []*engine.Table {
	if d.Replicated() {
		return d.segs[:1]
	}
	return d.segs
}

// forEachSegment runs f(i) for every segment index concurrently and
// returns each segment task's wall time in seconds, the number of
// segment-task re-executions the retry policy performed, and the first
// error. The times also land in /metrics; operators additionally stash
// them (and the retry count) in their NodeStats so per-operator
// straggler and fault analysis can see them.
//
// Each per-segment execution goes through the segment-task runner, which
// honors the cluster context, injects faults from the active FaultPlan,
// recovers worker panics into per-segment errors, and retries failed
// attempts under the retry policy. Segment tasks must be pure functions
// of their input partitions (build fresh output, assign at the end) so
// re-execution is idempotent.
func (c *Cluster) forEachSegment(f func(i int) error) ([]float64, int, error) {
	if c.err != nil {
		return nil, 0, c.err
	}
	if err := c.ctxErr(); err != nil {
		return nil, 0, err
	}
	// Task IDs are assigned in plan-execution order, which is sequential
	// per cluster, so fault draws are deterministic; the counter is
	// atomic only to stay race-clean if plans ever overlap.
	task := c.taskSeq.Add(1)
	var wg sync.WaitGroup
	var retries atomic.Int64
	errs := make([]error, c.nseg)
	secs := make([]float64, c.nseg)
	for i := 0; i < c.nseg; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			r, err := c.runSegmentTask(task, i, f)
			errs[i] = err
			retries.Add(int64(r))
			secs[i] = time.Since(start).Seconds()
			segmentSeconds.With(strconv.Itoa(i)).Observe(secs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return secs, int(retries.Load()), err
		}
	}
	return secs, int(retries.Load()), nil
}

// runSegmentTask executes one segment's share of a task, retrying failed
// attempts up to the retry policy's bound with linear backoff; it
// returns how many re-executions it needed. Cancellation is never
// retried.
func (c *Cluster) runSegmentTask(task int64, seg int, f func(i int) error) (int, error) {
	var lastErr error
	retried := 0
	for attempt := 0; attempt <= c.retry.MaxRetries; attempt++ {
		if err := c.ctxErr(); err != nil {
			return retried, err
		}
		if attempt > 0 {
			retried++
			c.noteRetry(task, seg, attempt, lastErr)
			if err := c.sleep(time.Duration(attempt) * c.retry.Backoff); err != nil {
				return retried, err
			}
		}
		err := c.attemptSegmentTask(task, seg, attempt, f)
		if err == nil {
			return retried, nil
		}
		if isCtxErr(err) {
			return retried, err
		}
		lastErr = err
	}
	if c.retry.MaxRetries > 0 {
		return retried, fmt.Errorf("mpp: segment %d task %d failed after %d attempts: %w",
			seg, task, c.retry.MaxRetries+1, lastErr)
	}
	return retried, lastErr
}

// attemptSegmentTask is one attempt: draw (and apply) any injected
// fault, then run the task body. A panicking worker — injected or real —
// is recovered here and surfaces as a per-segment error gathered at the
// motion boundary; this is the last-resort guard that keeps distributed
// queries panic-free.
func (c *Cluster) attemptSegmentTask(task int64, seg, attempt int, f func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mpp: segment %d task %d panicked: %v", seg, task, r)
		}
	}()
	if c.faults != nil {
		switch kind := c.faults.draw(task, seg, attempt); kind {
		case faultFail:
			c.noteFault(task, seg, attempt, kind)
			return fmt.Errorf("mpp: injected failure (task %d, segment %d, attempt %d)", task, seg, attempt)
		case faultPanic:
			c.noteFault(task, seg, attempt, kind)
			// The only panic in this package; the recover above converts it
			// into a per-segment error like any real worker panic.
			panic(fmt.Sprintf("injected panic (task %d, segment %d, attempt %d)", task, seg, attempt))
		case faultStraggle:
			c.noteFault(task, seg, attempt, kind)
			if err := c.sleep(c.faults.StraggleDelay); err != nil {
				return err
			}
		}
	}
	return f(seg)
}

// keysEqual reports whether two distribution key tuples are identical.
func keysEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
