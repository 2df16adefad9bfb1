// Package ingest is the streaming-ingest pipeline: a bounded firehose
// queue feeding a batcher (size and latency triggers) feeding a single
// writer that absorbs fact batches through an Absorber — in probkb, a
// semi-naive delta-grounding extend round per batch — and pays down
// marginal staleness through a bounded-staleness refresh policy.
//
// The pipeline owns no knowledge-base machinery. It owns the queueing
// discipline: facts submitted concurrently are absorbed in arrival
// order, one batch at a time; a full queue pushes back on Submit
// instead of buffering without bound; a batch forms when MaxBatch facts
// are waiting or MaxDelay has passed since the batch's first fact,
// whichever comes first. Absorption is serial, so the Absorber never
// sees two concurrent calls.
//
// Staleness model: every absorbed batch makes its facts (and their
// closure) visible immediately, but marginal refresh — the expensive
// factor + Gibbs pass — runs only when the policy fires: every
// RefreshEvery batches, or at Close when RefreshOnClose is set. The current
// staleness (batches absorbed since the last refresh) is exported as
// the probkb_ingest_staleness_batches gauge.
//
// What happens when one sealed batch lands is the Lander, the only
// place that policy lives: the Pipeline's writer lands through it, and
// so does the server's chunked POST /facts, which skips the queue and
// batcher (the client seals the batches) and nothing else.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

func init() {
	obs.Default.Help("probkb_ingest_facts_total", "Facts absorbed by the streaming-ingest pipeline.")
	obs.Default.Help("probkb_ingest_batches_total", "Fact batches absorbed by the streaming-ingest pipeline.")
	obs.Default.Help("probkb_ingest_refreshes_total", "Marginal refresh passes run by the streaming-ingest pipeline.")
	obs.Default.Help("probkb_ingest_queue_depth", "Facts waiting in the ingest firehose queue.")
	obs.Default.Help("probkb_ingest_staleness_batches", "Batches absorbed since the last marginal refresh.")
	obs.Default.Help("probkb_ingest_absorb_seconds", "Wall time absorbing one ingest batch (delta grounding + publication).")
}

// Fact is one symbolic observed fact in the ingest stream, in its one
// wire shape: a JSONL line of `probkb ingest` and an element of a POST
// /facts body decode straight into it.
type Fact struct {
	Rel         string  `json:"rel"`
	X           string  `json:"x"`
	XClass      string  `json:"xClass"`
	Y           string  `json:"y"`
	YClass      string  `json:"yClass"`
	Probability float64 `json:"probability"`
}

// Validate is the one input check every driver's batch passes before it
// lands: every fact names its relation, arguments and classes, and its
// probability is a finite number in [0, 1] (NaN in particular is the
// closure's "marginal pending" marker, never an observation).
func Validate(facts []Fact) error {
	if len(facts) == 0 {
		return errors.New(`no facts: body must be {"facts": [{"rel": ..., "x": ..., "xClass": ..., "y": ..., "yClass": ..., "probability": ...}]}`)
	}
	for i, f := range facts {
		if f.Rel == "" || f.X == "" || f.XClass == "" || f.Y == "" || f.YClass == "" {
			return fmt.Errorf("facts[%d]: rel, x, xClass, y, yClass are all required", i)
		}
		if !(f.Probability >= 0 && f.Probability <= 1) {
			return fmt.Errorf("facts[%d]: probability %v outside [0, 1]", i, f.Probability)
		}
	}
	return nil
}

// Ack describes one landed batch, and is the NDJSON ack line of a
// streamed POST /facts. The Absorber fills the absorption fields; the
// Lander fills the bookkeeping ones.
type Ack struct {
	// Batch is the 1-based index of the batch within its Lander (a
	// pipeline run); the HTTP stream renumbers it within the request.
	Batch int `json:"batch"`
	// Facts is how many facts the batch carried.
	Facts int `json:"facts"`
	// Added is how many were genuinely new (not already in the closure).
	Added int `json:"added"`
	// Derived is how many new facts delta grounding inferred from them.
	Derived int `json:"derived"`
	// Generation is the newest published generation holding the batch:
	// readers that pin it (or any later one) see the batch's whole
	// closure — and, on a Refreshed ack, its refreshed marginals.
	Generation uint64 `json:"generation"`
	// DurableSeq is the durable WAL record count as of Generation (0
	// when no store is attached): replay up to here recovers the batch.
	DurableSeq int64 `json:"durableSeq"`
	// StaleBatches is the marginal staleness after this batch: batches
	// absorbed since the last refresh.
	StaleBatches int `json:"staleBatches"`
	// Refreshed reports whether a marginal refresh ran right after this
	// batch.
	Refreshed bool `json:"refreshed,omitempty"`
}

// Absorber lands batches. Calls are serialized by the Lander.
type Absorber interface {
	// Absorb makes one batch's facts and their closure visible (and
	// durable, if the implementation persists). It fills Added, Derived,
	// Generation, and DurableSeq of the returned Ack.
	Absorb(ctx context.Context, facts []Fact) (Ack, error)
	// Refresh pays down accumulated marginal staleness. It returns the
	// generation the refreshed state was published as.
	Refresh(ctx context.Context) (uint64, error)
}

// durable is the Absorber that persists: a refresh logs the marginals it
// rewrote, so a Refreshed ack re-reads the sequence its Generation
// stands at.
type durable interface{ DurableSeq() int64 }

// Config tunes the pipeline. Zero values mean the documented defaults.
type Config struct {
	// MaxBatch is the batch-size trigger (default 256 facts).
	MaxBatch int
	// MaxDelay is the batch-latency trigger: a batch closes at most
	// this long after its first fact arrived (default 50ms).
	MaxDelay time.Duration
	// QueueDepth bounds the firehose queue in facts; Submit blocks when
	// it is full (default 4096).
	QueueDepth int
	// RefreshEvery runs a marginal refresh every K absorbed batches
	// (0 = no batch-count trigger).
	RefreshEvery int
	// RefreshOnClose runs a final refresh at Close when any batch was
	// absorbed since the last refresh.
	RefreshOnClose bool
	// OnBatch, when non-nil, observes every absorbed batch's Ack.
	OnBatch func(Ack)
	// Journal, when non-nil, receives ingest_batch and ingest_refresh
	// events (nil-safe; payloads are deterministic for a fixed stream
	// and batch split, so Canonicalize keeps them).
	Journal *journal.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 50 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	return c
}

// Stats is a point-in-time snapshot of the pipeline's counters.
type Stats struct {
	Facts        int64 // facts absorbed
	Batches      int64 // batches absorbed
	Refreshes    int64 // refresh passes run
	QueueDepth   int   // facts currently queued
	StaleBatches int   // batches since the last refresh
}

// ErrClosed reports a Submit after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

// Lander is the landing step, the one statement of what happens when a
// sealed batch lands: validate → absorb (deferred extend, publish,
// durable sequence) → staleness++ → span, metrics, journal event, query
// phase → refresh when due → ack. It owns the staleness counter; a
// serving process has one Lander and every driver lands through it.
type Lander struct {
	abs Absorber
	jr  *journal.Writer

	// mu makes one landing one step — a batch's count, policy decision
	// and refresh finish before the next batch's begin — so concurrent
	// drivers (two HTTP streams) share the counter coherently. It orders
	// before the absorber's own writer lock. The counters are atomics so
	// that Stats never waits for a landing.
	mu sync.Mutex

	facts, batches, refreshes, stale atomic.Int64
}

// NewLander lands batches through a. jr, when non-nil, receives the
// ingest_batch and ingest_refresh events.
func NewLander(a Absorber, jr *journal.Writer) *Lander {
	return &Lander{abs: a, jr: jr}
}

// Land lands one sealed batch under the refresh threshold in force:
// refresh once every batches are stale (0 = only when asked, by
// Refresh).
//
// A non-zero ack.Batch means the batch landed — published and, with a
// store, durable — whatever err says: the only error a landed batch can
// carry is its refresh failing, and the ack (unrefreshed, staleness as
// counted) is still the caller's to deliver before that error. An
// invalid, failed or cancelled batch lands nothing.
func (l *Lander) Land(ctx context.Context, batch []Fact, every int) (Ack, error) {
	if err := Validate(batch); err != nil {
		return Ack{}, err
	}
	q := obs.QueryFrom(ctx)
	q.SetPhase("queue")
	l.mu.Lock()
	defer l.mu.Unlock()
	ctx, span := obs.StartSpan(ctx, "ingest.batch")
	defer span.End()
	start := time.Now()
	ack, err := l.abs.Absorb(ctx, batch)
	if err != nil {
		return Ack{}, err
	}
	elapsed := time.Since(start)

	l.facts.Add(int64(len(batch)))
	ack.Batch = int(l.batches.Add(1))
	ack.Facts = len(batch)
	ack.StaleBatches = int(l.stale.Add(1))
	obs.Default.Counter("probkb_ingest_facts_total").Add(int64(len(batch)))
	obs.Default.Counter("probkb_ingest_batches_total").Inc()
	obs.Default.Histogram("probkb_ingest_absorb_seconds", nil).Observe(elapsed.Seconds())
	obs.Default.Gauge("probkb_ingest_staleness_batches").Set(float64(ack.StaleBatches))
	span.SetAttr("facts", len(batch))
	span.SetAttr("added", ack.Added)
	span.SetAttr("derived", ack.Derived)

	if every > 0 && ack.StaleBatches >= every {
		q.SetPhase("infer")
		if gen, rerr := l.refresh(ctx, ack.Batch); rerr != nil {
			err = fmt.Errorf("refresh after batch: %w", rerr)
		} else {
			ack.Generation, ack.StaleBatches, ack.Refreshed = gen, 0, true
			if d, ok := l.abs.(durable); ok {
				ack.DurableSeq = d.DurableSeq()
			}
		}
	}
	l.jr.Emit(journal.TypeIngestBatch, journal.IngestBatch{
		Batch:        ack.Batch,
		Facts:        ack.Facts,
		Added:        ack.Added,
		Derived:      ack.Derived,
		StaleBatches: ack.StaleBatches,
		Seconds:      elapsed.Seconds(),
	})
	return ack, err
}

// Refresh pays down whatever staleness is left (the pipeline's closing
// pass); with none it does nothing.
func (l *Lander) Refresh(ctx context.Context) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stale.Load() == 0 {
		return nil
	}
	_, err := l.refresh(ctx, int(l.batches.Load()))
	return err
}

// refresh runs one marginal refresh pass and resets staleness. Callers
// hold mu.
func (l *Lander) refresh(ctx context.Context, afterBatch int) (uint64, error) {
	ctx, span := obs.StartSpan(ctx, "ingest.refresh")
	defer span.End()
	start := time.Now()
	gen, err := l.abs.Refresh(ctx)
	if err != nil {
		return 0, err
	}
	l.refreshes.Add(1)
	l.stale.Store(0)
	obs.Default.Counter("probkb_ingest_refreshes_total").Inc()
	obs.Default.Gauge("probkb_ingest_staleness_batches").Set(0)
	span.SetAttr("generation", int(gen))
	l.jr.Emit(journal.TypeIngestRefresh, journal.IngestRefresh{
		Batch:   afterBatch,
		Seconds: time.Since(start).Seconds(),
	})
	return gen, nil
}

// Pipeline is the firehose: Submit feeds it, a single writer goroutine
// drains it through the Lander. Create with New, start with Start.
type Pipeline struct {
	cfg  Config
	land *Lander

	ch   chan Fact
	done chan struct{} // closed when the writer exits

	// sendMu fences Submit's channel sends against Close's close(ch):
	// senders hold it shared, Close holds it exclusive, so no send can
	// be in flight when the channel closes.
	sendMu sync.RWMutex

	mu     sync.Mutex
	closed bool
	err    error

	qdepth *obs.Gauge
}

// New builds a pipeline over the absorber; Start launches its writer.
func New(a Absorber, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	return &Pipeline{
		cfg:    cfg,
		land:   NewLander(a, cfg.Journal),
		ch:     make(chan Fact, cfg.QueueDepth),
		done:   make(chan struct{}),
		qdepth: obs.Default.Gauge("probkb_ingest_queue_depth"),
	}
}

// Start launches the writer goroutine under ctx: cancelling ctx aborts
// the in-flight batch (the Absorber sees the cancellation and must
// publish nothing for it) and stops the pipeline.
func (p *Pipeline) Start(ctx context.Context) {
	go p.run(ctx)
}

// Submit enqueues facts in order, blocking while the queue is full. It
// fails once the pipeline is closed, stopped, or ctx is cancelled;
// facts enqueued before the failure are still absorbed.
func (p *Pipeline) Submit(ctx context.Context, facts ...Fact) error {
	for _, f := range facts {
		if err := p.send(ctx, f); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pipeline) send(ctx context.Context, f Fact) error {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	p.mu.Lock()
	closed, err := p.closed, p.err
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		return ErrClosed
	}
	select {
	case p.ch <- f:
		p.qdepth.Set(float64(len(p.ch)))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		if err := p.Err(); err != nil {
			return err
		}
		return ErrClosed
	}
}

// Close stops intake, drains everything already submitted, runs the
// final refresh when configured, and waits for the writer to exit. It
// returns the first pipeline error (nil after a clean drain).
func (p *Pipeline) Close(ctx context.Context) error {
	p.sendMu.Lock()
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		close(p.ch)
	}
	p.sendMu.Unlock()
	select {
	case <-p.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return p.Err()
}

// Err returns the first error that stopped the writer, if any.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Facts:        p.land.facts.Load(),
		Batches:      p.land.batches.Load(),
		Refreshes:    p.land.refreshes.Load(),
		QueueDepth:   len(p.ch),
		StaleBatches: int(p.land.stale.Load()),
	}
}

// fail latches the writer's terminal error.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// run is the writer: batch formation and serial absorption.
func (p *Pipeline) run(ctx context.Context) {
	defer close(p.done)
	for {
		// Block for the batch's first fact.
		var batch []Fact
		select {
		case f, ok := <-p.ch:
			if !ok {
				p.finish(ctx)
				return
			}
			batch = append(batch, f)
		case <-ctx.Done():
			p.fail(ctx.Err())
			return
		}

		// Fill until the size or latency trigger fires.
		drained := false
		deadline := time.NewTimer(p.cfg.MaxDelay)
		for len(batch) < p.cfg.MaxBatch && !drained {
			select {
			case f, ok := <-p.ch:
				if !ok {
					drained = true // channel closed: this is the last batch
					continue
				}
				batch = append(batch, f)
			case <-deadline.C:
				drained = true
			case <-ctx.Done():
				deadline.Stop()
				p.fail(ctx.Err())
				return
			}
		}
		deadline.Stop()
		p.qdepth.Set(float64(len(p.ch)))

		if !p.absorb(ctx, batch) {
			return
		}
	}
}

// finish drains whatever Close left in the queue and runs the final
// refresh.
func (p *Pipeline) finish(ctx context.Context) {
	var batch []Fact
	for f := range p.ch {
		batch = append(batch, f)
		if len(batch) >= p.cfg.MaxBatch {
			if !p.absorb(ctx, batch) {
				return
			}
			batch = nil
		}
	}
	if len(batch) > 0 && !p.absorb(ctx, batch) {
		return
	}
	if p.cfg.RefreshOnClose {
		if err := p.land.Refresh(ctx); err != nil {
			p.fail(fmt.Errorf("ingest: refreshing marginals: %w", err))
		}
	}
}

// absorb lands one batch under the configured refresh policy, hands its
// ack to OnBatch, and latches the error that stops the writer — a
// batch that did not land, or one that did and whose refresh failed.
func (p *Pipeline) absorb(ctx context.Context, batch []Fact) bool {
	n := p.land.batches.Load() + 1
	ack, err := p.land.Land(ctx, batch, p.cfg.RefreshEvery)
	if ack.Batch != 0 && p.cfg.OnBatch != nil {
		p.cfg.OnBatch(ack)
	}
	if err != nil {
		p.fail(fmt.Errorf("ingest: batch %d: %w", n, err))
	}
	return err == nil
}
