package probkb

import (
	"context"
	"sync"
	"sync/atomic"

	"probkb/internal/epoch"
	"probkb/internal/ingest"
	"probkb/internal/obs"
)

// Ingester is a process's one writer over an Expansion: every mutation
// of the served state — a streamed batch (Absorb), a marginal refresh
// (Refresh), a full-inference extend (Extend), whatever else runs
// through Update — takes its mutex, builds the next immutable Expansion
// off to the side, and publishes it as the next generation. Readers
// never take the lock: they pin generations and see each batch's
// closure as soon as its ack is computed — exactly-once, never torn.
// It is the ingest.Absorber (mechanism) under ingest.Lander (policy).
type Ingester struct {
	mu  sync.Mutex   // the writer lock
	cur *Expansion   // the newest generation
	seq atomic.Int64 // the durable WAL record count cur stands at

	// publish swaps next in as the newest generation: the Publish of a
	// manager the ingester owns (epochs), unless the process's readers
	// pin through a manager of their own (WithPublish).
	publish func(next *Expansion) uint64
	epochs  *epoch.Manager[*Expansion]
}

// IngesterOption tweaks NewIngester.
type IngesterOption func(*Ingester)

// WithPublish makes the ingester publish through fn (called with the
// writer lock held; returns the generation it published next as)
// instead of an epoch manager of its own, so a process keeps exactly
// one manager. The server's exists before any Expansion does and serves
// (KB, Expansion) pairs. Current and Generation read the ingester's own
// manager and must not be called on such an ingester.
func WithPublish(fn func(next *Expansion) uint64) IngesterOption {
	return func(in *Ingester) { in.publish = fn }
}

// NewIngester builds the writer on top of e. Without WithPublish it
// serves e as generation 1 of its own epoch manager; with it, e is what
// the caller already serves.
func NewIngester(e *Expansion, opts ...IngesterOption) *Ingester {
	in := &Ingester{cur: e}
	in.seq.Store(durableSeq(e))
	for _, o := range opts {
		o(in)
	}
	if in.publish == nil {
		in.epochs = epoch.New(e, nil)
		in.publish = in.epochs.Publish
	}
	return in
}

// Pipeline wires the ingester into a new ingest.Pipeline with cfg and
// starts it under ctx. Closing the pipeline (or cancelling ctx) leaves
// the ingester serving its last published generation.
func (in *Ingester) Pipeline(ctx context.Context, cfg ingest.Config) *ingest.Pipeline {
	p := ingest.New(in, cfg)
	p.Start(ctx)
	return p
}

// Current pins the latest published expansion for reading. The caller
// must Unpin when done; the expansion is immutable and stays valid
// until then even as later batches publish newer generations.
func (in *Ingester) Current() *epoch.Pin[*Expansion] { return in.epochs.Pin() }

// Generation returns the latest published generation number.
func (in *Ingester) Generation() uint64 { return in.epochs.Current() }

// Update is the writer's critical section: it runs fn on the newest
// expansion under the writer lock — so fn builds on whatever a
// competing writer published while this one queued, never a stale base
// — and publishes fn's non-nil result as the next generation. A nil
// result (a failed or cancelled build; a writer that only needed the
// lock, like a checkpoint of the single-writer store) publishes nothing.
func (in *Ingester) Update(fn func(cur *Expansion) (*Expansion, error)) (*Expansion, uint64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	next, err := fn(in.cur)
	if err != nil || next == nil {
		return nil, 0, err
	}
	in.cur = next
	in.seq.Store(durableSeq(next))
	return next, in.publish(next), nil
}

// Absorb lands one batch: a deferred extend (facts + closure visible
// and durable immediately, marginals left stale) published as a new
// generation. It implements ingest.Absorber.
func (in *Ingester) Absorb(ctx context.Context, facts []ingest.Fact) (ack ingest.Ack, err error) {
	_, ack.Generation, err = in.Update(func(cur *Expansion) (*Expansion, error) {
		obs.QueryFrom(ctx).SetPhase("ground")
		next, err := cur.ExtendWithDeferred(ctx, observed(facts))
		if err != nil {
			return nil, err
		}
		ack.Added = next.res.BaseFacts - cur.res.Facts.NumRows()
		ack.Derived = next.res.InferredFacts()
		ack.DurableSeq = durableSeq(next)
		return next, nil
	})
	return ack, err
}

// Refresh pays down marginal staleness: a factor pass plus Gibbs
// inference over the accumulated closure, published as a new
// generation. It implements ingest.Absorber.
func (in *Ingester) Refresh(ctx context.Context) (uint64, error) {
	_, gen, err := in.Update(func(cur *Expansion) (*Expansion, error) {
		return cur.RefreshMarginals(ctx)
	})
	return gen, err
}

// Extend is Absorb's full-inference counterpart (ExtendWithContext):
// the batch passes the same ingest.Validate, and its closure publishes
// with fresh marginals, at the cost of a factor + Gibbs pass per call.
func (in *Ingester) Extend(ctx context.Context, facts []ingest.Fact) (*Expansion, uint64, error) {
	if err := ingest.Validate(facts); err != nil {
		return nil, 0, err
	}
	return in.Update(func(cur *Expansion) (*Expansion, error) {
		obs.QueryFrom(ctx).SetPhase("ground")
		return cur.ExtendWithContext(ctx, observed(facts))
	})
}

// DurableSeq is the durable WAL record count the newest generation
// stands at (0 without a store). It does not wait for the writer lock.
func (in *Ingester) DurableSeq() int64 { return in.seq.Load() }

func durableSeq(e *Expansion) int64 {
	if p := e.cfg.Persist; p != nil {
		return p.WALRecords()
	}
	return 0
}

// observed converts wire facts to the API type.
func observed(facts []ingest.Fact) []Fact {
	out := make([]Fact, len(facts))
	for i, f := range facts {
		out[i] = Fact{
			Rel: f.Rel,
			X:   f.X, XClass: f.XClass,
			Y: f.Y, YClass: f.YClass,
			Probability: f.Probability,
		}
	}
	return out
}
