package proptest

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"probkb"
	"probkb/internal/ingest"
)

// This file is the streaming-ingest property battery: it generates
// random fact streams and random batch partitions of them, lands the
// stream through the one write path — the landing step over the
// Ingester's deferred extend (semi-naive delta grounding, one published
// generation per batch) — and checks the split invariant: the final
// closure is identical to a t=0 expansion of the whole stream, no
// matter how the firehose was chopped into batches or where a batch was
// cancelled mid-flight. Failing cases shrink to a minimal
// stream/partition. internal/server drives the same cases over POST
// /facts?stream=1 (TestFactsStreamSplitInvariance) and requires the
// same acks and closure as RunIngest.

// IngestFact is one streamed fact in a generated case. Streams use a
// single observed relation so generated facts never collide with
// derived ones (weight-merge policy differences would otherwise make
// legitimate paths diverge).
type IngestFact struct {
	X, Y string
	W    float64
}

// IngestCase is one generated scenario: Facts streamed in order,
// partitioned into batches of the sizes in Splits (summing to
// len(Facts)). CancelAt > 0 aborts batch number CancelAt with an
// already-cancelled context — the absorber must publish nothing for it
// — after which the whole stream is re-absorbed, modeling the
// crash-recovery resume (idempotent re-streaming).
type IngestCase struct {
	Seed     int64
	Facts    []IngestFact
	Splits   []int
	CancelAt int
}

// String renders the case compactly for failure reports.
func (c *IngestCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d facts=%d splits=%v cancelAt=%d\n", c.Seed, len(c.Facts), c.Splits, c.CancelAt)
	for i, f := range c.Facts {
		fmt.Fprintf(&b, "fact %d: r0(%s, %s) w=%.2f\n", i, f.X, f.Y, f.W)
	}
	return b.String()
}

// NewIngestCase generates a random stream over a small entity domain
// (duplicate join keys are common, so the transitive rule has real
// work) and a random batch partition of it. Fact keys are unique by
// construction: the closure's keep-first and the oracle's max-merge
// dedup policies only differ on duplicates, which is not the property
// under test.
func NewIngestCase(seed int64) *IngestCase {
	rng := rand.New(rand.NewSource(seed))
	c := &IngestCase{Seed: seed}
	n := 3 + rng.Intn(10)
	seen := map[string]bool{}
	for tries := 0; len(c.Facts) < n && tries < n*20; tries++ {
		f := IngestFact{
			X: fmt.Sprintf("e%d", rng.Intn(8)),
			Y: fmt.Sprintf("e%d", rng.Intn(8)),
			W: float64(50+rng.Intn(50)) / 100,
		}
		if seen[f.X+"|"+f.Y] {
			continue
		}
		seen[f.X+"|"+f.Y] = true
		c.Facts = append(c.Facts, f)
	}
	for left := len(c.Facts); left > 0; {
		sz := 1 + rng.Intn(left)
		c.Splits = append(c.Splits, sz)
		left -= sz
	}
	if rng.Intn(2) == 0 {
		c.CancelAt = 1 + rng.Intn(len(c.Splits))
	}
	return c
}

// IngestBase is the fixed starting KB: one seed fact and two rules
// (a copy rule and a self-join), so every streamed fact derives and
// pairs of streamed facts join.
func IngestBase() *probkb.KB {
	k := probkb.New()
	k.AddFact("r0", "e0", "C", "e1", "C", 0.9)
	k.MustAddRule("1.10 r1(x:C, y:C) :- r0(x:C, y:C)")
	k.MustAddRule("0.80 r2(x:C, y:C) :- r0(z:C, x:C), r0(z, y:C)")
	return k
}

// Stream renders the case's facts in wire form, in stream order.
func (c *IngestCase) Stream() []ingest.Fact {
	out := make([]ingest.Fact, len(c.Facts))
	for i, f := range c.Facts {
		out[i] = ingest.Fact{Rel: "r0", X: f.X, XClass: "C", Y: f.Y, YClass: "C", Probability: f.W}
	}
	return out
}

// ClosureFingerprint canonicalizes an expansion's closure — every fact
// tuple with its weight (NaN prints stably for not-yet-refreshed
// marginals) — into one FNV-64a value, order-independent.
func ClosureFingerprint(e *probkb.Expansion) uint64 {
	facts := e.Facts()
	lines := make([]string, len(facts))
	for i, f := range facts {
		lines[i] = fmt.Sprintf("%s(%s:%s, %s:%s) w=%v", f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// ReplayIngest is the t=0 oracle: the whole stream lands in the base KB
// before a single from-scratch expansion. Its closure fingerprint is
// what every batched absorption must converge to.
func ReplayIngest(c *IngestCase) (uint64, error) {
	k := IngestBase()
	for _, f := range c.Facts {
		k.AddFact("r0", f.X, "C", f.Y, "C", f.W)
	}
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		return 0, err
	}
	return ClosureFingerprint(exp), nil
}

// CheckIngest lands the case through RunIngest and returns an error
// describing the first violated property: a cancelled batch that
// published, a non-monotone generation, or a final closure differing
// from the serial t=0 oracle.
func CheckIngest(c *IngestCase) error {
	want, err := ReplayIngest(c)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	_, got, err := RunIngest(c)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("final closure fingerprint %x != t=0 oracle %x (splits %v, cancelAt %d)",
			got, want, c.Splits, c.CancelAt)
	}
	return nil
}

// RunIngest lands the case's stream batch-by-batch through a Lander
// over a fresh Ingester — no refresh threshold: the t=0 oracle has no
// marginals to compare refreshed ones with — and returns the acks of
// the batches that landed, in order, and the final closure's
// fingerprint.
func RunIngest(c *IngestCase) ([]ingest.Ack, uint64, error) {
	exp, err := IngestBase().Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		return nil, 0, fmt.Errorf("base expand: %w", err)
	}
	ing := probkb.NewIngester(exp)
	land := ingest.NewLander(ing, nil)
	ctx := context.Background()
	stream := c.Stream()
	gen := ing.Generation()
	var acks []ingest.Ack
	idx := 0
	for bi, sz := range c.Splits {
		batch := stream[idx : idx+sz]
		idx += sz
		if c.CancelAt == bi+1 {
			// The batch dies mid-flight: an already-cancelled context is
			// the deterministic stand-in for a kill at the worst moment.
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := land.Land(cctx, batch, 0); err == nil {
				return nil, 0, fmt.Errorf("batch %d: cancelled landing reported success", bi+1)
			}
			if g := ing.Generation(); g != gen {
				return nil, 0, fmt.Errorf("batch %d: cancelled landing published generation %d (was %d) — torn", bi+1, g, gen)
			}
			continue
		}
		ack, err := land.Land(ctx, batch, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("batch %d: %w", bi+1, err)
		}
		if ack.Generation <= gen {
			return nil, 0, fmt.Errorf("batch %d: generation %d not after %d", bi+1, ack.Generation, gen)
		}
		gen = ack.Generation
		acks = append(acks, ack)
	}
	if c.CancelAt > 0 {
		// Recovery: re-stream the whole firehose in one batch. Absorption
		// is idempotent (the closure dedups), so this must land exactly
		// the facts the cancelled batch lost.
		ack, err := land.Land(ctx, stream, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("resume: %w", err)
		}
		acks = append(acks, ack)
	}

	pin := ing.Current()
	defer pin.Unpin()
	return acks, ClosureFingerprint(pin.Value()), nil
}

// ShrinkIngest reduces a failing case greedily: drop a fact (shrinking
// the batch that carried it), merge adjacent batches, then clear the
// cancel point. CheckIngest is deterministic, so no retry wrapper is
// needed in the predicate.
func ShrinkIngest(c *IngestCase, fails func(*IngestCase) bool) *IngestCase {
	cur := c
	for {
		next, ok := shrinkIngestStep(cur, fails)
		if !ok {
			return cur
		}
		cur = next
	}
}

func shrinkIngestStep(c *IngestCase, fails func(*IngestCase) bool) (*IngestCase, bool) {
	// Drop fact i, shrinking the split that carried it (and dropping
	// the split if it empties).
	for i := range c.Facts {
		cand := &IngestCase{Seed: c.Seed, CancelAt: c.CancelAt}
		cand.Facts = append(append([]IngestFact(nil), c.Facts[:i]...), c.Facts[i+1:]...)
		splits := append([]int(nil), c.Splits...)
		pos := 0
		for j := range splits {
			if i < pos+splits[j] {
				splits[j]--
				if splits[j] == 0 {
					splits = append(splits[:j], splits[j+1:]...)
				}
				break
			}
			pos += splits[j]
		}
		cand.Splits = splits
		if len(cand.Splits) == 0 || cand.CancelAt > len(cand.Splits) {
			cand.CancelAt = len(cand.Splits)
		}
		if fails(cand) {
			return cand, true
		}
	}
	// Merge adjacent splits.
	for i := 0; i+1 < len(c.Splits); i++ {
		cand := &IngestCase{Seed: c.Seed, Facts: c.Facts, CancelAt: c.CancelAt}
		cand.Splits = append(append([]int(nil), c.Splits[:i]...), c.Splits[i]+c.Splits[i+1])
		cand.Splits = append(cand.Splits, c.Splits[i+2:]...)
		if cand.CancelAt > len(cand.Splits) {
			cand.CancelAt = len(cand.Splits)
		}
		if fails(cand) {
			return cand, true
		}
	}
	if c.CancelAt > 0 {
		cand := &IngestCase{Seed: c.Seed, Facts: c.Facts, Splits: c.Splits}
		if fails(cand) {
			return cand, true
		}
	}
	return nil, false
}
