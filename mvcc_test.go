package probkb

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"strings"
	"sync"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
)

// This file is the MVCC differential battery at the API level: answers
// served from a pinned generation must be byte-identical to a serial
// replay oracle, no matter how many ExtendWith rounds race the reads.
// (internal/proptest has the randomized-interleaving property test over
// the raw fork/epoch machinery; this one proves the full query surface
// — Find, QueryLocal, SQL — is what freezes.)

// mvccBatches are the incremental rounds the oracle and the concurrent
// leg both apply, in order.
func mvccBatches() [][]Fact {
	return [][]Fact{
		{{Rel: "born_in", X: "Freud", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.9}},
		{{Rel: "born_in", X: "Mahler", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.85},
			{Rel: "located_in", X: "Vienna", XClass: "Place", Y: "Austria", YClass: "Place", Probability: 0.99}},
		{{Rel: "born_in", X: "Zweig", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.8}},
	}
}

// observeGeneration renders everything a reader can ask one generation
// — the full fact listing, point-query marginals (inference skipped, so
// the bytes are deterministic), and a SQL aggregate over the base table
// — into one canonical byte string.
func observeGeneration(t *testing.T, exp *Expansion) []byte {
	t.Helper()
	var out struct {
		Facts []Fact
		Atoms []Marginal
		SQL   *QueryResult
	}
	out.Facts = exp.Facts()
	for _, atom := range [][3]string{
		{"live_in", "Freud", "Vienna"},
		{"live_in", "Mahler", "Vienna"},
		{"born_in", "Ruth_Gruber", "New_York_City"},
		{"live_in", "nobody", "nowhere"},
	} {
		m, err := exp.QueryLocal(context.Background(), PointQuery{
			Rel: atom[0], X: atom[1], Y: atom[2], Samples: -1, NoCache: true,
		})
		if err != nil {
			t.Fatalf("QueryLocal(%v): %v", atom, err)
		}
		// Timing and cache-coalescing metadata legitimately vary run to
		// run; the answer itself must not.
		m.Elapsed, m.Cached, m.Coalesced, m.Generation = 0, false, false, 0
		out.Atoms = append(out.Atoms, m)
	}
	res, err := exp.KB().QuerySQL("SELECT T.R, COUNT(*) AS n FROM T GROUP BY T.R")
	if err != nil {
		t.Fatalf("QuerySQL: %v", err)
	}
	out.SQL = res
	// fmt rather than JSON: skipped-inference marginals are NaN, which
	// prints fine but does not marshal.
	return []byte(fmt.Sprintf("%+v", out))
}

// TestMVCCDifferentialOracle races readers of generation N against
// ExtendWith building N+1, N+2, N+3, then compares every generation's
// observable answers byte-for-byte against a serial replay that never
// had any concurrency.
func TestMVCCDifferentialOracle(t *testing.T) {
	cfg := Config{Engine: SingleNode, RunInference: false}

	// Serial oracle: the same chain with no readers racing it.
	oracleExp, err := paperKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := [][]byte{observeGeneration(t, oracleExp)}
	serial := oracleExp
	for _, batch := range mvccBatches() {
		if serial, err = serial.ExtendWith(batch); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, observeGeneration(t, serial))
	}

	// Concurrent leg: readers hammer each already-published generation
	// while the writer builds the next one on its fork.
	exp, err := paperKB(t).Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := []*Expansion{exp}
	for gen, batch := range mvccBatches() {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		errCh := make(chan error, 8)
		// Readers pin every generation published so far — the oldest one
		// included, long after the writer has moved past it.
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					g := (r + i) % len(gens)
					got := observeGeneration(t, gens[g])
					if string(got) != string(oracle[g]) {
						select {
						case errCh <- fmt.Errorf("generation %d drifted under a concurrent ExtendWith:\n got %s\nwant %s", g, got, oracle[g]):
						default:
						}
						return
					}
				}
			}(r)
		}
		next, err := exp.ExtendWith(batch)
		close(stop)
		wg.Wait()
		select {
		case rerr := <-errCh:
			t.Fatal(rerr)
		default:
		}
		if err != nil {
			t.Fatalf("ExtendWith round %d: %v", gen, err)
		}
		exp = next
		gens = append(gens, next)
	}

	// Every generation, old and new, still answers exactly like the
	// oracle after the dust settles.
	for g, e := range gens {
		if got := observeGeneration(t, e); string(got) != string(oracle[g]) {
			t.Fatalf("generation %d final answers diverge from serial replay:\n got %s\nwant %s", g, got, oracle[g])
		}
	}
}

// TestMVCCFailedExtendLeavesGenerationIntact: a build that dies (here:
// cancelled before grounding) must leave the receiver generation
// serving exactly its old answers — the "failed builds are discarded"
// half of the publication contract.
func TestMVCCFailedExtendLeavesGenerationIntact(t *testing.T) {
	exp, err := paperKB(t).Expand(Config{Engine: SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	before := observeGeneration(t, exp)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exp.ExtendWithContext(ctx, mvccBatches()[0]); err == nil {
		t.Fatal("cancelled ExtendWith reported success")
	}
	if got := observeGeneration(t, exp); string(got) != string(before) {
		t.Fatalf("failed ExtendWith mutated the receiver generation:\n got %s\nwant %s", got, before)
	}
}

// TestMVCCConcurrentLineageReaders: the lineage readers of one
// generation — Explain and FactorGraphStats, as concurrent GET /explain
// requests call them — share the factor graph the generation builds on
// first reference, whether inference ran or not, and every reader gets
// the answer a fresh expansion gives.
func TestMVCCConcurrentLineageReaders(t *testing.T) {
	for _, inference := range []bool{true, false} {
		t.Run(fmt.Sprintf("inference=%v", inference), func(t *testing.T) {
			cfg := Config{Engine: SingleNode, RunInference: inference, Seed: 5}
			expand := func() *Expansion {
				exp, err := paperKB(t).Expand(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return exp
			}
			oracle := expand()
			wantText, err := oracle.Explain("located_in", "Brooklyn", "New_York_City", 3)
			if err != nil {
				t.Fatal(err)
			}
			wantV, wantF, wantS, err := oracle.FactorGraphStats()
			if err != nil {
				t.Fatal(err)
			}

			exp := expand()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					text, err := exp.Explain("located_in", "Brooklyn", "New_York_City", 3)
					if err != nil || text != wantText {
						t.Errorf("Explain = %q, %v; want %q", text, err, wantText)
					}
					v, f, s, err := exp.FactorGraphStats()
					if err != nil || v != wantV || f != wantF || s != wantS {
						t.Errorf("FactorGraphStats = %d/%d/%d, %v; want %d/%d/%d", v, f, s, err, wantV, wantF, wantS)
					}
				}()
			}
			close(start)
			wg.Wait()
		})
	}
}

// tablePrint hashes every cell of t into h, bit for bit, column by
// column, after its row count.
func tablePrint(h hash.Hash, t *engine.Table) {
	if t == nil {
		h.Write([]byte("no table"))
		return
	}
	binary.Write(h, binary.LittleEndian, int64(t.NumRows()))
	for c, col := range t.Schema().Cols {
		if col.Type == engine.Int32 {
			binary.Write(h, binary.LittleEndian, t.Int32Col(c))
		} else {
			binary.Write(h, binary.LittleEndian, t.Float64Col(c))
		}
	}
}

// generationPrint is a bit-exact fingerprint of one generation's TΠ,
// all seven columns, and TΦ.
func generationPrint(e *Expansion) string {
	h := sha256.New()
	tablePrint(h, e.res.Facts)
	tablePrint(h, e.res.Factors)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pointAnswers renders e's uncached point query of every fact it holds:
// each reads e's evidence through the fact index e's round published.
func pointAnswers(t *testing.T, e *Expansion) string {
	t.Helper()
	var b strings.Builder
	for _, f := range e.Facts() {
		m, err := e.QueryLocal(context.Background(), PointQuery{Rel: f.Rel, X: f.X, Y: f.Y, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s(%s, %s) found=%v observed=%v p=%v\n", f.Rel, f.X, f.Y, m.Found, m.Observed, m.Probability)
	}
	return b.String()
}

// TestMVCCPublishedGenerationsNeverChange: TΠ grows in place along a
// lineage (engine.Table.Fork), so every round after the first shares its
// columns with the generations before it. None of them may see a round's
// writes: every published generation's TΠ and TΦ stay bit-identical
// through later rounds of every kind — deferred extends, a refresh that
// fills the weights they left NULL, a non-deferred ExtendWith, a
// constrained extend whose hook deletes rows inside the shared prefix,
// two concurrent sibling extends of one generation, a cancelled round
// followed by its retry, and a constrained round that deletes inside the
// fact-index bases it forked from its parent generation, after which
// the parent's point queries and a sibling's merge answer as before.
func TestMVCCPublishedGenerationsNeverChange(t *testing.T) {
	k := ingestBaseKB(t)
	if err := k.AddConstraint("born_in", TypeI, 1); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: SingleNode, ApplyConstraints: true, RunInference: true, GibbsBurnin: 10, GibbsSamples: 30, Seed: 3}
	born := func(x, y string) []Fact {
		return []Fact{{Rel: "born_in", X: x, XClass: "Writer", Y: y, YClass: "City", Probability: 0.8}}
	}
	ctx := context.Background()
	var gens []*Expansion
	var prints []string
	publish := func(e *Expansion, err error) *Expansion {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		gens, prints = append(gens, e), append(prints, generationPrint(e))
		return e
	}
	pending := func(e *Expansion) int {
		n := 0
		for _, w := range e.res.Facts.Float64Col(kb.TPiW) {
			if engine.IsNullFloat64(w) {
				n++
			}
		}
		return n
	}

	e := publish(k.Expand(cfg))
	e = publish(e.ExtendWithDeferred(ctx, append(born("Freud", "Vienna"), born("Kafka", "Prague")...)))
	deferred := publish(e.ExtendWithDeferred(ctx, born("Zweig", "Vienna")))
	if pending(deferred) == 0 {
		t.Fatal("fixture drifted: the deferred rounds left no NULL weight")
	}
	e = publish(deferred.RefreshMarginals(ctx))
	if pending(e) != 0 {
		t.Fatalf("the refresh left %d NULL weights", pending(e))
	}
	e = publish(e.ExtendWith(born("Mahler", "Berlin")))

	// Freud born in a second city breaks born_in's functional
	// constraint: the hook deletes Freud's born_in and live_in facts,
	// which an earlier round put in the prefix this round shares.
	before := e
	e = publish(e.ExtendWith(born("Freud", "Berlin")))
	if len(before.Find("live_in", "Freud", "Vienna")) == 0 {
		t.Fatal("fixture drifted: the prior generation holds no live_in(Freud, Vienna)")
	}
	if len(e.Find("live_in", "Freud", "Vienna")) != 0 {
		t.Fatal("fixture drifted: the constrained extend deleted nothing inside the shared prefix")
	}

	// Three siblings of one generation, the last two racing: only the
	// first shares its receiver's columns.
	parent := e
	publish(parent.ExtendWithDeferred(ctx, born("Rilke", "Trieste")))
	var siblings [2]*Expansion
	var errs [2]error
	var wg sync.WaitGroup
	for i, b := range [][]Fact{born("Svevo", "Trieste"), born("Roth", "Vienna")} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			siblings[i], errs[i] = parent.ExtendWithDeferred(ctx, b)
		}()
	}
	wg.Wait()
	publish(siblings[0], errs[0])
	e = publish(siblings[1], errs[1])

	// A cancelled round spends the claim on its receiver's tail, and what
	// it completed stays readable in its PartialError; its retry copies.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := e.ExtendWithContext(cancelled, born("Musil", "Vienna"))
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("a cancelled round returned %v, want a PartialError", err)
	}
	publish(pe.Partial, nil)
	e = publish(e.ExtendWith(born("Broch", "Prague")))
	publish(e.ExtendWithDeferred(ctx, born("Musil", "Vienna")))

	// A generation large enough that the next round shares its fact
	// index's sealed bases, which a constrained round then deletes
	// inside: the round renumbers copies, so the generation's point
	// queries — read through its index — and a later sibling's merge —
	// deduplicated against it — answer as they did before the round.
	big := ingestBaseKB(t)
	for i := 0; i < 300; i++ {
		big.AddFact("born_in", fmt.Sprintf("W%d", i), "Writer", fmt.Sprintf("C%d", i), "City", 0.9)
	}
	big.AddFact("born_in", "Freud", "Writer", "Vienna", "City", 0.8)
	if err := big.AddConstraint("born_in", TypeI, 1); err != nil {
		t.Fatal(err)
	}
	forked := publish(publish(big.Expand(cfg)).ExtendWith(born("Kafka", "Prague")))
	asked := pointAnswers(t, forked)
	// The sibling's batch repeats a fact derived past Freud's rows: its
	// merge finds it in the forked identity set, at a row the deletion
	// renumbers.
	siblingBatch := append(born("Rilke", "Trieste"),
		Fact{Rel: "live_in", X: "W7", XClass: "Writer", Y: "C7", YClass: "City", Probability: 0.7})
	sibling := publish(forked.ExtendWith(siblingBatch))
	child := publish(forked.ExtendWith(born("Freud", "Berlin")))
	if len(forked.Find("born_in", "Freud", "Vienna")) == 0 || len(child.Find("born_in", "Freud", "Vienna")) != 0 {
		t.Fatal("fixture drifted: the constrained round deleted nothing inside the forked bases")
	}
	if got := pointAnswers(t, forked); got != asked {
		t.Errorf("a child round's deletion changed the point queries of its parent generation:\n%s\nwas\n%s", got, asked)
	}
	if again := publish(forked.ExtendWith(siblingBatch)); canonicalClosure(again) != canonicalClosure(sibling) {
		t.Error("a child round's deletion changed what a later sibling's merge deduplicates against")
	}

	for i, g := range gens {
		if got := generationPrint(g); got != prints[i] {
			t.Errorf("generation %d of %d changed after it was published", i, len(gens))
		}
	}
}
