package probkb

import (
	"context"
	"fmt"
	"sync"
	"testing"
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
