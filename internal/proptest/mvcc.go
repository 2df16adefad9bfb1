package proptest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"probkb/internal/epoch"
	"probkb/internal/kb"
)

// This file is the MVCC serving tier's property-based battery: it
// generates randomized writer/reader interleavings over the epoch
// manager and the KB's copy-on-write fork, checks snapshot isolation —
// every pinned reader observes exactly one generation of the KB, never
// a mix of two — and shrinks failing schedules to a minimal one.
//
// The oracle is a serial replay: the same rounds applied with no
// concurrency yield one fingerprint per generation, and a concurrent
// reader's observation must equal one of them bit-for-bit. A torn read
// (a fingerprint matching no generation) or a drifting pin (two
// fingerprints of the same pinned value disagreeing) is a violation.

// MVCCFact is one symbolic fact in a generated schedule.
type MVCCFact struct {
	Rel, X, Y string
	W         float64
}

// MVCCRound is one writer step: the mutations that build generation
// N+1 from N on a fork. The three fields exercise the three mutation
// classes that could tear a frozen reader: appends (Adds), in-place
// element writes (Reweight), and wholesale slice rewrites (Delete).
type MVCCRound struct {
	Adds     []MVCCFact
	Reweight int // rewrite the weights of this many earliest facts
	Delete   int // delete this many latest facts
}

// MVCCCase is one generated schedule: Rounds sequential writer steps
// racing Readers concurrent pin/scan/unpin loops, with per-goroutine
// jitter drawn from Seed to randomize the interleaving.
type MVCCCase struct {
	Seed    int64
	Rounds  []MVCCRound
	Readers int
}

// String renders the schedule compactly for failure reports.
func (c *MVCCCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d readers=%d rounds=%d\n", c.Seed, c.Readers, len(c.Rounds))
	for i, r := range c.Rounds {
		fmt.Fprintf(&b, "round %d: +%d facts, reweight %d, delete %d\n", i, len(r.Adds), r.Reweight, r.Delete)
	}
	return b.String()
}

// NewMVCCCase generates a random schedule. Small symbol domains make
// duplicate interns, weight-merge collisions, and re-added deleted
// facts common.
func NewMVCCCase(seed int64) *MVCCCase {
	rng := rand.New(rand.NewSource(seed))
	c := &MVCCCase{Seed: seed, Readers: 2 + rng.Intn(3)}
	rounds := 1 + rng.Intn(4)
	for i := 0; i < rounds; i++ {
		var r MVCCRound
		for n := 1 + rng.Intn(6); n > 0; n-- {
			r.Adds = append(r.Adds, MVCCFact{
				Rel: fmt.Sprintf("r%d", rng.Intn(3)),
				X:   fmt.Sprintf("e%d", rng.Intn(8)),
				Y:   fmt.Sprintf("e%d", rng.Intn(8)),
				W:   float64(rng.Intn(100)) / 100,
			})
		}
		r.Reweight = rng.Intn(4)
		r.Delete = rng.Intn(2)
		c.Rounds = append(c.Rounds, r)
	}
	return c
}

// mvccBase builds the generation-0 KB every schedule starts from.
func mvccBase() *kb.KB {
	k := kb.New()
	k.InternFact("r0", "e0", "C", "e1", "C", 0.9)
	k.InternFact("r1", "e1", "C", "e2", "C", 0.8)
	return k
}

// applyRound applies one round's mutations to a (forked) KB. The
// reweight values are a pure function of (round, index) so the serial
// replay and the concurrent writer produce identical generations.
func applyRound(k *kb.KB, r MVCCRound, round int) {
	for _, f := range r.Adds {
		k.InternFact(f.Rel, f.X, "C", f.Y, "C", f.W)
	}
	for i := 0; i < r.Reweight && i < k.NumFacts(); i++ {
		k.SetWeight(k.FactAt(i).Key(), float64((round*31+i)%100)/100)
	}
	if r.Delete > 0 && k.NumFacts() > 0 {
		drop := map[kb.Key]bool{}
		for i := 0; i < r.Delete && i < k.NumFacts(); i++ {
			drop[k.FactAt(k.NumFacts()-1-i).Key()] = true
		}
		k.DeleteFacts(drop)
	}
}

// fingerprint hashes everything a reader can observe about a KB — the
// resolved fact tuples, the symbol tables, and the membership rows —
// into one canonical value. Two KBs fingerprint equal iff a reader
// could not tell them apart.
func fingerprint(k *kb.KB) uint64 {
	lines := make([]string, 0, k.NumFacts()+len(k.Members))
	for i := range k.NumFacts() {
		f := k.FactAt(i)
		lines = append(lines, fmt.Sprintf("f|%s|%s|%s|%s|%s|%.6f",
			k.RelDict.Name(f.Rel), k.Entities.Name(f.X), k.Classes.Name(f.XClass),
			k.Entities.Name(f.Y), k.Classes.Name(f.YClass), f.W))
	}
	for _, m := range k.Members {
		lines = append(lines, fmt.Sprintf("m|%s|%s", k.Classes.Name(m.Class), k.Entities.Name(m.Entity)))
	}
	lines = append(lines, "e|"+strings.Join(k.Entities.Names(), ","))
	lines = append(lines, "r|"+strings.Join(k.RelDict.Names(), ","))
	sort.Strings(lines[:k.NumFacts()+len(k.Members)])
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// ReplayMVCC is the serial oracle: it applies the schedule's rounds
// with no concurrency and returns the fingerprint of every generation,
// index 0 being the base.
func ReplayMVCC(c *MVCCCase) []uint64 {
	fps := make([]uint64, 0, len(c.Rounds)+1)
	cur := mvccBase()
	fps = append(fps, fingerprint(cur))
	for i, r := range c.Rounds {
		next := cur.Fork()
		applyRound(next, r, i)
		fps = append(fps, fingerprint(next))
		cur = next
	}
	return fps
}

// CheckMVCC runs the schedule concurrently — one writer publishing
// generations through an epoch manager, c.Readers readers pinning and
// scanning — and returns an error describing the first snapshot-
// isolation or reclamation violation. Run it under -race: the torn
// reads it hunts are also data races.
func CheckMVCC(c *MVCCCase) error {
	expected := ReplayMVCC(c)
	want := make(map[uint64]int, len(expected))
	for g, fp := range expected {
		want[fp] = g
	}

	mgr := epoch.New(mvccBase(), nil)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	done := make(chan struct{})

	for rd := 0; rd < c.Readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.Seed ^ int64(rd+1)))
			for {
				select {
				case <-done:
					return
				default:
				}
				pin := mgr.Pin()
				k := pin.Value()
				fp1 := fingerprint(k)
				// Randomized interleaving: yield a random number of times
				// mid-read so the writer can publish (and earlier
				// generations can be reclaimed) while this pin is live.
				for n := rng.Intn(4); n > 0; n-- {
					runtime.Gosched()
				}
				fp2 := fingerprint(k)
				gen := pin.Gen()
				pin.Unpin()
				if fp1 != fp2 {
					report(fmt.Errorf("reader %d: pinned generation %d drifted mid-read (%x -> %x)", rd, gen, fp1, fp2))
					return
				}
				if _, ok := want[fp1]; !ok {
					report(fmt.Errorf("reader %d: generation %d fingerprint %x matches NO serial generation — mixed/torn state", rd, gen, fp1))
					return
				}
			}
		}(rd)
	}

	// The single writer (competing writers serialize on the server's
	// writer mutex; the property under test is reader isolation).
	wrng := rand.New(rand.NewSource(c.Seed))
	cur := mgr.Pin() // hold the base so the builder's source can't be reclaimed mid-fork
	for i, r := range c.Rounds {
		next := cur.Value().Fork()
		applyRound(next, r, i)
		if got, wantFP := fingerprint(next), expected[i+1]; got != wantFP {
			close(done)
			wg.Wait()
			cur.Unpin()
			return fmt.Errorf("writer: generation %d fingerprint %x != serial replay %x", i+1, got, wantFP)
		}
		mgr.Publish(next)
		cur.Unpin()
		cur = mgr.Pin()
		for n := wrng.Intn(3); n > 0; n-- {
			runtime.Gosched()
		}
	}
	cur.Unpin()
	close(done)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Reclamation: every reader unpinned and the current generation is
	// the only survivor — nothing freed while pinned would have shown up
	// as a torn read above; nothing may leak now.
	if pins := mgr.Pins(); pins != 0 {
		return fmt.Errorf("reclamation: %d pins leaked after all readers exited", pins)
	}
	if live := mgr.Live(); live != 1 {
		return fmt.Errorf("reclamation: %d generations live after quiescence, want 1", live)
	}
	if got, wantN := mgr.Reclaimed(), uint64(len(c.Rounds)); got != wantN {
		return fmt.Errorf("reclamation: %d generations reclaimed, want %d", got, wantN)
	}
	return nil
}

// ShrinkMVCC reduces a failing schedule greedily: drop whole rounds,
// then halve each round's adds, zero its reweights/deletes, and reduce
// the reader count. Concurrency failures are flaky by nature, so
// callers pass a fails predicate that retries CheckMVCC several times.
func ShrinkMVCC(c *MVCCCase, fails func(*MVCCCase) bool) *MVCCCase {
	cur := c
	for {
		next, ok := shrinkMVCCStep(cur, fails)
		if !ok {
			return cur
		}
		cur = next
	}
}

func shrinkMVCCStep(c *MVCCCase, fails func(*MVCCCase) bool) (*MVCCCase, bool) {
	for i := range c.Rounds {
		cand := &MVCCCase{Seed: c.Seed, Readers: c.Readers}
		cand.Rounds = append(append([]MVCCRound(nil), c.Rounds[:i]...), c.Rounds[i+1:]...)
		if fails(cand) {
			return cand, true
		}
	}
	for i := range c.Rounds {
		r := c.Rounds[i]
		for _, mut := range []MVCCRound{
			{Adds: r.Adds[:len(r.Adds)/2], Reweight: r.Reweight, Delete: r.Delete},
			{Adds: r.Adds, Reweight: 0, Delete: r.Delete},
			{Adds: r.Adds, Reweight: r.Reweight, Delete: 0},
		} {
			if len(mut.Adds) == len(r.Adds) && mut.Reweight == r.Reweight && mut.Delete == r.Delete {
				continue // no reduction
			}
			cand := &MVCCCase{Seed: c.Seed, Readers: c.Readers, Rounds: append([]MVCCRound(nil), c.Rounds...)}
			cand.Rounds[i] = mut
			if fails(cand) {
				return cand, true
			}
		}
	}
	if c.Readers > 1 {
		cand := &MVCCCase{Seed: c.Seed, Readers: c.Readers - 1, Rounds: c.Rounds}
		if fails(cand) {
			return cand, true
		}
	}
	return nil, false
}
