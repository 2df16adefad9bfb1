package main

import (
	"fmt"
	"math/rand"

	"probkb"
	"probkb/internal/synth"
)

// Everything the program under test receives is generated here from the
// run's seed: the corpus, the atom pools, the Zipf draws and the fact
// stream. Each consumer gets its own rand stream (seed plus a fixed
// offset) so adding a draw to one does not shift another.
const (
	rngPool   = 1
	rngStream = 2
	rngClient = 100 // + client index
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(stream)))
}

// synthesize builds the ReVerb-Sherlock-like corpus through the public
// API, which is what the untraced workloads expand.
func synthesize(scale float64, seed int64) (*probkb.KB, *probkb.Truth, error) {
	k, truth, err := probkb.Synthesize(scale, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize scale %g: %w", scale, err)
	}
	return k, truth, nil
}

// synthesizeInner builds the same corpus (the generator is a pure
// function of scale and seed) but keeps the internal KB, which the
// traced passes need to call the layers directly.
func synthesizeInner(scale float64, seed int64) (*synth.Corpus, error) {
	c, err := synth.ReVerbSherlock(scale, seed)
	if err != nil {
		return nil, fmt.Errorf("synthesize scale %g: %w", scale, err)
	}
	return c, nil
}

// atom is one point-query target.
type atom struct{ Rel, X, Y string }

func (a atom) String() string { return fmt.Sprintf("%s(%s, %s)", a.Rel, a.X, a.Y) }

// shuffledAtoms returns the expansion's inferred facts as query atoms in
// a seed-determined order; pools are prefixes of it.
func shuffledAtoms(exp *probkb.Expansion, seed int64) []atom {
	inferred := exp.InferredFacts()
	atoms := make([]atom, len(inferred))
	for i, f := range inferred {
		atoms[i] = atom{f.Rel, f.X, f.Y}
	}
	rngFor(seed, rngPool).Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	return atoms
}

// zipfDraws returns a generator of indices into a pool of n items with
// the Zipf(1.1) popularity the cached workloads use.
func zipfDraws(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// factStream generates batches×size fresh facts: new edges over the
// entity pools of existing relation signatures, so every fact joins the
// rule bodies it lands next to and delta grounding has work to do. No
// fact repeats an observed one or an earlier one of the stream.
func factStream(exp *probkb.Expansion, seed int64, batches, size int) ([][]probkb.Fact, error) {
	type sig struct{ rel, xc, yc string }
	var sigs []sig
	xPool, yPool := map[sig][]string{}, map[sig][]string{}
	seen := map[atom]bool{}
	for _, f := range exp.Facts() {
		seen[atom{f.Rel, f.X, f.Y}] = true
		if f.Inferred {
			continue
		}
		s := sig{f.Rel, f.XClass, f.YClass}
		if _, ok := xPool[s]; !ok {
			sigs = append(sigs, s)
		}
		xPool[s] = append(xPool[s], f.X)
		yPool[s] = append(yPool[s], f.Y)
	}
	if len(sigs) == 0 {
		return nil, fmt.Errorf("fact stream: expansion has no observed facts")
	}
	rng := rngFor(seed, rngStream)
	out := make([][]probkb.Fact, batches)
	for b := range out {
		for tries := 0; len(out[b]) < size; tries++ {
			if tries > size*1000 {
				return nil, fmt.Errorf("fact stream: cannot find %d fresh facts for batch %d", size, b+1)
			}
			s := sigs[rng.Intn(len(sigs))]
			a := atom{s.rel, xPool[s][rng.Intn(len(xPool[s]))], yPool[s][rng.Intn(len(yPool[s]))]}
			if a.X == a.Y || seen[a] {
				continue
			}
			seen[a] = true
			out[b] = append(out[b], probkb.Fact{
				Rel: a.Rel, X: a.X, XClass: s.xc, Y: a.Y, YClass: s.yc,
				Probability: 0.5 + 0.5*rng.Float64(),
			})
		}
	}
	return out, nil
}
