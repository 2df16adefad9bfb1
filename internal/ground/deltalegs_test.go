package ground

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// legsOutput runs partition p's semi-naive plans and renders their raw
// candidate bags, in order.
func legsOutput(t *testing.T, g *BatchGrounder, p int, tpi, delta *engine.Table, tix *tpiIndex) []string {
	t.Helper()
	var out []string
	for _, plan := range g.atomsPlans(p, tpi, delta, tix) {
		res, err := plan.Run()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.String())
	}
	return out
}

// TestIndexedDeltaLegsMatchHashJoins: on random KBs, both two-atom Δ legs
// read through TΠ's entity index emit the hash-join legs' candidates row
// for row — the order the merge hands out fact IDs in. The index is
// checked freshly built, extended over appended rows, and rebuilt after
// a deletion shifted them.
func TestIndexedDeltaLegsMatchHashJoins(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 20; seed++ {
		k := joinHeavyKB(rand.New(rand.NewSource(seed + 9000)))
		closure, err := Ground(k, Options{SkipFactors: true, MaxIterations: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := NewBatch(k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		all := closure.Facts
		half := int32(all.NumRows() / 2)
		tpi := engine.NewTable("T", kb.FactsSchema())
		tpi.AppendRowsFrom(all, rowRange(0, int(half)))
		tix := newTPiIndex(tpi)

		check := func(stage string, delta *engine.Table) {
			for _, p := range g.parts.NonEmpty() {
				if _, body := mln.Shape(p); len(body) != 2 {
					continue
				}
				want := legsOutput(t, g, p, tpi, delta, nil)
				got := legsOutput(t, g, p, tpi, delta, tix)
				for leg := range want {
					if got[leg] != want[leg] {
						t.Fatalf("seed %d %s P%d leg %d:\nindexed %s\nhash    %s", seed, stage, p, leg, got[leg], want[leg])
					}
					compared += strings.Count(want[leg], "\n") - 1 // less the header line
				}
			}
		}
		check("built", deltaRows(tpi, half/2))

		tpi.AppendRowsFrom(all, rowRange(int(half), all.NumRows()))
		if next := tix.sync(tpi); next != tix {
			t.Fatalf("seed %d: appending rebuilt the index", seed)
		}
		check("extended", deltaRows(tpi, half))

		ids := tpi.Int32Col(kb.TPiI)
		if tpi.DeleteWhere(func(r int) bool { return ids[r]%3 == 1 }) == 0 {
			continue
		}
		if next := tix.sync(tpi); next == tix {
			t.Fatalf("seed %d: a deletion left the index in place", seed)
		} else {
			tix = next
		}
		check("rebuilt", deltaRows(tpi, half/2))
	}
	t.Logf("compared %d candidate rows", compared)
	if compared == 0 {
		t.Fatal("no two-atom partition produced output; the differential checked nothing")
	}
}

// joinHeavyKB is randomKB with two-atom rules only, several per
// relation pair, over few entities and many facts: every z has many
// partners, and several Mi rows match one fact, so both legs' orders
// (TΠ row against Mi row, Δ row against both) are exercised.
func joinHeavyKB(rng *rand.Rand) *kb.KB {
	k := kb.New()
	classes := []string{"A", "B"}
	rels := []string{"r0", "r1", "r2"}
	for i := 0; i < 60; i++ {
		k.InternFact(rels[rng.Intn(len(rels))],
			fmt.Sprintf("e%d", rng.Intn(12)), classes[rng.Intn(len(classes))],
			fmt.Sprintf("e%d", rng.Intn(12)), classes[rng.Intn(len(classes))], 0.9)
	}
	for i := 0; i < 16; i++ {
		cls := map[int]int32{}
		for v := 0; v < 3; v++ {
			cls[v] = k.Classes.Intern(classes[rng.Intn(len(classes))])
		}
		rel := func() int32 { return k.RelDict.Intern(rels[rng.Intn(len(rels))]) }
		a, b := [][2]int{{2, 0}, {0, 2}}[rng.Intn(2)], [][2]int{{2, 1}, {1, 2}}[rng.Intn(2)]
		c, err := mln.Canonicalize(mln.RawAtom{Rel: rel(), Arg1: 0, Arg2: 1},
			[]mln.RawAtom{{Rel: rel(), Arg1: a[0], Arg2: a[1]}, {Rel: rel(), Arg1: b[0], Arg2: b[1]}}, cls, 0.5)
		if err != nil {
			panic(err)
		}
		if err := k.AddRule(c); err != nil {
			panic(err)
		}
	}
	return k
}

func rowRange(lo, hi int) []int32 {
	rows := make([]int32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, int32(r))
	}
	return rows
}
