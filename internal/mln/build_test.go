package mln_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/mln"
	"probkb/internal/synth"
)

// rowAtATime is the oracle Build is held to: every clause appended to
// its partition with Add, one boxed row at a time.
func rowAtATime(t *testing.T, clauses []mln.Clause) *mln.Partitions {
	t.Helper()
	p := mln.NewPartitions()
	for i, c := range clauses {
		if err := p.Add(c); err != nil {
			t.Fatalf("oracle: clause %d: %v", i, err)
		}
	}
	return p
}

// samePartitions fails unless got and want hold the same tables, column
// for column, and the same clauses per partition.
func samePartitions(t *testing.T, got, want *mln.Partitions) {
	t.Helper()
	if got.Total() != want.Total() || got.Stats() != want.Stats() {
		t.Fatalf("Total/Stats = %d/%v, want %d/%v", got.Total(), got.Stats(), want.Total(), want.Stats())
	}
	for i := mln.P1; i <= mln.P6; i++ {
		g, w := got.Table(i), want.Table(i)
		if g.Name() != w.Name() || g.Schema().String() != w.Schema().String() || g.NumRows() != w.NumRows() {
			t.Fatalf("M%d: %s %s %d rows, want %s %s %d rows", i,
				g.Name(), g.Schema(), g.NumRows(), w.Name(), w.Schema(), w.NumRows())
		}
		for c, col := range w.Schema().Cols {
			var equal bool
			if col.Type == engine.Float64 {
				equal = slices.Equal(g.Float64Col(c), w.Float64Col(c))
			} else {
				equal = slices.Equal(g.Int32Col(c), w.Int32Col(c))
			}
			if !equal {
				t.Fatalf("M%d column %s differs:\n got %s\nwant %s", i, col.Name, g, w)
			}
		}
		if !reflect.DeepEqual(got.Clauses(i), want.Clauses(i)) {
			t.Fatalf("Clauses(%d) differ: got %v, want %v", i, got.Clauses(i), want.Clauses(i))
		}
	}
}

// randomClauses draws n canonical clauses over every partition shape,
// hard rules among them.
func randomClauses(rng *rand.Rand, n int) []mln.Clause {
	out := make([]mln.Clause, n)
	for i := range out {
		head, body := mln.Shape(mln.P1 + rng.Intn(mln.NumPartitions))
		head.Rel = rng.Int31n(40)
		body = slices.Clone(body)
		for k := range body {
			body[k].Rel = rng.Int31n(40)
		}
		c := mln.Clause{Head: head, Body: body, Weight: rng.NormFloat64()}
		if rng.Intn(10) == 0 {
			c.Weight = math.Inf(1)
		}
		for v := 0; v <= len(body); v++ {
			c.Class[v] = rng.Int31n(12)
		}
		out[i] = c
	}
	return out
}

// TestBuildMatchesAdd holds Build's column-at-a-time tables to the
// row-at-a-time build, on random rule sets (empty partitions included)
// and on the scale-0.25 corpus's rules.
func TestBuildMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 5, 60, 700} {
		for trial := 0; trial < 4; trial++ {
			clauses := randomClauses(rng, n)
			got, err := mln.Build(clauses)
			if err != nil {
				t.Fatal(err)
			}
			samePartitions(t, got, rowAtATime(t, clauses))
		}
	}
	if testing.Short() {
		return
	}
	c, err := synth.ReVerbSherlock(0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mln.Build(c.KB.Rules)
	if err != nil {
		t.Fatal(err)
	}
	samePartitions(t, got, rowAtATime(t, c.KB.Rules))
	if got.NonEmpty() == nil || got.Total() != len(c.KB.Rules) {
		t.Fatalf("corpus partitions: %v non-empty, %d of %d rules", got.NonEmpty(), got.Total(), len(c.KB.Rules))
	}
}

// TestBuildNamesBadClause checks that Build refuses a rule set holding a
// clause of no partition's shape, naming the clause and wrapping the
// reason, wherever in the set it sits.
func TestBuildNamesBadClause(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	bad := []struct {
		c   mln.Clause
		err error
	}{
		{mln.Clause{Head: mln.Atom{Rel: 1, Arg1: mln.Y, Arg2: mln.X}, Body: []mln.Atom{{Rel: 2, Arg1: mln.X, Arg2: mln.Y}}}, mln.ErrBadHead},
		{mln.Clause{Head: mln.Atom{Rel: 1, Arg1: mln.X, Arg2: mln.Y}}, mln.ErrBodyArity},
		{mln.Clause{Head: mln.Atom{Rel: 1, Arg1: mln.X, Arg2: mln.Y}, Body: []mln.Atom{{Rel: 2, Arg1: mln.X, Arg2: mln.X}}}, mln.ErrBadShape},
		{mln.Clause{Head: mln.Atom{Rel: 1, Arg1: mln.X, Arg2: mln.Y},
			Body: []mln.Atom{{Rel: 2, Arg1: mln.Y, Arg2: mln.Z}, {Rel: 3, Arg1: mln.Z, Arg2: mln.X}}}, mln.ErrBadShape},
	}
	for _, b := range bad {
		for _, at := range []int{0, 7, 19} {
			clauses := randomClauses(rng, 20)
			clauses[at] = b.c
			p, err := mln.Build(clauses)
			if p != nil || !errors.Is(err, b.err) || !strings.HasPrefix(err.Error(), fmt.Sprintf("clause %d:", at)) {
				t.Fatalf("bad clause at %d: Build = %v, %v; want nil and clause %d: %v", at, p, err, at, b.err)
			}
		}
	}
}
