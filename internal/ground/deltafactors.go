package ground

import (
	"context"
	"slices"
	"sort"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// Query 2 maintained from the delta (DESIGN.md §5). Every ProbKB run
// continues from a prior TΦ — a fresh run from the empty one — and does
// not recompute it: a ground clause whose facts all predate the prior
// TΦ's watermark is already in it, so only the clauses naming a newer
// fact are grounded — by the closure's own Δ legs, whose rows carry the
// body fact IDs and weight, and one factor-only leg for heads — and
// appended to the prior rows that survive. On a fresh run every fact is
// newer, and the legs are Query 1-p over all of TΠ with the head looked
// up in the run's identity set: Query 2. TΦ is a bag: it comes out, as a
// multiset, what Query 2 computes over the final TΠ, and the factor
// graph reads it in no order of its rows.

// factorState is a computed TΦ as a later run continues from it; the
// zero value is the empty TΦ a fresh run starts from.
type factorState struct {
	tphi *engine.Table
	// clauses is how many of tphi's rows are clause rows; the unit
	// clauses follow them.
	clauses int
	// watermark W splits TΠ in two: a fact with an ID below W is one TΠ
	// held when tphi was computed, and one at or above W arrived since —
	// fact IDs never repeat along a lineage (Result.next). facts is how
	// many rows TΠ held then.
	watermark int32
	facts     int
}

// factorLeg is one plan grounding the clauses of a partition that name a
// fact at or above the watermark. Its rows name one fact of the clause by
// identity, (R, x, C1, y, C2), and carry the clause's other fact IDs and
// its weight: with head set the named fact is the head and the rest are
// I2[, I3]; otherwise it is the last body fact and the rest are I1[, I2].
type factorLeg struct {
	p    int
	plan engine.Node
	head bool
	two  bool // a two-atom body
	// old is how many leading body positions (I2, then I3) must lie below
	// the watermark for a clause to be this leg's, so that no clause is
	// emitted by two legs.
	old int
}

// maintainFactors appends the clause rows of TΦ over tpi to cols: the
// prior TΦ's clause rows that survive, then the new clauses. The prior
// TΦ is the empty one when prior is nil. The new clauses are those
// naming a fact with an ID at or above the prior watermark W — Δ, the
// rows of tpi that arrived since — in one of three disjoint ways:
//
//   - Δ⋈T_all: the first body fact is in Δ (the first Δ leg of
//     atomsPlans);
//   - T_old⋈Δ: the first body fact predates W and the second is in Δ, so
//     a pair within Δ is grounded once (its second Δ leg);
//   - the head is in Δ and every body fact predates W: a fact derivable
//     from old facts that TΠ did not hold at W (a constraint pass had
//     removed it, or the prior closure was cut short) arriving again
//     (headLeg).
//
// When no fact predates Δ (a fresh run), the first is the only one: the
// backend's one full body join per partition. Every other clause has all
// of its facts below W and was in the prior TΦ. A prior clause stays
// unless it names a fact TΠ has lost since. The head's I1, or the last
// body fact's ID in the third leg, is resolved through the run's
// identity index ix on the master, and a clause naming a fact TΠ does
// not hold is dropped.
func (g *BatchGrounder) maintainFactors(ctx context.Context, be backend, prior *factorState,
	tpi *engine.Table, ix *factIndex, cols *factorCols, res *Result) error {
	if prior == nil {
		prior = &factorState{}
	}
	w := prior.watermark
	delta := deltaRows(tpi, w)
	var legs []factorLeg
	if delta.NumRows() > 0 {
		for _, q := range be.atomsQueries(tpi, delta, ix) {
			legs = append(legs, factorLeg{p: q.p, plan: q.plan, head: true, two: twoAtom(q.p), old: q.leg})
		}
		if delta != tpi {
			for _, p := range g.parts.NonEmpty() {
				legs = append(legs, factorLeg{p: p, plan: g.headLeg(p, delta, ix), two: twoAtom(p), old: 2})
			}
		}
	}
	outs := make([]*engine.Table, len(legs))
	fresh := 0
	for i, leg := range legs {
		// Cooperative cancellation: check between factor queries.
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := g.runFactors(be, leg.p, leg.plan, res)
		if err != nil {
			return err
		}
		outs[i] = out
		fresh += out.NumRows()
	}
	cols.grow(prior.clauses + fresh + observed(tpi))
	if prior.clauses > 0 {
		cols.appendLive(prior.tphi, prior.clauses, liveBelow(tpi, w, prior.facts))
	}
	for i, leg := range legs {
		leg.collect(cols, outs[i], ix, w)
	}
	return nil
}

// collect appends to cols the clauses of the leg's output rows: it
// resolves each row's named fact through TΠ's identity index, dropping
// the row when TΠ does not hold it, and keeps the clauses that are the
// leg's.
func (l factorLeg) collect(cols *factorCols, out *engine.Table, ix *factIndex, w int32) {
	ids := ix.tpi.Int32Col(kb.TPiI)
	a := out.Int32Col(5)
	var b []int32
	if l.two {
		b = out.Int32Col(6)
	}
	ws := out.Float64Col(out.Schema().NumCols() - 1)
	for r := 0; r < out.NumRows(); r++ {
		row := ix.set.Find(out, r, candidateKeyCols)
		if row < 0 {
			continue
		}
		id := ids[row]
		var i1, i2, i3 int32
		switch {
		case l.head && l.two:
			i1, i2, i3 = id, a[r], b[r]
		case l.head:
			i1, i2, i3 = id, a[r], engine.NullInt32
		case l.two:
			i1, i2, i3 = a[r], b[r], id
		default:
			i1, i2, i3 = a[r], id, engine.NullInt32
		}
		if (l.old > 0 && i2 >= w) || (l.old > 1 && i3 >= w) {
			continue
		}
		cols.add(i1, i2, i3, ws[r])
	}
}

// twoAtom reports whether partition p's clauses have two body atoms.
func twoAtom(p int) bool {
	_, body := mln.Shape(p)
	return len(body) == 2
}

// liveBelow tests whether TΠ still holds a fact with an ID below w,
// given that it held had facts, all of them below w, when the prior TΦ
// was computed. TΠ's rows below w are some of those: nil, the answer
// being yes for every fact a prior clause names, when they are all of
// them.
func liveBelow(tpi *engine.Table, w int32, had int) func(int32) bool {
	ids := tpi.Int32Col(kb.TPiI)
	n := sort.Search(len(ids), func(r int) bool { return ids[r] >= w })
	if n == had {
		return nil
	}
	bits := make([]uint64, (int(w)+63)/64)
	for _, id := range ids[:n] {
		bits[id/64] |= 1 << (id % 64)
	}
	return func(id int32) bool { return bits[id/64]&(1<<(id%64)) != 0 }
}

// grow makes room for n more rows.
func (c *factorCols) grow(n int) {
	c.i1, c.i2, c.i3, c.w = slices.Grow(c.i1, n), slices.Grow(c.i2, n), slices.Grow(c.i3, n), slices.Grow(c.w, n)
}

// appendLive appends the first n rows of the prior TΦ prev that name no
// fact live rejects (live nil rejects none).
func (c *factorCols) appendLive(prev *engine.Table, n int, live func(int32) bool) {
	if live == nil {
		c.appendRows(prev, n)
		return
	}
	i1, i2, i3, ws := prev.Int32Col(TPhiI1), prev.Int32Col(TPhiI2), prev.Int32Col(TPhiI3), prev.Float64Col(TPhiW)
	for r := range n {
		if live(i1[r]) && live(i2[r]) && (i3[r] == engine.NullInt32 || live(i3[r])) {
			c.add(i1[r], i2[r], i3[r], ws[r])
		}
	}
}

// headLeg is partition p's factor-only leg: its clauses whose head is in
// delta while every body fact predates the watermark. Its rows name the
// last body fact by identity and carry I1[, I2] and w (see factorLeg).
func (g *BatchGrounder) headLeg(p int, delta *engine.Table, ix *factIndex) engine.Node {
	m := g.parts.Table(p)
	lay := layoutOf(p)
	head, body := mln.Shape(p)
	b0 := body[0]
	// byHead is Mi ⋈ Δ on the head: Δ rows as the heads of clauses.
	byHead := func(outs ...engine.JoinOut) engine.Node {
		return engine.NewHashJoin(engine.NewScan(m), engine.NewScan(delta),
			[]int{lay.r1, lay.class[mln.X], lay.class[mln.Y]}, []int{kb.TPiR, kb.TPiC1, kb.TPiC2}, outs,
			m.Name()+".R1 = Δ.R AND head classes")
	}

	if len(body) == 1 {
		// The body fact of a Δ head is the head's own arguments.
		return byHead(
			engine.BuildCol("R", lay.r2),
			engine.ProbeCol("x", tCol(head, b0.Arg1)),
			engine.BuildCol("C1", lay.class[b0.Arg1]),
			engine.ProbeCol("y", tCol(head, b0.Arg2)),
			engine.BuildCol("C2", lay.class[b0.Arg2]),
			engine.ProbeCol("I1", kb.TPiI),
			engine.BuildCol("w", lay.w),
		)
	}

	// H1 = Mi ⋈ Δ on the head (R2, R3, CX, CY, CZ, xv, yv, I1, w), each row
	// reading the TΠ rows holding its x in the first atom's x column. That
	// fixes z, and with it the second body fact.
	b1 := body[1]
	x0, z0 := tCol(b0, mln.X), tCol(b0, mln.Z)
	arg := func(name string, v mln.Var) engine.JoinOut {
		if v == mln.Z {
			return engine.ProbeCol(name, z0)
		}
		return engine.BuildCol(name, 6)
	}
	return engine.NewIndexJoin(byHead(
		engine.BuildCol("R2", lay.r2),
		engine.BuildCol("R3", lay.r3),
		engine.BuildCol("CX", lay.class[mln.X]),
		engine.BuildCol("CY", lay.class[mln.Y]),
		engine.BuildCol("CZ", lay.class[mln.Z]),
		engine.ProbeCol("xv", kb.TPiX),
		engine.ProbeCol("yv", kb.TPiY),
		engine.ProbeCol("I1", kb.TPiI),
		engine.BuildCol("w", lay.w),
	), ix.on(x0),
		[]int{5, 0, j1VarCol[b0.Arg1], j1VarCol[b0.Arg2]}, []int{x0, kb.TPiR, kb.TPiC1, kb.TPiC2}, -1,
		[]engine.JoinOut{
			engine.BuildCol("R", 1),
			arg("x", b1.Arg1),
			engine.BuildCol("C1", j1VarCol[b1.Arg1]),
			arg("y", b1.Arg2),
			engine.BuildCol("C2", j1VarCol[b1.Arg2]),
			engine.BuildCol("I1", 7),
			engine.ProbeCol("I2", kb.TPiI),
			engine.BuildCol("w", 8),
		}, m.Name()+".R2 = T2.R AND classes AND T1.x = T2.x")
}
