package ground

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// Query 2 maintained from the delta (DESIGN.md §5). A run that continues
// from a prior TΦ does not recompute it: a ground clause whose facts all
// predate the prior TΦ's watermark is already in it, so only the clauses
// naming a newer fact are grounded, through the same entity index the
// semi-naive legs read, and merged into the prior rows in the order
// Query 2's hash joins would have emitted them. TΦ comes out row for row
// what factorsPlan computes over the final TΠ.

// factorState is a computed TΦ as a later run continues from it.
type factorState struct {
	tphi *engine.Table
	// end[p] is where partition p's clause rows end in tphi: they are
	// rows [end[p-1], end[p]), and the unit clauses follow end[P6].
	end [mln.NumPartitions + 1]int
	// watermark W splits TΠ in two: a fact with an ID below W is one TΠ
	// held when tphi was computed, and one at or above W may have arrived
	// since. facts is how many rows TΠ held then.
	watermark int32
	facts     int
}

// continueAt is s as a run continues from it that hands out fact IDs
// from next on. IDs are never reused within a run, but a run starts
// above the highest ID its input holds, not above every ID its lineage
// has handed out: when a constraint pass has deleted the top IDs, the
// run hands some of them out again, to other facts. Lowering W to next
// keeps every fact with such an ID on the Δ side, and drops the prior
// clauses naming the fact that held the ID before.
func (s *factorState) continueAt(next int32) *factorState {
	if s == nil || next >= s.watermark {
		return s
	}
	t := *s
	t.watermark = next
	return &t
}

// clause is one TΦ row.
type clause struct {
	i1, i2, i3 int32
	w          float64
}

// cmp orders clauses as Query 2-p emits them. Its hash joins are
// probe-major with ascending build chains, and fact IDs ascend with the TΠ
// row, so a two-atom partition's rows come out by (I1, I3, I2, Mi row)
// and a one-atom partition's by (I1, I2, Mi row) — I3 is NULL throughout.
// The Mi row is not in TΦ: clauses equal on the rest keep the order they
// were emitted in.
func (a clause) cmp(b clause) int {
	if c := cmp.Compare(a.i1, b.i1); c != 0 {
		return c
	}
	if c := cmp.Compare(a.i3, b.i3); c != 0 {
		return c
	}
	return cmp.Compare(a.i2, b.i2)
}

// factorLeg is one plan grounding the clauses of a partition that name a
// fact at or above the watermark. Its rows name one fact of the clause by
// identity, (R, x, C1, y, C2), and carry the clause's other fact IDs and
// its weight: with head set the named fact is the head and the rest are
// I2[, I3]; otherwise it is the last body fact and the rest are I1[, I2].
type factorLeg struct {
	plan engine.Node
	head bool
	// old is how many leading body positions (I2, then I3) must lie below
	// the watermark for a clause to be this leg's, so that no clause is
	// emitted by two legs.
	old int
}

// maintainFactors appends the clause rows of TΦ over tpi to cols,
// partition by partition, from the prior TΦ. The new clauses are those
// naming a fact with an ID at or above the prior watermark W — Δ, the
// rows of tpi that arrived since — in one of three disjoint ways:
//
//   - Δ⋈T_all: the first body fact is in Δ;
//   - T_old⋈Δ: the first body fact predates W and the second is in Δ, so
//     a pair within Δ is grounded once;
//   - the head is in Δ and every body fact predates W: a fact derivable
//     from old facts that TΠ did not hold at W (a constraint pass had
//     removed it, or the prior closure was cut short) arriving again.
//
// Every other clause has all of its facts below W and was in the prior
// TΦ. A prior clause stays unless it names a fact TΠ has lost since, or
// one at or above a W that continueAt lowered. The head's I1,
// or the last body fact's ID in the third leg, is resolved through the
// run's identity index ix, and a clause naming a fact TΠ does not hold is
// dropped. No new clause ties with a prior one on Query 2's order, since
// one of its facts is at or above W and none of theirs is, so merging
// the sorted new clauses into the prior rows reproduces that order.
func (g *BatchGrounder) maintainFactors(ctx context.Context, be backend, active []int, prior *factorState,
	tpi *engine.Table, ix *factIndex, tix *tpiIndex, cols *factorCols, end *[mln.NumPartitions + 1]int, res *Result) error {
	w := prior.watermark
	delta := deltaRows(tpi, w)
	var fresh [mln.NumPartitions + 1][]clause
	total := 0
	if delta.NumRows() > 0 {
		for _, p := range active {
			// Cooperative cancellation: check between factor queries.
			if err := ctx.Err(); err != nil {
				return err
			}
			_, body := mln.Shape(p)
			for _, leg := range g.deltaFactorLegs(p, delta, tix) {
				out, err := g.runFactors(be, p, leg.plan, res)
				if err != nil {
					return err
				}
				fresh[p] = leg.collect(fresh[p], out, ix, w, len(body) == 2)
			}
			// Each leg emits its clauses in Query 2's order up to the
			// head's I1, and equal keys only within one leg: a stable sort
			// on the key restores the rest.
			slices.SortStableFunc(fresh[p], clause.cmp)
			total += len(fresh[p])
		}
	}
	live := liveBelow(tpi, w, prior.facts)
	cols.grow(prior.end[mln.NumPartitions] + total + observed(tpi))
	for _, p := range active {
		cols.merge(prior.tphi, prior.end[p-1], prior.end[p], live, fresh[p])
		end[p] = cols.len()
	}
	return nil
}

// collect appends the clauses of the leg's output rows to dst: it
// resolves each row's named fact through TΠ's identity index, dropping
// the row when TΠ does not hold it, and keeps the clauses that are the
// leg's.
func (l factorLeg) collect(dst []clause, out *engine.Table, ix *factIndex, w int32, two bool) []clause {
	ids := ix.tpi.Int32Col(kb.TPiI)
	a := out.Int32Col(5)
	var b []int32
	if two {
		b = out.Int32Col(6)
	}
	ws := out.Float64Col(out.Schema().NumCols() - 1)
	for r := 0; r < out.NumRows(); r++ {
		row := ix.set.Find(out, r, candidateKeyCols)
		if row < 0 {
			continue
		}
		id := ids[row]
		var c clause
		switch {
		case l.head && two:
			c = clause{id, a[r], b[r], ws[r]}
		case l.head:
			c = clause{id, a[r], engine.NullInt32, ws[r]}
		case two:
			c = clause{a[r], b[r], id, ws[r]}
		default:
			c = clause{a[r], id, engine.NullInt32, ws[r]}
		}
		if (l.old > 0 && c.i2 >= w) || (l.old > 1 && c.i3 >= w) {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// liveBelow tests whether TΠ still holds, under the same ID, a fact
// with an ID below w, given that it held had facts when the prior TΦ was
// computed, all of them below the ID it was computed at. TΠ's rows below
// w are some of those (see continueAt): nil, the answer being yes for
// every fact a prior clause names, when they are all of them.
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
	return func(id int32) bool { return id < w && bits[id/64]&(1<<(id%64)) != 0 }
}

// grow makes room for n more rows.
func (c *factorCols) grow(n int) {
	c.i1, c.i2, c.i3, c.w = slices.Grow(c.i1, n), slices.Grow(c.i2, n), slices.Grow(c.i3, n), slices.Grow(c.w, n)
}

// merge appends rows [lo, hi) of the prior TΦ prev that name no fact
// live rejects (live nil rejects none), with the sorted new clauses
// interleaved in Query 2's order.
func (c *factorCols) merge(prev *engine.Table, lo, hi int, live func(int32) bool, fresh []clause) {
	i1, i2, i3, ws := prev.Int32Col(TPhiI1), prev.Int32Col(TPhiI2), prev.Int32Col(TPhiI3), prev.Float64Col(TPhiW)
	at := func(r int) clause { return clause{i1[r], i2[r], i3[r], ws[r]} }
	if live == nil {
		// Copy the prior rows in runs between the new clauses' places.
		for _, f := range fresh {
			next := lo + sort.Search(hi-lo, func(k int) bool { return at(lo+k).cmp(f) > 0 })
			c.appendRange(prev, lo, next)
			c.add(f.i1, f.i2, f.i3, f.w)
			lo = next
		}
		c.appendRange(prev, lo, hi)
		return
	}
	j := 0
	for r := lo; r < hi; r++ {
		if !live(i1[r]) || !live(i2[r]) || (i3[r] != engine.NullInt32 && !live(i3[r])) {
			continue
		}
		row := at(r)
		for ; j < len(fresh) && fresh[j].cmp(row) < 0; j++ {
			c.add(fresh[j].i1, fresh[j].i2, fresh[j].i3, fresh[j].w)
		}
		c.add(row.i1, row.i2, row.i3, row.w)
	}
	for _, f := range fresh[j:] {
		c.add(f.i1, f.i2, f.i3, f.w)
	}
}

// deltaFactorLegs returns partition p's factor legs over delta (see
// maintainFactors), the two-atom ones reading TΠ through tix.
func (g *BatchGrounder) deltaFactorLegs(p int, delta *engine.Table, tix *tpiIndex) []factorLeg {
	m := g.parts.Table(p)
	lay := layoutOf(p)
	head, body := mln.Shape(p)
	b0 := body[0]
	tKeys := []int{kb.TPiR, kb.TPiC1, kb.TPiC2}
	headKeys := []int{lay.r1, lay.class[mln.X], lay.class[mln.Y]}
	// byHead is Mi ⋈ Δ on the head: Δ rows as the heads of clauses.
	byHead := func(outs ...engine.JoinOut) engine.Node {
		return engine.NewHashJoin(engine.NewScan(m), engine.NewScan(delta), headKeys, tKeys, outs,
			m.Name()+".R1 = Δ.R AND head classes")
	}

	if len(body) == 1 {
		first := engine.NewHashJoin(engine.NewScan(m), engine.NewScan(delta),
			[]int{lay.r2, lay.class[b0.Arg1], lay.class[b0.Arg2]}, tKeys,
			[]engine.JoinOut{
				engine.BuildCol("R", lay.r1),
				engine.ProbeCol("x", tCol(b0, mln.X)),
				engine.BuildCol("C1", lay.class[mln.X]),
				engine.ProbeCol("y", tCol(b0, mln.Y)),
				engine.BuildCol("C2", lay.class[mln.Y]),
				engine.ProbeCol("I2", kb.TPiI),
				engine.BuildCol("w", lay.w),
			}, m.Name()+".R2 = Δ.R AND classes")
		// The body fact of a Δ head is the head's own arguments.
		headSide := byHead(
			engine.BuildCol("R", lay.r2),
			engine.ProbeCol("x", tCol(head, b0.Arg1)),
			engine.BuildCol("C1", lay.class[b0.Arg1]),
			engine.ProbeCol("y", tCol(head, b0.Arg2)),
			engine.BuildCol("C2", lay.class[b0.Arg2]),
			engine.ProbeCol("I1", kb.TPiI),
			engine.BuildCol("w", lay.w),
		)
		return []factorLeg{{plan: first, head: true}, {plan: headSide, old: 2}}
	}

	b1 := body[1]
	// Δ⋈T_all: J1 over Δ, each row reading the TΠ rows holding its z in
	// the second atom's z column.
	z1 := tCol(b1, mln.Z)
	first := engine.NewIndexJoin(g.factorsFirstJoin(p, delta), tix.on(z1),
		[]int{6, 1, j1VarCol[b1.Arg1], j1VarCol[b1.Arg2]}, []int{z1, kb.TPiR, kb.TPiC1, kb.TPiC2}, -1,
		[]engine.JoinOut{
			engine.BuildCol("R", 0),
			engine.BuildCol("x", 5),
			engine.BuildCol("C1", 2),
			engine.ProbeCol("y", tCol(b1, mln.Y)),
			engine.BuildCol("C2", 3),
			engine.BuildCol("I2", 7),
			engine.ProbeCol("I3", kb.TPiI),
			engine.BuildCol("w", 8),
		}, m.Name()+".R3 = T3.R AND classes AND T2.z = T3.z")

	// T⋈Δ: K1 = Mi ⋈ Δ on the second atom (R1, R2, CX, CY, CZ, zv, yv,
	// I3, w), each row reading the TΠ rows holding its z in the first
	// atom's z column.
	k1 := engine.NewHashJoin(engine.NewScan(m), engine.NewScan(delta),
		[]int{lay.r3, lay.class[b1.Arg1], lay.class[b1.Arg2]}, tKeys,
		[]engine.JoinOut{
			engine.BuildCol("R1", lay.r1),
			engine.BuildCol("R2", lay.r2),
			engine.BuildCol("CX", lay.class[mln.X]),
			engine.BuildCol("CY", lay.class[mln.Y]),
			engine.BuildCol("CZ", lay.class[mln.Z]),
			engine.ProbeCol("zv", z1),
			engine.ProbeCol("yv", tCol(b1, mln.Y)),
			engine.ProbeCol("I3", kb.TPiI),
			engine.BuildCol("w", lay.w),
		}, m.Name()+".R3 = Δ.R AND classes")
	z0 := tCol(b0, mln.Z)
	second := engine.NewIndexJoin(k1, tix.on(z0),
		[]int{5, 1, j1VarCol[b0.Arg1], j1VarCol[b0.Arg2]}, []int{z0, kb.TPiR, kb.TPiC1, kb.TPiC2}, 7,
		[]engine.JoinOut{
			engine.BuildCol("R", 0),
			engine.ProbeCol("x", tCol(b0, mln.X)),
			engine.BuildCol("C1", 2),
			engine.BuildCol("y", 6),
			engine.BuildCol("C2", 3),
			engine.ProbeCol("I2", kb.TPiI),
			engine.BuildCol("I3", 7),
			engine.BuildCol("w", 8),
		}, m.Name()+".R2 = T2.R AND classes AND T2.z = T3.z")

	// Δ heads: H1 = Mi ⋈ Δ on the head (R2, R3, CX, CY, CZ, xv, yv, I1,
	// w), each row reading the TΠ rows holding its x in the first atom's
	// x column. That fixes z, and with it the second body fact.
	x0 := tCol(b0, mln.X)
	arg := func(name string, v mln.Var) engine.JoinOut {
		if v == mln.Z {
			return engine.ProbeCol(name, z0)
		}
		return engine.BuildCol(name, 6)
	}
	headSide := engine.NewIndexJoin(byHead(
		engine.BuildCol("R2", lay.r2),
		engine.BuildCol("R3", lay.r3),
		engine.BuildCol("CX", lay.class[mln.X]),
		engine.BuildCol("CY", lay.class[mln.Y]),
		engine.BuildCol("CZ", lay.class[mln.Z]),
		engine.ProbeCol("xv", kb.TPiX),
		engine.ProbeCol("yv", kb.TPiY),
		engine.ProbeCol("I1", kb.TPiI),
		engine.BuildCol("w", lay.w),
	), tix.on(x0),
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
	return []factorLeg{{plan: first, head: true}, {plan: second, head: true, old: 1}, {plan: headSide, old: 2}}
}
