package main

import (
	"fmt"

	"probkb/internal/engine"
	"probkb/internal/kb"
)

const kernelReps = 5

// timeKernels times the engine's four kernels over the grounded facts
// table, each kernelReps times, and reports input rows per second of the
// median. The shapes are the ones grounding issues: the second join of
// a two-atom rule (TΠ probing TΠ on T1.y = T2.x with matching classes),
// the merge's duplicate elimination on the fact identity, the constraint
// query's grouped distinct count, and a relation-selection scan.
func timeKernels(res *result, l *laps, facts *engine.Table) error {
	rows := float64(facts.NumRows())
	rate := func(kernel string, inputRows float64) {
		res.set("engine."+kernel+"_mrows_per_s", inputRows/median(l.d["engine."+kernel]).Seconds()/1e6, kernelReps)
	}
	outs := []engine.JoinOut{
		engine.ProbeCol("R1", kb.TPiR), engine.ProbeCol("x", kb.TPiX),
		engine.BuildCol("R2", kb.TPiR), engine.BuildCol("y", kb.TPiY),
	}
	var joinAllocs uint64
	for i := 0; i < kernelReps; i++ {
		var err error
		var out *engine.Table
		before := mallocs()
		l.do("engine.join", func() {
			out, err = engine.HashJoinTablesOpts(facts, facts,
				[]int{kb.TPiX, kb.TPiC1}, []int{kb.TPiY, kb.TPiC2}, nil, outs, engine.Opts{}, nil)
		})
		joinAllocs = mallocs() - before
		if err != nil {
			return fmt.Errorf("join kernel: %w", err)
		}
		if i == 0 {
			res.notes = append(res.notes, fmt.Sprintf("join kernel: %d x %d rows -> %d rows", facts.NumRows(), facts.NumRows(), out.NumRows()))
		}
		l.do("engine.distinct", func() {
			_, err = engine.NewDistinct(engine.NewScan(facts), []int{kb.TPiR, kb.TPiX, kb.TPiC1, kb.TPiY, kb.TPiC2}).Run()
		})
		if err != nil {
			return fmt.Errorf("distinct kernel: %w", err)
		}
		l.do("engine.groupby", func() {
			_, err = engine.GroupByTableOpts(facts, []int{kb.TPiR, kb.TPiX, kb.TPiC1, kb.TPiC2},
				[]engine.AggSpec{{Kind: engine.AggCountDistinct, Col: kb.TPiY, Name: "n"}}, engine.Opts{}, nil)
		})
		if err != nil {
			return fmt.Errorf("group-by kernel: %w", err)
		}
		rel := facts.Int32Col(kb.TPiR)[0]
		l.do("engine.filter", func() {
			engine.FilterTableOpts(facts, func(t *engine.Table, r int) bool { return t.Int32Col(kb.TPiR)[r] == rel }, engine.Opts{}, nil)
		})
	}
	rate("join", 2*rows)
	rate("distinct", rows)
	rate("groupby", rows)
	rate("filter", rows)
	res.set("engine.join_allocs", float64(joinAllocs), 1)
	return nil
}
