package ground

import (
	"fmt"
	"time"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// The four distribution keys of Section 4.4: the paper materializes
// redistributed views of TΠ under exactly these key tuples, which cover
// every probe-side join the six grounding queries perform.
var (
	keyRCC   = []int{kb.TPiR, kb.TPiC1, kb.TPiC2}
	keyRCxC  = []int{kb.TPiR, kb.TPiC1, kb.TPiC2, kb.TPiX}
	keyRCCy  = []int{kb.TPiR, kb.TPiC1, kb.TPiC2, kb.TPiY}
	keyRCxCy = []int{kb.TPiR, kb.TPiC1, kb.TPiC2, kb.TPiX, kb.TPiY}
)

// MPPGrounder runs Algorithm 1 on the mpp cluster substrate: ProbKB-p
// when redistributed materialized views are enabled, ProbKB-pn when they
// are not (the two MPP configurations of Figure 6(c)).
type MPPGrounder struct {
	// batch states the plans and runs the closure loop; this type is the
	// backend that executes them on the cluster.
	batch    *BatchGrounder
	cluster  *mpp.Cluster
	useViews bool

	tpi   *engine.Table // master copy
	ix    *factIndex
	dT    *mpp.DistTable
	views *mpp.Views
	repM  map[*engine.Table]*mpp.DistTable // MLN partition table → replicated copy
	// distributedLen is how many master rows the cluster copies already
	// hold; rows beyond it are appended incrementally.
	distributedLen int
}

// NewMPP prepares an MPP grounder. useViews selects ProbKB-p (true) or
// ProbKB-pn (false).
func NewMPP(k *kb.KB, opts Options, cluster *mpp.Cluster, useViews bool) (*MPPGrounder, error) {
	batch, err := NewBatch(k, opts)
	if err != nil {
		return nil, err
	}
	return &MPPGrounder{batch: batch, cluster: cluster, useViews: useViews}, nil
}

// load distributes the facts table and replicates the MLN tables across
// the cluster; with views enabled it also materializes the four
// redistributed views.
func (g *MPPGrounder) load() error {
	if err := g.cluster.Err(); err != nil {
		return err
	}
	g.tpi = g.batch.kb.FactsTable()
	g.ix = newFactIndex(g.tpi)
	if err := g.redistribute(); err != nil {
		return err
	}
	g.repM = make(map[*engine.Table]*mpp.DistTable)
	for _, p := range g.batch.parts.NonEmpty() {
		m := g.batch.parts.Table(p)
		g.repM[m] = g.cluster.Replicate(m)
	}
	return nil
}

// redistribute reloads the distributed facts table from the master copy
// and rebuilds the views from scratch (initial load, and after
// constraint deletions invalidate the copies). Only the three views the
// groundAtoms queries probe are built here; the head-join view of the
// factor phase is materialized lazily by ensureHeadView.
func (g *MPPGrounder) redistribute() error {
	// The base table is distributed by fact ID — a fine key for storage
	// balance, but never a join key; the views (or motions) supply join
	// placement.
	g.dT = g.cluster.Distribute(g.tpi, []int{kb.TPiI})
	if err := g.dT.Err(); err != nil {
		return err
	}
	g.distributedLen = g.tpi.NumRows()
	if !g.useViews {
		g.views = nil
		return nil
	}
	g.views = mpp.NewViews(g.cluster)
	for _, key := range [][]int{keyRCC, keyRCxC, keyRCCy} {
		if v := g.views.Materialize(g.dT, key); v.Err() != nil {
			return v.Err()
		}
	}
	return nil
}

// ensureHeadView materializes the (R, C1, x, C2, y) view the factor
// phase's head joins probe; grounding iterations never use it, so it is
// built once, just in time.
func (g *MPPGrounder) ensureHeadView() error {
	if g.views == nil {
		return nil
	}
	if _, ok := g.views.Lookup(g.dT.Name(), keyRCxCy); !ok {
		if v := g.views.Materialize(g.dT, keyRCxCy); v.Err() != nil {
			return v.Err()
		}
	}
	return nil
}

// appendDelta incrementally ships the master rows added since the last
// distribution to the cluster copies and views (Algorithm 1 line 7, the
// common no-deletion case).
func (g *MPPGrounder) appendDelta() error {
	from := g.distributedLen
	if err := g.dT.AppendFrom(g.tpi, from); err != nil {
		return err
	}
	if g.views != nil {
		if err := g.views.AppendFrom(g.dT.Name(), g.tpi, from); err != nil {
			return err
		}
	}
	g.distributedLen = g.tpi.NumRows()
	return nil
}

// Ground runs the distributed Algorithm 1: the batch grounder's closure
// and factor loop, with every plan lowered onto the cluster.
func (g *MPPGrounder) Ground() (*Result, error) {
	res := &Result{}
	loadStart := time.Now()
	_, loadSpan := obs.StartSpan(g.batch.opts.ctxOf(), "ground.load")
	loadSpan.SetAttr("segments", g.cluster.NumSegments())
	loadSpan.SetAttr("views", g.useViews)
	err := g.load()
	loadSpan.End()
	if err != nil {
		return nil, fmt.Errorf("ground: mpp load: %w", err)
	}
	res.LoadTime = time.Since(loadStart)
	res.BaseFacts = g.tpi.NumRows()
	return g.batch.groundFrom(g, g.tpi, g.ix, -1, res)
}

// run lowers a grounding plan onto the cluster, runs it and gathers the
// result. Candidate atoms are not deduplicated on the cluster — a
// distributed DISTINCT would cost a motion — so the merge does it.
func (g *MPPGrounder) run(phase string, plan engine.Node, capture bool) (*engine.Table, journal.QueryProfile, error) {
	if phase == "factors" {
		if err := g.ensureHeadView(); err != nil {
			return nil, journal.QueryProfile{}, fmt.Errorf("mpp head view: %w", err)
		}
	}
	dplan := g.lower(plan)
	out, err := dplan.Run()
	if err != nil {
		return nil, journal.QueryProfile{}, err
	}
	query := "mpp-atoms"
	if phase == "factors" {
		query = "mpp-factors"
	}
	mpp.ObservePlan(query, dplan)
	prof := journal.QueryProfile{Query: query}
	if capture {
		prof.Plan = journal.Capture[mpp.Node](dplan)
	}
	return mpp.Gather(out), prof, nil
}

// factsChanged brings the cluster copies of TΠ up to the master: new
// rows are appended incrementally (the common case); deletions
// invalidate the copies, which are rebuilt. When nothing will read them
// again the maintenance is skipped.
func (g *MPPGrounder) factsChanged(st IterStats, feeds bool) error {
	switch {
	case !feeds:
		return nil
	case st.Deleted > 0:
		return g.redistribute()
	case st.NewFacts > 0:
		return g.appendDelta()
	}
	return nil
}

// indexed is false: the cluster runs the hash-join plans as lowered.
func (g *MPPGrounder) indexed() bool { return false }

// lower places a grounding plan on the cluster: views on, TΠ probes scan
// the view keyed like the join (no motion); views off, the planner
// inserts the motion.
func (g *MPPGrounder) lower(plan engine.Node) mpp.Node {
	return mpp.Lower(plan, g.place, g.views, true)
}

// place maps a plan's base tables to their cluster copies: the master
// TΠ to the distributed facts table, an MLN partition table to its
// replicated copy. Anything else — a semi-naive Δ — is scattered by
// fact ID on the fly.
func (g *MPPGrounder) place(t *engine.Table) *mpp.DistTable {
	if t == g.tpi {
		return g.dT
	}
	if m, ok := g.repM[t]; ok {
		return m
	}
	return g.cluster.Distribute(t, []int{kb.TPiI})
}

// Load distributes the facts and MLN tables without grounding; the
// Figure 4 harness uses it to build standalone plans.
func (g *MPPGrounder) Load() error { return g.load() }

// AtomsPlan exposes the distributed groundAtoms plan for partition p; the
// Figure 4 harness uses it to print optimized vs unoptimized plans.
func (g *MPPGrounder) AtomsPlan(p int) mpp.Node {
	return g.lower(g.batch.atomsPlan(p, g.tpi, g.tpi))
}
