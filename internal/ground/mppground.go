package ground

import (
	"fmt"
	"slices"
	"time"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// The distribution keys of Section 4.4's redistributed views of TΠ,
// which cover every probe-side join of the body joins. The paper's
// fourth view, on (R, C1, x, C2, y), serves Query 2's head join; the
// factor phase looks heads up on the master instead, in the run's
// identity set (deltafactors.go).
var (
	keyRCC  = []int{kb.TPiR, kb.TPiC1, kb.TPiC2}
	keyRCxC = []int{kb.TPiR, kb.TPiC1, kb.TPiC2, kb.TPiX}
	keyRCCy = []int{kb.TPiR, kb.TPiC1, kb.TPiC2, kb.TPiY}
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
	// shipped is the fact-ID watermark of the cluster copies: they hold
	// the master rows with an ID below it, and the rows at or above it
	// are the next to ship. Unlike a row offset it survives a deletion.
	shipped int32
	// distributions counts the full distributions of TΠ; a run makes one,
	// at load.
	distributions int
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
// the cluster; with views enabled it also materializes the redistributed
// views.
func (g *MPPGrounder) load() error {
	if err := g.cluster.Err(); err != nil {
		return err
	}
	g.tpi, g.ix = loadFacts(g.batch.kb)
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

// redistribute distributes the master copy of TΠ and builds the views
// from it: the one full distribution of a run, at load. From then on the
// copies follow the master — factsChanged drops what a constraint pass
// deleted and appends what a merge added — and are never rebuilt.
func (g *MPPGrounder) redistribute() error {
	// The base table is distributed by fact ID — a fine key for storage
	// balance, but never a join key; the views (or motions) supply join
	// placement.
	g.distributions++
	g.dT = g.cluster.Distribute(g.tpi, []int{kb.TPiI})
	if err := g.dT.Err(); err != nil {
		return err
	}
	g.shipped = nextFactID(g.tpi)
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

// followDeletion drops from every cluster copy the shipped rows the
// master no longer holds: one bitmap of the IDs below the watermark
// that survive, then one order-preserving deletion per segment of the
// base table and of each view. IDs never repeat along a run, so an ID
// missing from the bitmap is a deleted fact's, and when the master holds
// as many shipped rows as the copies do, the pass deleted none of them.
func (g *MPPGrounder) followDeletion() error {
	ids := g.tpi.Int32Col(kb.TPiI)
	n, _ := slices.BinarySearch(ids, g.shipped)
	if n == g.dT.NumRows() {
		return nil
	}
	live := make([]uint64, (g.shipped+63)/64)
	for _, id := range ids[:n] {
		live[id>>6] |= 1 << (id & 63)
	}
	gone := func(id int32) bool { return live[id>>6]&(1<<(id&63)) == 0 }
	if err := g.dT.DeleteWhere(kb.TPiI, gone); err != nil {
		return err
	}
	if g.views != nil {
		return g.views.DeleteWhere(g.dT.Name(), kb.TPiI, gone)
	}
	return nil
}

// appendDelta ships the master rows at or above the watermark to the
// cluster copies and views (Algorithm 1 line 7). IDs grow with the row
// index, so they are a suffix of TΠ.
func (g *MPPGrounder) appendDelta() error {
	from, _ := slices.BinarySearch(g.tpi.Int32Col(kb.TPiI), g.shipped)
	if err := g.dT.AppendFrom(g.tpi, from); err != nil {
		return err
	}
	if g.views != nil {
		if err := g.views.AppendFrom(g.dT.Name(), g.tpi, from); err != nil {
			return err
		}
	}
	g.shipped = nextFactID(g.tpi)
	return nil
}

// Ground runs the distributed Algorithm 1: the batch grounder's closure
// and factor loop, with every plan lowered onto the cluster. The factor
// phase's body joins run there too; the head lookup that turns their
// rows into clauses runs on the master (deltafactors.go).
func (g *MPPGrounder) Ground() (*Result, error) {
	loadStart := time.Now()
	_, loadSpan := obs.StartSpan(g.batch.opts.ctxOf(), "ground.load")
	loadSpan.SetAttr("segments", g.cluster.NumSegments())
	loadSpan.SetAttr("views", g.useViews)
	err := g.load()
	loadSpan.End()
	if err != nil {
		return nil, fmt.Errorf("ground: mpp load: %w", err)
	}
	return g.batch.groundFrom(g, g.tpi, g.ix, 0, &Result{LoadTime: time.Since(loadStart)})
}

// run lowers a grounding plan onto the cluster, runs it and gathers the
// result. Candidate atoms are not deduplicated on the cluster — a
// distributed DISTINCT would cost a motion — so the merge does it.
func (g *MPPGrounder) run(phase string, plan engine.Node, capture bool) (*engine.Table, journal.QueryProfile, error) {
	dplan := g.lower(plan)
	out, err := dplan.Run()
	if err != nil {
		return nil, journal.QueryProfile{}, err
	}
	query := "mpp-atoms"
	if phase == "factors" {
		query = "mpp-factors"
	}
	engine.ObservePlan(query, dplan)
	prof := journal.QueryProfile{Query: query}
	if capture {
		prof.Plan = journal.Capture[mpp.Node](dplan)
	}
	return mpp.Gather(out), prof, nil
}

// factsChanged brings the cluster copies of TΠ up to the master: the
// rows a constraint pass deleted are dropped from them, and the rows the
// merge added are appended. The copies are never rebuilt: a deletion
// costs a scan of their ID columns and moving the rows after each
// deleted one, not a hash and copy of all of TΠ per copy. When nothing
// will read them again the maintenance is skipped.
func (g *MPPGrounder) factsChanged(st IterStats, feeds bool) error {
	if !feeds {
		return nil
	}
	if st.Deleted > 0 {
		if err := g.followDeletion(); err != nil {
			return err
		}
	}
	return g.appendDelta()
}

// atomsQueries states the Δ legs as hash joins, which the cluster runs
// as lowered. An MPP run is always fresh, so the factor phase plans no
// head leg, the one leg with no hash-join form.
func (g *MPPGrounder) atomsQueries(tpi, delta *engine.Table, _ *factIndex) []partPlan {
	return g.batch.atomsQueries(tpi, delta, nil)
}

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
