package sql

import (
	"context"

	"probkb/internal/engine"
	"probkb/internal/mpp"
)

// DistDB executes SELECTs as distributed plans over a simulated MPP
// cluster. A statement is planned once, by the single-node planner, and
// lowered onto the cluster by mpp.Lower in its *motion-free* mode: base
// tables stay where the distribution spec placed them and no
// redistribution is ever inserted, so a join or aggregation whose
// inputs are not collocated — and any clause that cannot run
// segment-local (ORDER BY, LIMIT) — surfaces an error at execution
// time. It does not crash, and it does not silently ship rows. That
// makes DistDB the ad-hoc-query mirror of the paper's collocation
// discipline: dimension tables are replicated, the big fact table is
// hash-distributed, and every join must be local.
type DistDB struct {
	cluster *mpp.Cluster
	planner *DB
	hashed  map[string][]int
	tables  map[*engine.Table]*mpp.DistTable
}

// NewDistDB plans over cat and places its tables on the cluster. Tables
// with an entry in hashed are hash-distributed by those column indexes;
// all others are replicated (the dimension-table default). A table is
// placed when a statement first scans it, so a query pays to load only
// the tables it names.
func NewDistDB(cat *engine.Catalog, cluster *mpp.Cluster, hashed map[string][]int) *DistDB {
	// Joins run in the order written, so which of them are collocated
	// follows from the statement alone, and planning never pays an
	// ANALYZE pass over the tables: estimates are the planner's defaults.
	planner := NewDB(cat)
	planner.SetOptimize(false)
	return &DistDB{cluster: cluster, planner: planner, hashed: hashed, tables: map[*engine.Table]*mpp.DistTable{}}
}

// place returns t's copy on the cluster, loading it on first use.
func (db *DistDB) place(t *engine.Table) *mpp.DistTable {
	d, ok := db.tables[t]
	if !ok {
		if key, hash := db.hashed[t.Name()]; hash {
			d = db.cluster.Distribute(t, key)
		} else {
			d = db.cluster.Replicate(t)
		}
		db.tables[t] = d
	}
	return d
}

// Query parses, plans, and runs a SELECT as a distributed plan, then
// gathers the per-segment results into one table.
func (db *DistDB) Query(text string) (*engine.Table, error) {
	return db.QueryContext(context.Background(), text)
}

// QueryContext is Query with cancellation: the context is installed on
// the cluster for the duration of the run, so segment tasks stop at
// their next boundary when it is canceled. The DistDB must own its
// cluster (the per-request construction in the probkb API does).
func (db *DistDB) QueryContext(ctx context.Context, text string) (*engine.Table, error) {
	out, _, err := db.QueryAnalyzeContext(ctx, text)
	return out, err
}

// QueryAnalyzeContext runs the query and also returns the executed
// distributed plan tree, for mpp.ExplainAnalyze rendering and plan
// journaling. On execution error the plan is still returned.
func (db *DistDB) QueryAnalyzeContext(ctx context.Context, text string) (*engine.Table, mpp.Node, error) {
	logical, err := db.planner.Plan(text)
	if err != nil {
		return nil, nil, err
	}
	plan := mpp.Lower(logical, db.place, nil, false)
	if ctx != nil {
		db.cluster.SetContext(ctx)
	}
	out, err := plan.Run()
	if err != nil {
		return nil, plan, err
	}
	res := mpp.Gather(out)
	res.SetName("result")
	return res, plan, nil
}

// ExplainAnalyze runs a distributed SELECT and renders its plan with
// estimates next to actuals (per-segment rows and motion volumes
// included).
func (db *DistDB) ExplainAnalyze(ctx context.Context, text string) (string, error) {
	_, plan, err := db.QueryAnalyzeContext(ctx, text)
	if err != nil {
		return "", err
	}
	return mpp.ExplainAnalyze(plan), nil
}
