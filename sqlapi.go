package probkb

import (
	"context"
	"fmt"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/obs/journal"
	"probkb/internal/sql"
)

// sqlDB is the single-node SQL executor over the KB's relational image
// (kb.Catalog): the Section 4.2 tables T (facts), TC (class membership),
// TR (relation signatures), FC (functional constraints), M1..M6 (MLN
// partitions) and DE/DC/DR (dictionaries), each materialized — and
// ANALYZEd — on first reference and then shared by every query until
// the KB next changes. The DB itself is three words of settings.
func (k *KB) sqlDB() *sql.DB { return sql.NewDB(k.inner.Catalog()) }

// QueryResult is a SQL result rendered for display.
type QueryResult struct {
	Columns []string
	Rows    [][]string
}

// QuerySQL runs a SELECT against the KB's relational representation
// (Section 4.2 of the paper): tables T, TC, TR, FC, M1..M6, DE, DC, DR.
// The paper's grounding queries run verbatim. The tables are built once
// per KB state, on first reference, and kept until the KB is next
// mutated, so a stream of queries over a served generation pays for
// planning and execution only — for a point select on T, one scan of
// its rows. Results render as strings. The relational image is
// read-only: anything but a SELECT is an error.
func (k *KB) QuerySQL(query string) (*QueryResult, error) {
	return k.QuerySQLContext(context.Background(), query)
}

// QuerySQLContext is QuerySQL with cancellation: the context is
// consulted at every operator boundary, and a cancelled query returns a
// *PartialError with Phase "sql" (Partial nil) that unwraps to the
// context error — the same contract ExpandContext honors.
func (k *KB) QuerySQLContext(ctx context.Context, query string) (*QueryResult, error) {
	res, _, _, err := k.QuerySQLAnalyze(ctx, query)
	return res, err
}

// QuerySQLAnalyze runs a SELECT and also returns its EXPLAIN ANALYZE
// rendering (estimates next to actuals) and the captured plan tree in
// journal form, for /sql?analyze=1 responses and slow-query records.
func (k *KB) QuerySQLAnalyze(ctx context.Context, query string) (*QueryResult, string, *journal.PlanNode, error) {
	out, plan, err := k.sqlDB().QueryAnalyzeContext(ctx, query)
	if err != nil {
		return nil, "", nil, wrapSQLErr(err)
	}
	text := engine.ExplainAnalyze(plan)
	pn := journal.Capture(plan)
	return renderResult(out), text, &pn, nil
}

// wrapSQLErr turns a context cancellation surfaced by a query into the
// PartialError contract; other errors pass through.
func wrapSQLErr(err error) error {
	if isCtxErr(err) {
		return &PartialError{Phase: "sql", Err: err}
	}
	return err
}

// renderResult renders an engine table as display strings.
func renderResult(out *engine.Table) *QueryResult {
	res := &QueryResult{}
	for _, c := range out.Schema().Cols {
		res.Columns = append(res.Columns, c.Name)
	}
	for r := 0; r < out.NumRows(); r++ {
		row := make([]string, len(res.Columns))
		for c := range res.Columns {
			row[c] = out.ValueString(r, c)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// QueryDistSQL runs a SELECT as a distributed plan over a simulated
// MPP cluster with the given number of segments (0 means 4). The facts
// table T is hash-distributed by its fact identifier; every other
// table is replicated. Planning is strictly motion-free, so a join
// whose inputs are not collocated returns an error instead of shipping
// rows — and, since the MPP layer defers construction-time violations
// to execution, instead of panicking.
func (k *KB) QueryDistSQL(query string, segments int) (*QueryResult, error) {
	return k.QueryDistSQLContext(context.Background(), query, segments)
}

// QueryDistSQLContext is QueryDistSQL with cancellation; like
// QuerySQLContext, a cancelled run returns a *PartialError with Phase
// "sql". The cluster is per-request, so installing the context on it is
// safe.
func (k *KB) QueryDistSQLContext(ctx context.Context, query string, segments int) (*QueryResult, error) {
	res, _, _, err := k.QueryDistSQLAnalyze(ctx, query, segments)
	return res, err
}

// QueryDistSQLAnalyze is QuerySQLAnalyze for distributed plans: the
// rendering includes per-segment row counts, motion volumes, and
// segment-task retries.
func (k *KB) QueryDistSQLAnalyze(ctx context.Context, query string, segments int) (*QueryResult, string, *journal.PlanNode, error) {
	if segments <= 0 {
		segments = 4
	}
	cluster := mpp.NewCluster(segments)
	db := sql.NewDistDB(k.inner.Catalog(), cluster, map[string][]int{"T": {kb.TPiI}})
	out, plan, err := db.QueryAnalyzeContext(ctx, query)
	if err != nil {
		return nil, "", nil, wrapSQLErr(err)
	}
	text := mpp.ExplainAnalyze(plan)
	pn := journal.Capture(plan)
	return renderResult(out), text, &pn, nil
}

// ExplainSQL plans and runs a SELECT against the same relational image
// QuerySQL reads, returning the annotated physical plan (operator tree
// with per-node rows and self time). It costs what the query costs: the
// annotations are actuals.
func (k *KB) ExplainSQL(query string) (string, error) {
	return k.sqlDB().Explain(query)
}

// ExplainAnalyzeSQL runs a SELECT and returns its EXPLAIN ANALYZE
// rendering: actual rows, time, and memory per operator, with the
// optimizer's cardinality estimate (and how far off it was) alongside.
func (k *KB) ExplainAnalyzeSQL(ctx context.Context, query string) (string, error) {
	_, text, _, err := k.QuerySQLAnalyze(ctx, query)
	return text, err
}

// String renders a result as an aligned table.
func (r *QueryResult) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, v := range row {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b []byte
	appendRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b = append(b, ' ', '|', ' ')
			}
			b = append(b, fmt.Sprintf("%-*s", widths[i], v)...)
		}
		b = append(b, '\n')
	}
	appendRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	appendRow(sep)
	for _, row := range r.Rows {
		appendRow(row)
	}
	return string(b)
}
