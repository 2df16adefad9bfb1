package sql

import (
	"context"
	"fmt"
	"math"

	"probkb/internal/engine"
	"probkb/internal/obs"
)

// DB executes SQL statements against an engine catalog. It holds
// settings only — tables and their statistics belong to the catalog —
// so any number of DBs, on any number of goroutines, may run SELECTs
// over one catalog.
type DB struct {
	cat      *engine.Catalog
	optimize bool
	workers  int
}

// NewDB wraps a catalog. The cost-based join-order optimizer is on by
// default; SetOptimize(false) forces syntactic join order and never asks
// the catalog for the table statistics the optimizer plans with.
func NewDB(cat *engine.Catalog) *DB { return &DB{cat: cat, optimize: true} }

// SetOptimize toggles the join-order optimizer (useful for plan
// comparisons and tests).
func (db *DB) SetOptimize(on bool) { db.optimize = on }

// SetWorkers sets the engine worker-pool size planned queries run with
// (engine.Opts.Workers): 0 means the engine default, 1 forces serial
// execution. Results are identical for every setting.
func (db *DB) SetWorkers(n int) { db.workers = n }

// Query parses, plans, and runs a SELECT; it returns the result table.
func (db *DB) Query(text string) (*engine.Table, error) {
	plan, err := db.Plan(text)
	if err != nil {
		return nil, err
	}
	return engine.Run(plan, "result")
}

// Plan parses and plans a SELECT without running it (for EXPLAIN).
func (db *DB) Plan(text string) (engine.Node, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if stmt.Select == nil {
		return nil, fmt.Errorf("sql: Plan requires a SELECT")
	}
	plan, err := db.planSelect(stmt.Select)
	if err != nil {
		return nil, err
	}
	engine.Configure(plan, engine.Opts{Workers: db.workers})
	return plan, nil
}

// Explain runs a SELECT and renders its annotated physical plan.
func (db *DB) Explain(text string) (string, error) {
	plan, err := db.Plan(text)
	if err != nil {
		return "", err
	}
	if _, err := plan.Run(); err != nil {
		return "", err
	}
	return engine.Explain(plan), nil
}

// QueryContext is Query with cancellation: the context's Err is
// consulted at every operator boundary, so a canceled context stops the
// plan before its next operator runs. If an active query rides the
// context (internal/obs), its rows-produced counter is fed as operators
// materialize.
func (db *DB) QueryContext(ctx context.Context, text string) (*engine.Table, error) {
	out, _, err := db.QueryAnalyzeContext(ctx, text)
	return out, err
}

// QueryAnalyzeContext runs a SELECT and returns the executed plan tree
// alongside the result, so callers can render EXPLAIN ANALYZE or
// journal the profiled plan of the query they just ran. On error the
// plan (possibly partially executed) is still returned when available.
func (db *DB) QueryAnalyzeContext(ctx context.Context, text string) (*engine.Table, engine.Node, error) {
	plan, err := db.Plan(text)
	if err != nil {
		return nil, nil, err
	}
	engine.Configure(plan, db.execOpts(ctx))
	out, err := engine.Run(plan, "result")
	if err != nil {
		return nil, plan, err
	}
	return out, plan, nil
}

// ExplainAnalyze runs a SELECT and renders its plan with the
// optimizer's cardinality estimates next to the actuals the run
// collected (engine.ExplainAnalyze).
func (db *DB) ExplainAnalyze(ctx context.Context, text string) (string, error) {
	_, plan, err := db.QueryAnalyzeContext(ctx, text)
	if err != nil {
		return "", err
	}
	return engine.ExplainAnalyze(plan), nil
}

// execOpts builds the engine execution options for a context-carrying
// run: the configured worker count, cancellation wired to the context,
// and the active query's rows-produced feed when one rides the context.
func (db *DB) execOpts(ctx context.Context) engine.Opts {
	o := engine.Opts{Workers: db.workers}
	if ctx == nil {
		return o
	}
	o.Cancel = ctx.Err
	if aq := obs.QueryFrom(ctx); aq != nil {
		o.OnRows = aq.AddRows
	}
	return o
}

// Exec runs a DELETE and reports how many rows it removed. A frozen
// catalog is shared with readers who were promised immutable tables, so
// Exec refuses it.
func (db *DB) Exec(text string) (int, error) {
	if db.cat.Frozen() {
		return 0, fmt.Errorf("sql: the catalog is read-only")
	}
	stmt, err := Parse(text)
	if err != nil {
		return 0, err
	}
	if stmt.Delete == nil {
		return 0, fmt.Errorf("sql: Exec requires a DELETE")
	}
	t, n, err := db.execDelete(stmt.Delete)
	if n > 0 {
		db.cat.Put(t) // a fresh entry: the statistics described the rows just deleted
	}
	return n, err
}

// ---------------------------------------------------------------------------
// Scope: column resolution over a physical layout

// scopeCol describes one physical column of the current intermediate
// result.
type scopeCol struct {
	binding string // table binding the column came from
	name    string
	typ     engine.ColType
}

type scope struct {
	cols []scopeCol
}

// resolve finds a reference's physical column index.
func (s *scope) resolve(ref ColRef) (int, error) {
	found := -1
	for i, c := range s.cols {
		if c.name != ref.Col {
			continue
		}
		if ref.Table != "" && c.binding != ref.Table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column reference %s", ref)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", ref)
	}
	return found, nil
}

// has reports whether the reference resolves in this scope.
func (s *scope) has(ref ColRef) bool {
	_, err := s.resolve(ref)
	return err == nil
}

// scopeOf builds the scope of a base table under a binding.
func scopeOf(binding string, t *engine.Table) *scope {
	sc := &scope{}
	for _, c := range t.Schema().Cols {
		sc.cols = append(sc.cols, scopeCol{binding: binding, name: c.Name, typ: c.Type})
	}
	return sc
}

// ---------------------------------------------------------------------------
// SELECT planning

func (db *DB) planSelect(s *SelectStmt) (engine.Node, error) {
	// Pool every conjunct; each is applied at the earliest join step
	// where it resolves (standard inner-join pushdown).
	var pool []Condition
	for _, j := range s.Joins {
		pool = append(pool, j.On...)
	}
	pool = append(pool, s.Where...)
	used := make([]bool, len(pool))

	// Resolve every source and pick the join order.
	allRefs := append([]TableRef{s.From}, make([]TableRef, 0, len(s.Joins))...)
	for _, j := range s.Joins {
		allRefs = append(allRefs, j.Table)
	}
	seen := map[string]bool{}
	infos := make([]refInfo, 0, len(allRefs))
	for _, ref := range allRefs {
		b := ref.Binding()
		if seen[b] {
			return nil, fmt.Errorf("sql: duplicate table binding %q", b)
		}
		seen[b] = true
		t, err := db.cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		info := refInfo{ref: ref, table: t}
		if db.optimize {
			// ANALYZE costs a pass over the table (the first time the
			// catalog is asked), which only the cost model justifies.
			// Without statistics the estimator below falls back to its
			// defaults: filters keep 1/3, a join the smaller input.
			if info.stats, err = db.cat.Stats(ref.Name); err != nil {
				return nil, err
			}
			info.card = filteredCard(t, info.stats, b, pool)
		}
		infos = append(infos, info)
	}
	var order []int
	if db.optimize {
		order = db.chooseJoinOrder(infos, pool)
	} else {
		order = make([]int, len(infos))
		for i := range order {
			order[i] = i
		}
	}

	// Estimate threading: est tracks the optimizer's running cardinality
	// guess for the node most recently built, and every node is stamped
	// with it so EXPLAIN ANALYZE can show estimates next to actuals. The
	// scan estimate is the raw table cardinality — filters are separate
	// physical nodes here, so the honest per-node estimate applies their
	// selectivity at the Filter, not the Scan.
	em := newEstimator(infos)

	first := infos[order[0]]
	var plan engine.Node = engine.NewScan(first.table)
	sc := scopeOf(first.ref.Binding(), first.table)
	est := stamp(plan, float64(first.table.NumRows()))

	applyFilters := func(plan engine.Node, sc *scope) (engine.Node, error) {
		for i, c := range pool {
			if used[i] {
				continue
			}
			if !condResolves(c, sc) {
				continue
			}
			f, err := newFilter(plan, c.String(), c, sc)
			if err != nil {
				return nil, err
			}
			plan = f
			est = stamp(plan, est*em.condSelectivity(c, sc))
			used[i] = true
		}
		return plan, nil
	}

	var err error
	// Join the remaining tables in the chosen order.
	for _, oi := range order[1:] {
		info := infos[oi]
		b := info.ref.Binding()
		t := info.table
		tScope := scopeOf(b, t)

		// Split the pool: equality conjuncts bridging current scope and
		// the new table become hash keys.
		var buildKeys, probeKeys []int
		for i, c := range pool {
			if used[i] || c.Op != "=" || c.Left.isLiteral() || c.Right.isLiteral() ||
				c.Left.Agg != aggNone || c.Right.Agg != aggNone || c.IsNull || c.NotNul {
				continue
			}
			var cur, next ColRef
			switch {
			case sc.has(c.Left.Col) && tScope.has(c.Right.Col):
				cur, next = c.Left.Col, c.Right.Col
			case sc.has(c.Right.Col) && tScope.has(c.Left.Col):
				cur, next = c.Right.Col, c.Left.Col
			default:
				continue
			}
			bi, err := sc.resolve(cur)
			if err != nil {
				return nil, err
			}
			pi, err := tScope.resolve(next)
			if err != nil {
				return nil, err
			}
			if sc.cols[bi].typ != engine.Int32 || tScope.cols[pi].typ != engine.Int32 {
				continue // only int columns hash; leave as a post-filter
			}
			buildKeys = append(buildKeys, bi)
			probeKeys = append(probeKeys, pi)
			used[i] = true
		}

		// Output layout: all current columns then all new columns, named
		// by binding to stay unambiguous.
		var outs []engine.JoinOut
		newScope := &scope{}
		for i, c := range sc.cols {
			outs = append(outs, engine.BuildCol(c.binding+"."+c.name, i))
			newScope.cols = append(newScope.cols, c)
		}
		for i, c := range tScope.cols {
			outs = append(outs, engine.ProbeCol(c.binding+"."+c.name, i))
			newScope.cols = append(newScope.cols, c)
		}
		desc := engine.JoinDesc("build", plan.OutSchema(), buildKeys, b, t.Schema(), probeKeys)
		probe := engine.NewScan(t)
		rawRight := stamp(probe, float64(t.NumRows()))
		sel := em.joinSelectivity(sc, buildKeys, tScope, probeKeys, est, rawRight)
		plan = engine.NewHashJoin(plan, probe, buildKeys, probeKeys, outs, desc)
		est = stamp(plan, est*rawRight*sel)
		sc = newScope

		// Apply every newly-resolvable conjunct.
		if plan, err = applyFilters(plan, sc); err != nil {
			return nil, err
		}
	}
	// Base-table-only filters (single-table query).
	if plan, err = applyFilters(plan, sc); err != nil {
		return nil, err
	}
	for i, c := range pool {
		if !used[i] {
			return nil, fmt.Errorf("sql: condition %s does not resolve against the FROM tables", c)
		}
	}

	// Aggregation.
	hasAgg := len(s.GroupBy) > 0
	for _, it := range s.Items {
		if it.Expr.Agg != aggNone {
			hasAgg = true
		}
	}
	for _, h := range s.Having {
		if h.Left.Agg != aggNone || h.Right.Agg != aggNone {
			hasAgg = true
		}
	}
	if hasAgg {
		plan, sc, est, err = db.planAggregate(plan, sc, s, em, est)
		if err != nil {
			return nil, err
		}
	} else if len(s.Having) > 0 {
		return nil, fmt.Errorf("sql: HAVING without aggregation")
	}

	// Final projection. projCols remembers which scope column each output
	// column reads, so DISTINCT below can estimate via base-table
	// distincts; non-column outputs get a zero scopeCol (no stats).
	var exprs []engine.OutExpr
	var projCols []scopeCol
	for _, it := range s.Items {
		name := it.OutName()
		e := it.Expr
		switch {
		case e.IsNull:
			exprs = append(exprs, engine.NullF64Expr(name))
			projCols = append(projCols, scopeCol{})
		case e.IsNumber:
			exprs = append(exprs, engine.ConstF64Expr(name, e.Number))
			projCols = append(projCols, scopeCol{})
		case e.IsString:
			exprs = append(exprs, engine.OutExpr{Name: name, Type: engine.String, Col: -1, Str: e.Str})
			projCols = append(projCols, scopeCol{})
		default:
			ref := e.Col
			if e.Agg != aggNone {
				ref = ColRef{Col: aggColName(e)}
			}
			idx, err := sc.resolve(ref)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, engine.ColExpr(name, idx))
			projCols = append(projCols, sc.cols[idx])
		}
	}
	plan = engine.NewProject(plan, exprs...)
	est = stamp(plan, est)

	if s.Distinct {
		keys := make([]int, 0, len(s.Items))
		for i, cd := range plan.OutSchema().Cols {
			if cd.Type != engine.Int32 {
				return nil, fmt.Errorf("sql: DISTINCT requires integer output columns (column %s is %s)", cd.Name, cd.Type)
			}
			keys = append(keys, i)
		}
		plan = engine.NewDistinct(plan, keys)
		// Distinct output ≈ product of the key columns' base distinct
		// counts, capped by the input cardinality.
		groups := 1.0
		for _, pc := range projCols {
			_, d, _, ok := em.colStats(pc)
			if !ok {
				d = est
			}
			groups *= capDistinct(d, est)
			if groups >= est {
				groups = est
				break
			}
		}
		est = stamp(plan, groups)
	}

	// ORDER BY resolves against the output column names.
	if len(s.OrderBy) > 0 {
		outSchema := plan.OutSchema()
		keys := make([]engine.SortKey, 0, len(s.OrderBy))
		for _, o := range s.OrderBy {
			if o.Col.Table != "" {
				return nil, fmt.Errorf("sql: ORDER BY uses output column names, not %s", o.Col)
			}
			idx := outSchema.ColIndex(o.Col.Col)
			if idx < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %s is not in the select list", o.Col)
			}
			keys = append(keys, engine.SortKey{Col: idx, Desc: o.Desc})
		}
		plan = engine.NewSort(plan, keys...)
		stamp(plan, est)
	}
	if s.Limit >= 0 {
		plan = engine.NewLimit(plan, s.Limit)
		stamp(plan, math.Min(float64(s.Limit), est))
	}
	return plan, nil
}

// aggColName is the internal column name an aggregate materializes as.
func aggColName(e Expr) string { return "#" + e.String() }

// planAggregate plans GROUP BY / HAVING, returning the new plan, a
// scope over (group keys..., aggregates...), and the updated
// cardinality estimate.
func (db *DB) planAggregate(plan engine.Node, sc *scope, s *SelectStmt, em *estimator, est float64) (engine.Node, *scope, float64, error) {
	// Collect the distinct aggregates from the select list and HAVING.
	var aggExprs []Expr
	addAgg := func(e Expr) {
		if e.Agg == aggNone {
			return
		}
		for _, a := range aggExprs {
			if a.Agg == e.Agg && a.Col == e.Col {
				return
			}
		}
		aggExprs = append(aggExprs, e)
	}
	for _, it := range s.Items {
		addAgg(it.Expr)
	}
	for _, h := range s.Having {
		addAgg(h.Left)
		addAgg(h.Right)
	}

	keys := make([]int, 0, len(s.GroupBy))
	newScope := &scope{}
	for _, g := range s.GroupBy {
		idx, err := sc.resolve(g)
		if err != nil {
			return nil, nil, 0, err
		}
		keys = append(keys, idx)
		newScope.cols = append(newScope.cols, sc.cols[idx])
	}

	specs := make([]engine.AggSpec, 0, len(aggExprs))
	for _, e := range aggExprs {
		spec := engine.AggSpec{Name: aggColName(e)}
		switch e.Agg {
		case aggCount:
			spec.Kind = engine.AggCount
		case aggCountDistinct:
			spec.Kind = engine.AggCountDistinct
		case aggMin:
			spec.Kind = engine.AggMinF64
		case aggMax:
			spec.Kind = engine.AggMaxF64
		case aggSum:
			spec.Kind = engine.AggSumF64
		}
		if e.Agg != aggCount {
			idx, err := sc.resolve(e.Col)
			if err != nil {
				return nil, nil, 0, err
			}
			if e.Agg == aggCountDistinct && sc.cols[idx].typ != engine.Int32 {
				return nil, nil, 0, fmt.Errorf("sql: COUNT(DISTINCT) requires an integer column")
			}
			if e.Agg != aggCountDistinct && sc.cols[idx].typ != engine.Float64 {
				return nil, nil, 0, fmt.Errorf("sql: %s requires a float column", e)
			}
			spec.Col = idx
		}
		specs = append(specs, spec)
		typ := engine.Int32
		if e.Agg == aggMin || e.Agg == aggMax || e.Agg == aggSum {
			typ = engine.Float64
		}
		newScope.cols = append(newScope.cols, scopeCol{name: aggColName(e), typ: typ})
	}

	plan = engine.NewGroupBy(plan, keys, specs)
	// Group count ≈ product of key-column distincts, capped by the input
	// estimate (keys resolve against the pre-aggregation scope).
	est = stamp(plan, em.groupCard(sc, keys, est))
	sc = newScope

	// HAVING over the aggregate scope: rewrite aggregate expressions to
	// their materialized columns.
	for _, h := range s.Having {
		hh := h
		if hh.Left.Agg != aggNone {
			hh.Left = Expr{Col: ColRef{Col: aggColName(hh.Left)}}
		}
		if hh.Right.Agg != aggNone {
			hh.Right = Expr{Col: ColRef{Col: aggColName(hh.Right)}}
		}
		var err error
		if plan, err = newFilter(plan, h.String(), hh, sc); err != nil {
			return nil, nil, 0, err
		}
		est = stamp(plan, est*defaultSel)
	}
	return plan, sc, est, nil
}

// condResolves reports whether every column the condition mentions is in
// scope.
func condResolves(c Condition, sc *scope) bool {
	check := func(e Expr) bool {
		if e.isLiteral() || e.Agg != aggNone {
			return e.Agg == aggNone // aggregates never resolve pre-grouping
		}
		return sc.has(e.Col)
	}
	if c.IsNull || c.NotNul {
		return check(c.Left)
	}
	return check(c.Left) && check(c.Right)
}

// newFilter plans condition c, which resolves in sc, over plan. An INT
// column compared to an integer literal — every point select on a fact
// or dictionary ID — becomes the engine's typed filter; anything else
// goes through the general predicate. The label is the same either way.
func newFilter(plan engine.Node, desc string, c Condition, sc *scope) (engine.Node, error) {
	if col, op, lit, ok := int32Comparison(c, sc); ok {
		return engine.NewFilterInt32(plan, desc, col, op, lit), nil
	}
	pred, err := compileCondition(c, sc)
	if err != nil {
		return nil, err
	}
	return engine.NewFilter(plan, desc, pred), nil
}

// cmpOps maps a comparison to the engine's operator and to the operator
// with its operands swapped (literal on the left).
var cmpOps = map[CmpOp][2]engine.CmpOp{
	"=":  {engine.CmpEq, engine.CmpEq},
	"<>": {engine.CmpNe, engine.CmpNe},
	"<":  {engine.CmpLt, engine.CmpGt},
	"<=": {engine.CmpLe, engine.CmpGe},
	">":  {engine.CmpGt, engine.CmpLt},
	">=": {engine.CmpGe, engine.CmpLe},
}

// int32Comparison recognizes `<INT column> <op> <integer literal>`, in
// either operand order, as (column index, operator, literal). The
// literal must be an integer an INT cell can hold and not the NULL
// sentinel; 1.5, 1e12 and the rest compare as float64 like before.
func int32Comparison(c Condition, sc *scope) (col int, op engine.CmpOp, lit int32, ok bool) {
	ops, known := cmpOps[c.Op]
	if !known || c.IsNull || c.NotNul {
		return 0, 0, 0, false
	}
	colExpr, litExpr, swapped := c.Left, c.Right, 0
	if colExpr.IsNumber {
		colExpr, litExpr, swapped = c.Right, c.Left, 1
	}
	if !litExpr.IsNumber || colExpr.isLiteral() || colExpr.Agg != aggNone {
		return 0, 0, 0, false
	}
	v := litExpr.Number
	if v != math.Trunc(v) || v <= math.MinInt32 || v > math.MaxInt32 {
		return 0, 0, 0, false
	}
	idx, err := sc.resolve(colExpr.Col)
	if err != nil || sc.cols[idx].typ != engine.Int32 {
		return 0, 0, 0, false
	}
	return idx, ops[swapped], int32(v), true
}

// compileCondition builds the filter predicate for a resolvable condition.
func compileCondition(c Condition, sc *scope) (func(t *engine.Table, row int) bool, error) {
	if c.IsNull || c.NotNul {
		get, typ, err := compileValue(c.Left, sc)
		if err != nil {
			return nil, err
		}
		wantNull := c.IsNull
		return func(t *engine.Table, row int) bool {
			_, isNull := get(t, row)
			_ = typ
			return isNull == wantNull
		}, nil
	}

	// String equality is supported; everything else compares as float64.
	if isStringOperand(c.Left, sc) || isStringOperand(c.Right, sc) {
		if c.Op != "=" && c.Op != "<>" {
			return nil, fmt.Errorf("sql: strings support only = and <>: %s", c)
		}
		ls, err := compileString(c.Left, sc)
		if err != nil {
			return nil, err
		}
		rs, err := compileString(c.Right, sc)
		if err != nil {
			return nil, err
		}
		eq := c.Op == "="
		return func(t *engine.Table, row int) bool {
			return (ls(t, row) == rs(t, row)) == eq
		}, nil
	}

	lv, _, err := compileValue(c.Left, sc)
	if err != nil {
		return nil, err
	}
	rv, _, err := compileValue(c.Right, sc)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(t *engine.Table, row int) bool {
		a, an := lv(t, row)
		b, bn := rv(t, row)
		if an || bn {
			return false // SQL three-valued logic: NULL comparisons are not true
		}
		switch op {
		case "=":
			return a == b
		case "<>":
			return a != b
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		case ">=":
			return a >= b
		}
		return false
	}, nil
}

// compileValue builds a numeric accessor returning (value, isNull).
func compileValue(e Expr, sc *scope) (func(t *engine.Table, row int) (float64, bool), engine.ColType, error) {
	switch {
	case e.IsNumber:
		v := e.Number
		return func(*engine.Table, int) (float64, bool) { return v, false }, engine.Float64, nil
	case e.IsNull:
		return func(*engine.Table, int) (float64, bool) { return math.NaN(), true }, engine.Float64, nil
	case e.IsString:
		return nil, 0, fmt.Errorf("sql: string literal in numeric comparison")
	}
	idx, err := sc.resolve(e.Col)
	if err != nil {
		return nil, 0, err
	}
	switch sc.cols[idx].typ {
	case engine.Int32:
		return func(t *engine.Table, row int) (float64, bool) {
			v := t.Int32Col(idx)[row]
			return float64(v), v == engine.NullInt32
		}, engine.Int32, nil
	case engine.Float64:
		return func(t *engine.Table, row int) (float64, bool) {
			v := t.Float64Col(idx)[row]
			return v, engine.IsNullFloat64(v)
		}, engine.Float64, nil
	default:
		return nil, 0, fmt.Errorf("sql: column %s is not numeric", e.Col)
	}
}

func isStringOperand(e Expr, sc *scope) bool {
	if e.IsString {
		return true
	}
	if e.isLiteral() || e.Agg != aggNone {
		return false
	}
	idx, err := sc.resolve(e.Col)
	return err == nil && sc.cols[idx].typ == engine.String
}

func compileString(e Expr, sc *scope) (func(t *engine.Table, row int) string, error) {
	if e.IsString {
		s := e.Str
		return func(*engine.Table, int) string { return s }, nil
	}
	idx, err := sc.resolve(e.Col)
	if err != nil {
		return nil, err
	}
	if sc.cols[idx].typ != engine.String {
		return nil, fmt.Errorf("sql: column %s is not text", e.Col)
	}
	return func(t *engine.Table, row int) string { return t.StringCol(idx)[row] }, nil
}

// ---------------------------------------------------------------------------
// DELETE

func (db *DB) execDelete(d *DeleteStmt) (*engine.Table, int, error) {
	t, err := db.cat.Get(d.Table.Name)
	if err != nil {
		return nil, 0, err
	}
	sc := scopeOf(d.Table.Binding(), t)

	if d.InSelect != nil {
		sub, err := db.planSelect(d.InSelect)
		if err != nil {
			return nil, 0, err
		}
		result, err := engine.Run(sub, "in_subquery")
		if err != nil {
			return nil, 0, err
		}
		// Match columns must all be Int32 on both sides.
		outerCols := make([]int, len(d.InCols))
		subCols := make([]int, len(d.InCols))
		for i, ref := range d.InCols {
			idx, err := sc.resolve(ref)
			if err != nil {
				return nil, 0, err
			}
			if sc.cols[idx].typ != engine.Int32 {
				return nil, 0, fmt.Errorf("sql: IN requires integer columns (%s)", ref)
			}
			outerCols[i] = idx
			if result.Schema().Cols[i].Type != engine.Int32 {
				return nil, 0, fmt.Errorf("sql: IN subquery column %d is not integer", i)
			}
			subCols[i] = i
		}
		set := engine.NewRowSet(result, subCols)
		return t, t.DeleteWhere(func(row int) bool {
			return set.Contains(t, row, outerCols)
		}), nil
	}

	preds := make([]func(*engine.Table, int) bool, 0, len(d.Where))
	for _, c := range d.Where {
		p, err := compileCondition(c, sc)
		if err != nil {
			return nil, 0, err
		}
		preds = append(preds, p)
	}
	return t, t.DeleteWhere(func(row int) bool {
		for _, p := range preds {
			if !p(t, row) {
				return false
			}
		}
		return true
	}), nil
}
