package sql

import (
	"math"

	"probkb/internal/engine"
)

// Per-operator cardinality estimation for EXPLAIN ANALYZE. The planner
// threads a running estimate through the physical tree it builds —
// scans carry raw table cardinality, filters multiply per-condition
// selectivities, joins apply the same distinct-value model the
// join-order optimizer costs with — and stamps each node via
// engine.SetEstRows, so ExplainAnalyze can put the optimizer's guess
// next to what the operator actually produced. Scope columns keep their
// base-table binding through arbitrarily deep join chains, which is
// what lets a filter applied three joins in still look up the distinct
// count of its base column.

// estimator resolves scope columns back to base-table statistics.
type estimator struct {
	infos map[string]refInfo // by binding
}

func newEstimator(infos []refInfo) *estimator {
	e := &estimator{infos: make(map[string]refInfo, len(infos))}
	for _, in := range infos {
		e.infos[in.ref.Binding()] = in
	}
	return e
}

// colStats resolves one scope column to (base rows, distinct, nulls);
// ok is false for columns that no longer map to a base table (aggregate
// outputs, constants) and when the planner gathered no statistics.
func (e *estimator) colStats(c scopeCol) (rows, distinct, nulls float64, ok bool) {
	info, found := e.infos[c.binding]
	if !found || info.stats == nil {
		return 0, 0, 0, false
	}
	idx := colIndexIn(info.table, c.name)
	if idx < 0 {
		return 0, 0, 0, false
	}
	st := info.stats
	return float64(st.Rows), float64(st.DistinctOf(idx)), float64(st.Cols[idx].Nulls), true
}

// defaultSel is the selectivity assumed for conditions the model cannot
// resolve (range predicates, unresolvable columns) — the textbook 1/3.
const defaultSel = 1.0 / 3.0

// condSelectivity estimates the fraction of rows a filter condition
// keeps.
func (e *estimator) condSelectivity(c Condition, sc *scope) float64 {
	// IS NULL / IS NOT NULL use the base column's null fraction.
	if c.IsNull || c.NotNul {
		if c.Left.isLiteral() || c.Left.Agg != aggNone {
			return defaultSel
		}
		idx, err := sc.resolve(c.Left.Col)
		if err != nil {
			return defaultSel
		}
		rows, _, nulls, ok := e.colStats(sc.cols[idx])
		if !ok || rows <= 0 {
			return defaultSel
		}
		frac := nulls / rows
		if c.NotNul {
			frac = 1 - frac
		}
		return clampSel(frac)
	}
	if c.Op != "=" {
		return defaultSel
	}
	// col = literal: 1/distinct of the column.
	lv, rv := c.Left, c.Right
	if rv.isLiteral() != lv.isLiteral() {
		col := lv
		if lv.isLiteral() {
			col = rv
		}
		if col.Agg != aggNone {
			return defaultSel
		}
		if idx, err := sc.resolve(col.Col); err == nil {
			if _, d, _, ok := e.colStats(sc.cols[idx]); ok && d >= 1 {
				return clampSel(1 / d)
			}
		}
		return defaultSel
	}
	// col = col (residual equality): 1/max of the distinct counts.
	if lv.isLiteral() || rv.isLiteral() || lv.Agg != aggNone || rv.Agg != aggNone {
		return defaultSel
	}
	li, lerr := sc.resolve(lv.Col)
	ri, rerr := sc.resolve(rv.Col)
	if lerr != nil || rerr != nil {
		return defaultSel
	}
	_, ld, _, lok := e.colStats(sc.cols[li])
	_, rd, _, rok := e.colStats(sc.cols[ri])
	if !lok || !rok {
		return defaultSel
	}
	return clampSel(1 / math.Max(ld, rd))
}

// joinSelectivity estimates the selectivity of the hash-join equality
// tuple: Π 1/max(d_build(col), d_probe(col)), each distinct count
// capped by its side's cardinality — the same distinct-value model
// chooseJoinOrder costs with.
func (e *estimator) joinSelectivity(sc *scope, buildKeys []int, tScope *scope, probeKeys []int, leftCard, rightCard float64) float64 {
	sel := 1.0
	for k := range buildKeys {
		_, db, _, bok := e.colStats(sc.cols[buildKeys[k]])
		_, dp, _, pok := e.colStats(tScope.cols[probeKeys[k]])
		if !bok {
			db = leftCard
		}
		if !pok {
			dp = rightCard
		}
		db = capDistinct(db, leftCard)
		dp = capDistinct(dp, rightCard)
		sel /= math.Max(db, dp)
	}
	return sel
}

// groupCard estimates the group count of an aggregation: the product of
// the key columns' distinct counts, capped by the input cardinality.
func (e *estimator) groupCard(sc *scope, keys []int, inCard float64) float64 {
	if len(keys) == 0 {
		return 1
	}
	groups := 1.0
	for _, k := range keys {
		_, d, _, ok := e.colStats(sc.cols[k])
		if !ok {
			d = inCard
		}
		groups *= capDistinct(d, inCard)
		if groups >= inCard {
			return math.Max(inCard, 1)
		}
	}
	return math.Max(groups, 1)
}

func capDistinct(d, card float64) float64 {
	if d > card {
		d = card
	}
	if d < 1 {
		d = 1
	}
	return d
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// stamp floors an estimate at one row and records it on a plan node.
func stamp(n engine.Node, est float64) float64 {
	if est < 1 {
		est = 1
	}
	engine.SetEstRows(n, est)
	return est
}
