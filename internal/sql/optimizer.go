package sql

import (
	"math"

	"probkb/internal/engine"
)

// Join-order optimization: a greedy cost-based reorder of the FROM/JOIN
// list using ANALYZE-style statistics, the way a DBMS picks a join order
// before handing the plan to the executor. Inner-join conjuncts are
// pooled (the planner already treats ON and WHERE uniformly), so any
// order is semantically valid; the optimizer picks one that keeps
// intermediate results small:
//
//   - start from the table with the smallest estimated cardinality after
//     its single-table literal predicates;
//   - repeatedly add the connected table minimizing the estimated join
//     output, |S ⋈ T| ≈ |S|·|T| / Π max(d_S(col), d_T(col)) over the
//     bridging equality predicates (the textbook distinct-value model);
//   - fall back to a cross join only when no connected table remains.
//
// Statistics come from the catalog, which gathers them once per table.

// refInfo is one FROM/JOIN source with its statistics.
type refInfo struct {
	ref   TableRef
	table *engine.Table
	stats *engine.TableStats
	// card is the estimated cardinality after single-table predicates.
	card float64
}

// chooseJoinOrder returns the indices of refs in execution order.
func (db *DB) chooseJoinOrder(refs []refInfo, pool []Condition) []int {
	n := len(refs)
	if n <= 2 {
		// With two tables order barely matters (the engine builds on the
		// left input; keep the syntactic order, which conventionally puts
		// the small MLN table first).
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}

	binding := make(map[string]int, n)
	for i, r := range refs {
		binding[r.ref.Binding()] = i
	}

	// bridges[i][j] lists the equality conjuncts connecting refs i and j,
	// as (colOfI, colOfJ) pairs.
	type bridge struct{ ci, cj int }
	bridges := make(map[[2]int][]bridge)
	for _, c := range pool {
		if c.Op != "=" || c.IsNull || c.NotNul ||
			c.Left.isLiteral() || c.Right.isLiteral() ||
			c.Left.Agg != aggNone || c.Right.Agg != aggNone {
			continue
		}
		li, lok := bindingOf(binding, refs, c.Left.Col)
		ri, rok := bindingOf(binding, refs, c.Right.Col)
		if !lok || !rok || li == ri {
			continue
		}
		lc := colIndexIn(refs[li].table, c.Left.Col.Col)
		rc := colIndexIn(refs[ri].table, c.Right.Col.Col)
		if lc < 0 || rc < 0 {
			continue
		}
		a, b := li, ri
		ca, cb := lc, rc
		if a > b {
			a, b = b, a
			ca, cb = cb, ca
		}
		bridges[[2]int{a, b}] = append(bridges[[2]int{a, b}], bridge{ci: ca, cj: cb})
	}

	used := make([]bool, n)
	var order []int

	// Seed: smallest filtered cardinality.
	best := 0
	for i := 1; i < n; i++ {
		if refs[i].card < refs[best].card {
			best = i
		}
	}
	order = append(order, best)
	used[best] = true
	card := refs[best].card

	// distinctIn estimates the distinct values of (ref, col) within the
	// current joined set: the base distinct count capped by the set's
	// cardinality.
	distinctIn := func(ri, col int, setCard float64) float64 {
		d := float64(refs[ri].stats.DistinctOf(col))
		if d > setCard {
			d = setCard
		}
		if d < 1 {
			d = 1
		}
		return d
	}

	for len(order) < n {
		bestIdx := -1
		bestCost := math.Inf(1)
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			// Selectivity over every bridge between j and the joined set.
			sel := 1.0
			connected := false
			for _, i := range order {
				a, b := i, j
				swap := a > b
				if swap {
					a, b = b, a
				}
				for _, br := range bridges[[2]int{a, b}] {
					ci, cj := br.ci, br.cj
					if swap {
						ci, cj = cj, ci
					}
					// ci belongs to the in-set ref, cj to candidate j.
					dIn := distinctIn(i, ci, card)
					dJ := distinctIn(j, cj, refs[j].card)
					sel /= math.Max(dIn, dJ)
					connected = true
				}
			}
			cost := card * refs[j].card * sel
			if !connected {
				// Cross join: strongly penalized but still orderable.
				cost = card * refs[j].card * 1e6
			}
			if cost < bestCost {
				bestCost = cost
				bestIdx = j
			}
		}
		order = append(order, bestIdx)
		used[bestIdx] = true
		card = math.Max(bestCost, 1)
		if card > 1e18 {
			card = 1e18
		}
	}
	return order
}

// bindingOf resolves a column reference to a ref index; unqualified
// references resolve only if exactly one ref has the column.
func bindingOf(binding map[string]int, refs []refInfo, ref ColRef) (int, bool) {
	if ref.Table != "" {
		i, ok := binding[ref.Table]
		return i, ok
	}
	found, count := -1, 0
	for i, r := range refs {
		if colIndexIn(r.table, ref.Col) >= 0 {
			found = i
			count++
		}
	}
	return found, count == 1
}

func colIndexIn(t *engine.Table, col string) int {
	return t.Schema().ColIndex(col)
}

// filteredCard estimates a table's cardinality after its single-table
// literal equality predicates (col = const → 1/distinct each).
func filteredCard(t *engine.Table, st *engine.TableStats, b string, pool []Condition) float64 {
	card := float64(st.Rows)
	for _, c := range pool {
		if c.Op != "=" || c.IsNull || c.NotNul {
			continue
		}
		var col ColRef
		switch {
		case !c.Left.isLiteral() && c.Right.isLiteral() && c.Left.Agg == aggNone:
			col = c.Left.Col
		case !c.Right.isLiteral() && c.Left.isLiteral() && c.Right.Agg == aggNone:
			col = c.Right.Col
		default:
			continue
		}
		if col.Table != "" && col.Table != b {
			continue
		}
		idx := colIndexIn(t, col.Col)
		if idx < 0 {
			continue
		}
		card /= float64(st.DistinctOf(idx))
	}
	if card < 1 {
		card = 1
	}
	return card
}
