package factor

import (
	"fmt"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
)

// Partition groups TΠ's rows into the connected components TΦ's clauses
// draw over them — the components a Graph of the whole of TΠ labels —
// without building that graph, so that a caller can build the graph of
// only the components it needs (Graph). A row no clause touches is a
// component of its own.
type Partition struct {
	factors *engine.Table
	rows    idIndex // TΠ's fact IDs, resolved to rows
	// root[r] is the smallest row of r's component; size[r], for a
	// root r, counts the rows of its component.
	root, size []int32
}

// NewPartition runs one union-find pass over TΦ's clause rows, resolving
// fact IDs through the index a whole-graph build uses. It reads both
// tables' ID columns in place: they must not change while the partition
// is in use.
func NewPartition(facts, factors *engine.Table) (*Partition, error) {
	if factors == nil {
		return nil, fmt.Errorf("factor: no factor table (SkipFactors?)")
	}
	n := facts.NumRows()
	p := &Partition{factors: factors, rows: idIndex{ids: facts.Int32Col(kb.TPiI)[:n]}}
	if err := p.rows.indexIDs(); err != nil {
		return nil, err
	}
	f := newForest(n)
	i1s := factors.Int32Col(ground.TPhiI1)
	i2s := factors.Int32Col(ground.TPhiI2)
	i3s := factors.Int32Col(ground.TPhiI3)
	for r := range factors.NumRows() {
		i2, i3 := i2s[r], i3s[r]
		if i2 == engine.NullInt32 && i3 == engine.NullInt32 {
			continue // a unit clause joins nothing; Graph resolves its fact
		}
		head := p.rows.lookup(i1s[r])
		if head < 0 {
			return nil, unknownFact(r, i1s[r])
		}
		for _, id := range [2]int32{i2, i3} {
			if id == engine.NullInt32 {
				continue
			}
			v := p.rows.lookup(id)
			if v < 0 {
				return nil, unknownFact(r, id)
			}
			f.union(head, v)
		}
	}
	p.size = make([]int32, n)
	for r, parent := range f {
		f[r] = f[parent] // parent <= r, so f[parent] is already a root
		p.size[f[r]]++
	}
	p.root = f
	return p, nil
}

// Root returns the smallest TΠ row of row r's component.
func (p *Partition) Root(r int) int { return int(p.root[r]) }

// Size returns the number of rows in the component whose root is r.
func (p *Partition) Size(r int) int { return int(p.size[r]) }

// Graph builds the factor graph of the components whose root keep marks
// (keep is indexed by TΠ row and read at roots). Their TΠ rows become
// its variables and their TΦ rows its factors, each in table order, so
// the graph numbers its variables in the order a graph of the whole of
// TΠ does: every comparison inference makes between two variables —
// the canonical adjacency order, a component's enumeration order, the
// chain's sweep order — comes out as it does there. Fact IDs are kept,
// so VarOf works as on the whole graph.
func (p *Partition) Graph(keep []bool) (*Graph, error) {
	remap := make([]int32, len(p.root))
	var ids []int32
	for r, root := range p.root {
		remap[r] = -1
		if keep[root] {
			remap[r] = int32(len(ids))
			ids = append(ids, p.rows.ids[r])
		}
	}
	g := newGraph(ids, 0)
	_ = g.indexIDs() // cannot fail: a subset of TΠ's distinct IDs
	if err := g.addRows(p.factors, &p.rows, remap); err != nil {
		return nil, err
	}
	g.buildAdjacency()
	return g, nil
}
