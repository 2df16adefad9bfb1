package mln

import (
	"fmt"

	"probkb/internal/engine"
)

// Schema column orders of the MLN partition tables (Definition 6 and
// Figure 3(b)(c) of the paper):
//
//	M1, M2:      (R1, R2, C1, C2, w)
//	M3 .. M6:    (R1, R2, R3, C1, C2, C3, w)
//
// A row of Mi is the identifier tuple that, combined with the partition's
// shape, uniquely reconstructs one rule.

// Len2Schema is the schema of partitions M1 and M2.
func Len2Schema() engine.Schema {
	return engine.NewSchema(
		engine.C("R1", engine.Int32),
		engine.C("R2", engine.Int32),
		engine.C("C1", engine.Int32),
		engine.C("C2", engine.Int32),
		engine.C("w", engine.Float64),
	)
}

// Len3Schema is the schema of partitions M3 through M6.
func Len3Schema() engine.Schema {
	return engine.NewSchema(
		engine.C("R1", engine.Int32),
		engine.C("R2", engine.Int32),
		engine.C("R3", engine.Int32),
		engine.C("C1", engine.Int32),
		engine.C("C2", engine.Int32),
		engine.C("C3", engine.Int32),
		engine.C("w", engine.Float64),
	)
}

// Partitions holds the six MLN tables plus the clause each row came from,
// so grounding results can point back at their rules.
type Partitions struct {
	m       [NumPartitions + 1]*engine.Table // 1-indexed; m[0] unused
	clauses [NumPartitions + 1][]Clause
	total   int
}

// TableName is the name partition i's table carries: M1..M6.
func TableName(i int) string { return fmt.Sprintf("M%d", i) }

// NewPartitions returns six empty MLN tables.
func NewPartitions() *Partitions {
	p := &Partitions{}
	for i := P1; i <= P2; i++ {
		p.m[i] = engine.NewTable(TableName(i), Len2Schema())
	}
	for i := P3; i <= P6; i++ {
		p.m[i] = engine.NewTable(TableName(i), Len3Schema())
	}
	return p
}

// Add classifies a canonical clause and appends its identifier tuple to
// the matching partition table.
func (p *Partitions) Add(c Clause) error {
	part, err := c.Partition()
	if err != nil {
		return err
	}
	switch part {
	case P1, P2:
		p.m[part].AppendRow(c.Head.Rel, c.Body[0].Rel, c.Class[X], c.Class[Y], c.Weight)
	default:
		p.m[part].AppendRow(c.Head.Rel, c.Body[0].Rel, c.Body[1].Rel,
			c.Class[X], c.Class[Y], c.Class[Z], c.Weight)
	}
	p.clauses[part] = append(p.clauses[part], c)
	p.total++
	return nil
}

// Build partitions a clause set; it fails on the first clause that does
// not match one of the six shapes.
func Build(clauses []Clause) (*Partitions, error) {
	p := NewPartitions()
	for i, c := range clauses {
		if err := p.Add(c); err != nil {
			return nil, fmt.Errorf("clause %d: %w", i, err)
		}
	}
	return p, nil
}

// Table returns partition i's MLN table (i in 1..6).
func (p *Partitions) Table(i int) *engine.Table {
	if i < P1 || i > P6 {
		panic(fmt.Sprintf("mln: partition index %d out of range", i))
	}
	return p.m[i]
}

// Clauses returns the clauses stored in partition i, in insertion order
// (parallel to the table rows).
func (p *Partitions) Clauses(i int) []Clause {
	if i < P1 || i > P6 {
		panic(fmt.Sprintf("mln: partition index %d out of range", i))
	}
	return p.clauses[i]
}

// Total returns the number of stored clauses across all partitions.
func (p *Partitions) Total() int { return p.total }

// NonEmpty returns the indices of partitions that contain at least one
// rule; the grounding loop iterates only these.
func (p *Partitions) NonEmpty() []int {
	var out []int
	for i := P1; i <= P6; i++ {
		if p.m[i].NumRows() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Stats returns the per-partition rule counts, 1-indexed (index 0 unused).
func (p *Partitions) Stats() [NumPartitions + 1]int {
	var s [NumPartitions + 1]int
	for i := P1; i <= P6; i++ {
		s[i] = p.m[i].NumRows()
	}
	return s
}
