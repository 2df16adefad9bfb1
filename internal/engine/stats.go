package engine

// Table statistics for cardinality estimation. The SQL planner's
// join-order optimizer uses per-column distinct counts the way a DBMS
// uses its ANALYZE output.

// ColStats summarizes one column.
type ColStats struct {
	// Distinct is the exact number of distinct values (NULL counts as a
	// value).
	Distinct int
	// Nulls is the number of NULL cells (Int32/Float64 columns only).
	Nulls int
}

// TableStats summarizes a table.
type TableStats struct {
	Rows int
	Cols []ColStats
}

// Analyze computes exact per-column statistics. Cost is O(rows × cols);
// Catalog.Stats keeps the result beside the table it describes.
func Analyze(t *Table) *TableStats {
	st := &TableStats{Rows: t.NumRows(), Cols: make([]ColStats, len(t.cols))}
	for ci, c := range t.cols {
		switch c.typ {
		case Int32:
			seen := make(map[int32]struct{}, len(c.i32))
			nulls := 0
			for _, v := range c.i32 {
				seen[v] = struct{}{}
				if v == NullInt32 {
					nulls++
				}
			}
			st.Cols[ci] = ColStats{Distinct: len(seen), Nulls: nulls}
		case Float64:
			seen := make(map[float64]struct{}, len(c.f64))
			nulls := 0
			for _, v := range c.f64 {
				if IsNullFloat64(v) {
					nulls++
					continue
				}
				seen[v] = struct{}{}
			}
			d := len(seen)
			if nulls > 0 {
				d++
			}
			st.Cols[ci] = ColStats{Distinct: d, Nulls: nulls}
		case String:
			seen := make(map[string]struct{}, len(c.str))
			for _, v := range c.str {
				seen[v] = struct{}{}
			}
			st.Cols[ci] = ColStats{Distinct: len(seen)}
		}
	}
	return st
}

// DistinctOf returns the distinct count of a column, defaulting to the
// row count when the column index is out of range.
func (s *TableStats) DistinctOf(col int) int {
	if col < 0 || col >= len(s.Cols) {
		return s.Rows
	}
	d := s.Cols[col].Distinct
	if d < 1 {
		return 1
	}
	return d
}
