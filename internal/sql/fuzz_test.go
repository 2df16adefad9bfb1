package sql

import (
	"sort"
	"strings"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/mpp"
)

// fuzzSeeds are statements of every supported shape; they seed both fuzz
// targets (the on-disk corpus under testdata/fuzz adds mutated variants).
var fuzzSeeds = []string{
	"SELECT id FROM facts",
	"SELECT DISTINCT f.id, f.cls FROM facts f",
	"SELECT f.id, d.label FROM facts f JOIN dims d ON f.cls = d.cls",
	"SELECT f.id FROM facts f JOIN dims d ON f.cls = d.cls AND f.id <> d.cls WHERE f.w >= 0.5",
	"SELECT cls, COUNT(*), COUNT(DISTINCT id), MIN(w), MAX(w), SUM(w) FROM facts GROUP BY cls",
	"SELECT cls, COUNT(*) AS n FROM facts GROUP BY cls HAVING COUNT(*) > 1",
	"SELECT id FROM facts WHERE w IS NOT NULL ORDER BY id DESC, cls LIMIT 10",
	"SELECT 'tag' AS t, 3.5, NULL FROM facts",
	"SELECT id, cls FROM facts WHERE w < 0.1",
	"SELECT id FROM facts WHERE w IS NULL",
	"SELECT DISTINCT f.id, f.cls FROM facts f JOIN dims d ON f.cls = d.cls WHERE d.cls = 1 GROUP BY f.id, f.cls, d.cls HAVING COUNT(*) > MIN(f.w)",
	"select f.id from FACTS f join dims d on f.cls = d.cls where f.w > -1e-3;",
}

// FuzzParseSQL checks that Parse never panics and that printing is a
// normalizing fixed point: parse(input) → print → parse → print yields
// the same text as the first print.
func FuzzParseSQL(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printed statement does not re-parse\ninput: %q\nprinted: %q\nerror: %v", input, text, err)
		}
		if text2 := again.String(); text2 != text {
			t.Fatalf("printing is not a fixed point\ninput: %q\nfirst print: %q\nsecond print: %q", input, text, text2)
		}
	})
}

// fuzzCatalog builds the tiny fixed schema the execution fuzzers query:
// a hash-distributed facts table and a replicated dims table.
func fuzzCatalog() *engine.Catalog {
	facts := engine.NewTable("facts", engine.NewSchema(
		engine.C("id", engine.Int32), engine.C("cls", engine.Int32), engine.C("w", engine.Float64)))
	for i := 0; i < 16; i++ {
		facts.AppendRow(int32(i), int32(i%4), float64(i)/16)
	}
	dims := engine.NewTable("dims", engine.NewSchema(
		engine.C("cls", engine.Int32), engine.C("label", engine.String)))
	for i := 0; i < 4; i++ {
		dims.AppendRow(int32(i), strings.Repeat("x", i+1))
	}
	return engine.NewCatalog([]*engine.Table{facts, dims}, nil)
}

// sortedRows canonicalizes a result table to sorted printed rows for
// order-insensitive comparison.
func sortedRows(t *engine.Table) []string {
	rows := make([]string, t.NumRows())
	for r := range rows {
		parts := make([]string, t.Schema().NumCols())
		for c := range parts {
			parts[c] = t.ValueString(r, c)
		}
		rows[r] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

// FuzzDistSQL drives the distributed query path end to end: whatever the
// input, DistDB.Query must fail cleanly or produce a result — never
// panic — and when the same SELECT also runs on the single-node DB, the
// two engines must return the same multiset of rows.
func FuzzDistSQL(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		cat := fuzzCatalog()
		dist := NewDistDB(cat, mpp.NewCluster(2), map[string][]int{"facts": {0}})
		distOut, distErr := dist.Query(input)
		if distErr != nil {
			return
		}
		local, err := NewDB(cat).Query(input)
		if err != nil {
			// The single-node dialect is a superset of the distributed one;
			// a distributed success must also plan locally.
			t.Fatalf("distributed ok but single-node failed for %q: %v", input, err)
		}
		a, b := sortedRows(local), sortedRows(distOut)
		if len(a) != len(b) {
			t.Fatalf("row counts diverge for %q: single-node %d, distributed %d", input, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("results diverge for %q: row %d: %q vs %q", input, i, a[i], b[i])
			}
		}
	})
}
