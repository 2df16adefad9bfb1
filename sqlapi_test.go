package probkb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/obs"
	"probkb/internal/sql"
)

// freshSQLDB is the construction every SQL request used to pay for, kept
// as the oracle: all thirteen tables materialized from the KB as it is
// right now, dictionary names copied row by row, a private DB that
// ANALYZEs what it plans over. Whatever the per-generation image
// answers, this must answer the same.
func freshSQLDB(t *testing.T, k *KB) *sql.DB {
	t.Helper()
	return sql.NewDB(freshCatalog(t, k))
}

// freshCatalog is freshSQLDB's catalog: every table built up front.
func freshCatalog(t *testing.T, k *KB) *engine.Catalog {
	t.Helper()
	parts, err := k.inner.MLNPartitions()
	if err != nil {
		t.Fatal(err)
	}
	tables := []*engine.Table{k.inner.FactsTable(), k.inner.ClassTable(), k.inner.RelationTable(), k.inner.ConstraintsTable()}
	for i := mln.P1; i <= mln.P6; i++ {
		tables = append(tables, parts.Table(i))
	}
	for name, d := range map[string]*kb.Dict{"DE": k.inner.Entities, "DC": k.inner.Classes, "DR": k.inner.RelDict} {
		tab := engine.NewTable(name, engine.NewSchema(engine.C("id", engine.Int32), engine.C("name", engine.String)))
		for id, s := range d.Names() {
			tab.AppendRow(int32(id), s)
		}
		tables = append(tables, tab)
	}
	return engine.NewCatalog(tables, nil)
}

// sqlBattery is the fixed set of statements checked after every step:
// the paper's Query 1-1 and Query 3 (its violator subquery — the image
// is read-only), joins against all three dictionaries, the sizes of the
// tables no other statement covers, and the benchmark's point select.
func sqlBattery(k *KB) []string {
	return []string{
		`SELECT M1.R1 AS R, T.x AS x, T.C1 AS C1, T.y AS y, T.C2 AS C2
		 FROM M1 JOIN T ON M1.R2 = T.R AND M1.C1 = T.C1 AND M1.C2 = T.C2`,
		`SELECT DISTINCT T.x, T.C1
		 FROM T JOIN FC ON T.R = FC.R
		 WHERE FC.arg = 1
		 GROUP BY T.R, T.x, T.C1, T.C2
		 HAVING COUNT(*) > MIN(FC.deg)`,
		`SELECT DE.name, T.w FROM T JOIN DE ON T.x = DE.id WHERE T.w > 0.5 ORDER BY name, w`,
		`SELECT DR.name, DC.name FROM TR JOIN DR ON TR.R = DR.id JOIN DC ON TR.C1 = DC.id`,
		`SELECT TC.C, COUNT(*) AS n FROM TC GROUP BY TC.C`,
		`SELECT COUNT(*) AS n FROM DE`,
		`SELECT COUNT(*) AS n FROM DC`,
		`SELECT COUNT(*) AS n FROM DR`,
		`SELECT COUNT(*) AS n FROM M3`,
		fmt.Sprintf(`SELECT T.R, T.y, T.w FROM T WHERE T.x = %d`, k.inner.Entities.Len()/2),
		fmt.Sprintf(`SELECT DE.name FROM DE WHERE DE.id >= %d`, k.inner.Entities.Len()-1),
	}
}

var planTimes = regexp.MustCompile(`time=[^ )]+`)

// checkSQLAgainstFresh runs the battery through the public SQL surface
// (the image) and through a catalog built fresh from the same KB.
func checkSQLAgainstFresh(t *testing.T, what string, k *KB) {
	t.Helper()
	fresh := freshSQLDB(t, k)
	for _, q := range sqlBattery(k) {
		got, err := k.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s: %v\n%s", what, err, q)
		}
		out, err := fresh.Query(q)
		if err != nil {
			t.Fatalf("%s: oracle: %v\n%s", what, err, q)
		}
		if want := renderResult(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: image answers\n%v\na fresh catalog\n%v\nto %s", what, got, want, q)
		}
		gotPlan, err := k.ExplainSQL(q)
		if err != nil {
			t.Fatalf("%s: explain: %v", what, err)
		}
		wantPlan, err := fresh.Explain(q)
		if err != nil {
			t.Fatalf("%s: oracle explain: %v", what, err)
		}
		if g, w := planTimes.ReplaceAllString(gotPlan, "time=-"), planTimes.ReplaceAllString(wantPlan, "time=-"); g != w {
			t.Fatalf("%s: image plans\n%s\na fresh catalog\n%s\nfor %s", what, g, w, q)
		}
	}
}

// TestSQLImageMatchesFreshCatalog is the invalidation differential:
// random mutation sequences over the library API, the relational image
// checked against a from-scratch catalog after every step, on every KB
// still alive (so a mutation that retires — or fails to retire — the
// wrong KB's image shows up as well).
func TestSQLImageMatchesFreshCatalog(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 5, GibbsSamples: 20, Seed: 1}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
		fresh := 0
		newName := func(prefix string) string { fresh++; return fmt.Sprintf("%s_new%d", prefix, fresh) }
		randomFact := func() Fact {
			return Fact{Rel: name("r", 4), X: name("e", 12), XClass: "A", Y: name("e", 12), YClass: "B", Probability: 0.1 + 0.8*rng.Float64()}
		}

		k := New()
		for i := 0; i < 20; i++ {
			f := randomFact()
			k.AddFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
		}
		k.MustAddRule("1.1 r1(x:A, y:B) :- r0(x:A, y:B)")
		k.MustAddRule("0.6 r3(x:B, y:B) :- r1(z:A, x:B), r2(z:A, y:B)")
		if err := k.AddConstraint("r0", TypeI, 1); err != nil {
			t.Fatal(err)
		}
		var exp *Expansion
		live := []*KB{k}

		for step := 0; step < 40; step++ {
			var what string
			switch op := rng.Intn(13); op {
			case 0:
				what = "AddFact over known symbols"
				f := randomFact()
				k.AddFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability)
			case 1:
				what = "AddFact raising a duplicate's weight"
				f := k.inner.Facts[rng.Intn(len(k.inner.Facts))]
				f.W = 0.999
				k.inner.AddFact(f)
			case 2:
				what = "AddFact with new entity, class and relation names"
				k.AddFact(newName("r"), newName("e"), newName("C"), name("e", 12), "B", 0.7)
			case 3:
				what = "AddRule"
				k.MustAddRule(fmt.Sprintf("0.%d %s(x:A, y:B) :- %s(x:A, y:B)", 1+rng.Intn(9), name("r", 4), name("r", 4)))
			case 4:
				what = "AddConstraint"
				if err := k.AddConstraint(name("r", 4), TypeII, 1+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			case 5:
				what = "DeclareSubclass"
				if err := k.DeclareSubclass(newName("Sub"), "A"); err != nil {
					t.Fatal(err)
				}
			case 6:
				what = "a name interned on a dictionary directly"
				switch rng.Intn(3) {
				case 0:
					k.inner.Entities.Intern(newName("e"))
				case 1:
					k.inner.Classes.Intern(newName("C"))
				default:
					k.inner.RelDict.Intern(newName("r"))
				}
			case 7:
				what = "Fork, then the child mutates"
				child := &KB{inner: k.inner.Fork()}
				f := randomFact()
				child.AddFact(f.Rel, newName("e"), f.XClass, f.Y, f.YClass, f.Probability)
				live = append(live, child)
				if rng.Intn(2) == 0 {
					k = child // carry on down either side of the fork
				}
			case 8:
				what = "Fork, then the parent mutates"
				child := &KB{inner: k.inner.Fork()}
				k.inner.SetWeight(k.inner.Facts[0].Key(), rng.Float64())
				live = append(live, child)
			case 9:
				what = "Expand"
				var err error
				if exp, err = k.Expand(cfg); err != nil {
					t.Fatal(err)
				}
				live = append(live, exp.KB())
			case 10, 11:
				if exp == nil || !exp.Stats().Converged {
					continue
				}
				batch := []Fact{randomFact()}
				if rng.Intn(2) == 0 {
					batch[0].X = newName("e")
				}
				var err error
				if op == 10 {
					what = "ExtendWith"
					exp, err = exp.ExtendWith(batch)
				} else {
					what = "ExtendWithDeferred"
					exp, err = exp.ExtendWithDeferred(ctx, batch)
				}
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, exp.KB())
			case 12:
				if exp == nil || !exp.Stats().Converged {
					continue
				}
				what = "RefreshMarginals"
				var err error
				if exp, err = exp.RefreshMarginals(ctx); err != nil {
					t.Fatal(err)
				}
				live = append(live, exp.KB())
			}
			if len(live) > 5 {
				live = live[len(live)-5:]
			}
			checkSQLAgainstFresh(t, fmt.Sprintf("seed %d step %d (%s), the mutated KB", seed, step, what), k)
			for i, other := range live {
				checkSQLAgainstFresh(t, fmt.Sprintf("seed %d step %d (%s), live KB %d", seed, step, what, i), other)
			}
		}
	}
}

// imageTablesBuilt sums probkb_kb_image_tables_built_total over tables.
func imageTablesBuilt() float64 {
	var n float64
	for k, v := range obs.Default.Snapshot() {
		if strings.HasPrefix(k, "probkb_kb_image_tables_built_total{") {
			n += v
		}
	}
	return n
}

// TestSQLImageSharedAcrossGenerations: the generations a serving tier
// publishes without changing the KB — a marginal refresh, a streamed
// batch over known symbols — keep reading their parent's image; nothing
// is rebuilt for them, and nothing at all is built for a generation no
// SQL is sent to.
func TestSQLImageSharedAcrossGenerations(t *testing.T) {
	ctx := context.Background()
	k := New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.AddFact("born_in", "Kafka", "Writer", "Prague", "Place", 0.9)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")

	before := imageTablesBuilt()
	exp, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 5, GibbsSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	known := []Fact{{Rel: "born_in", X: "Kafka", XClass: "Writer", Y: "Brooklyn", YClass: "Place", Probability: 0.4}}
	quiet, err := exp.ExtendWithDeferred(ctx, known)
	if err != nil {
		t.Fatal(err)
	}
	if quiet, err = quiet.RefreshMarginals(ctx); err != nil {
		t.Fatal(err)
	}
	if n := imageTablesBuilt() - before; n != 0 {
		t.Fatalf("expand + absorb + refresh with no SQL built %v image tables", n)
	}

	// The first generation is queried, then absorbs and refreshes.
	const q = "SELECT DE.name FROM T JOIN DE ON T.x = DE.id"
	if _, err := exp.KB().QuerySQL(q); err != nil {
		t.Fatal(err)
	}
	built := imageTablesBuilt()
	if built-before != 2 {
		t.Fatalf("a T⋈DE query built %v tables, want T and DE", built-before)
	}
	next, err := exp.ExtendWithDeferred(ctx, known)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := next.RefreshMarginals(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []*Expansion{exp, next, refreshed} {
		for i := 0; i < 3; i++ {
			if _, err := gen.KB().QuerySQL(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := imageTablesBuilt() - built; n != 0 {
		t.Fatalf("generations over the same KB state rebuilt %v tables", n)
	}

	// A batch that brings a new name is a different KB state.
	novel, err := next.ExtendWithDeferred(ctx, []Fact{{Rel: "born_in", X: "Freud", XClass: "Writer", Y: "Vienna", YClass: "Place", Probability: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := novel.KB().QuerySQL("SELECT DE.name FROM DE WHERE DE.name = 'Freud'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("new entity not in the new generation's DE: %v, %v", res, err)
	}
	if res, err = next.KB().QuerySQL("SELECT DE.name FROM DE WHERE DE.name = 'Freud'"); err != nil || len(res.Rows) != 0 {
		t.Fatalf("new entity leaked into the previous generation's DE: %v, %v", res, err)
	}
}

// TestSQLImageIsReadOnly: the relational image is shared by every reader
// of a generation, so nothing reachable from the library may write it.
func TestSQLImageIsReadOnly(t *testing.T) {
	k := New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	before := k.inner.Catalog().MustGet("T").String()
	for _, stmt := range []string{
		"DELETE FROM T WHERE T.w < 0.95",
		"DELETE FROM T WHERE (T.x, T.C1) IN (SELECT DISTINCT T.x, T.C1 FROM T)",
	} {
		if _, err := k.QuerySQL(stmt); err == nil {
			t.Errorf("QuerySQL(%q) succeeded", stmt)
		}
		if _, err := k.QueryDistSQL(stmt, 2); err == nil {
			t.Errorf("QueryDistSQL(%q) succeeded", stmt)
		}
		if _, err := k.ExplainSQL(stmt); err == nil {
			t.Errorf("ExplainSQL(%q) succeeded", stmt)
		}
	}
	if after := k.inner.Catalog().MustGet("T").String(); after != before {
		t.Fatalf("T changed:\n%s\nwas\n%s", after, before)
	}
}

// pointSelect is the benchmark's point select on any INT column of T.
func pointSelect(col string, id int) string {
	return fmt.Sprintf("SELECT T.I, T.R, T.x, T.y, T.w FROM T WHERE T.%s = %d", col, id)
}

// sortedRows renders a result as a sorted multiset of rows.
func sortedRows(res *QueryResult) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// TestSQLPointSelects: on the scale 0.05 corpus (T is 18,990 rows,
// five morsels) a point select on T.x, T.y, T.R or T.I reads the
// image's entity index. Its answers agree with a fresh catalog planned
// without it (Seq Scan + filter) row for row, and with the distributed
// plan as multisets. The first selects on a fresh image, from eight
// goroutines, share one index; a KB mutation leaves the next select an
// index of what is there now.
func TestSQLPointSelects(t *testing.T) {
	k, _, err := Synthesize(0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	cols := map[string]int{"x": st.Entities, "y": st.Entities, "R": st.Relations, "I": st.Facts}

	t.Run("concurrent first selects", func(t *testing.T) {
		const readers = 8
		answers := make([][]*QueryResult, readers)
		indexes := make([]*engine.EntityIndex, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					res, err := k.QuerySQL(pointSelect("x", i*st.Entities/16))
					if err != nil {
						t.Error(err)
						return
					}
					answers[g] = append(answers[g], res)
				}
				indexes[g], _ = k.inner.Catalog().Index("T", kb.TPiX)
			}()
		}
		wg.Wait()
		for g := 1; g < readers; g++ {
			if !reflect.DeepEqual(answers[g], answers[0]) {
				t.Fatalf("reader %d answered differently from reader 0", g)
			}
			if indexes[g] != indexes[0] || indexes[g] == nil {
				t.Fatalf("reader %d got index %p, reader 0 %p", g, indexes[g], indexes[0])
			}
		}
	})

	t.Run("agree with the scan and distributed plans", func(t *testing.T) {
		seq := freshSQLDB(t, k)
		seq.SetOptimize(false)
		rng := rand.New(rand.NewSource(36))
		for col, n := range cols {
			if plan, err := k.ExplainSQL(pointSelect(col, 1)); err != nil || !strings.Contains(plan, "Index Scan on T (T."+col+" = 1)") {
				t.Fatalf("T.%s = 1 plans no Index Scan: %v\n%s", col, err, plan)
			}
			hits := 0
			for i := 0; i < 200; i++ {
				id := rng.Intn(n+n/10+20) - 10 // absent IDs at both ends
				q := pointSelect(col, id)
				got, err := k.QuerySQL(q)
				if err != nil {
					t.Fatal(err)
				}
				out, err := seq.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := renderResult(out); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: image answers\n%v\nSeq Scan\n%v", q, got, want)
				}
				dist, err := k.QueryDistSQL(q, 2)
				if err != nil {
					t.Fatal(err)
				}
				if g, d := sortedRows(got), sortedRows(dist); !reflect.DeepEqual(g, d) {
					t.Fatalf("%s: image answers %v, distributed plan %v", q, g, d)
				}
				if len(got.Rows) > 0 {
					hits++
				}
			}
			if hits == 0 || hits == 200 {
				t.Fatalf("T.%s: %d of 200 IDs found rows; want some found and some absent", col, hits)
			}
		}
	})

	t.Run("a new fact is found", func(t *testing.T) {
		before, err := k.QuerySQL(pointSelect("x", 0))
		if err != nil {
			t.Fatal(err)
		}
		x := k.inner.Entities.Name(0)
		k.AddFact("point_rel", x, "PointClass", "point_y", "PointClass", 0.5)
		after, err := k.QuerySQL(pointSelect("x", 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(after.Rows) != len(before.Rows)+1 {
			t.Fatalf("T.x = 0 answered %d rows after AddFact, %d before", len(after.Rows), len(before.Rows))
		}
		y, _ := k.inner.Entities.Lookup("point_y")
		if res, err := k.QuerySQL(pointSelect("y", int(y))); err != nil || len(res.Rows) != 1 {
			t.Fatalf("the new entity's fact: %v, %v", res, err)
		}
	})
}

// TestPointSelectCostFlat gates what a point select costs on how big T
// is, in deterministic measures: allocations per select, and the rows
// its plan's operators produce beyond the answer (every operator of an
// index read produces exactly the answer's rows; a scan also produces
// all of T). At scale 0.25 T has five times the rows it has at 0.05 and
// its answers run longer; neither measure may notice the first. The
// selects probe IDs present and absent in equal number.
func TestPointSelectCostFlat(t *testing.T) {
	type cost struct{ allocs, extraRows float64 }
	measure := func(scale float64) cost {
		k, _, err := Synthesize(scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		db, n := k.sqlDB(), k.Stats().Entities
		queries := make([]string, 64)
		for i := range queries {
			id := i * 7919 % n
			if i%2 == 1 {
				id = -id - 1
			}
			queries[i] = fmt.Sprintf("SELECT T.R, T.y, T.w FROM T WHERE T.x = %d", id)
		}
		var c cost
		for _, q := range queries {
			out, plan, err := db.QueryAnalyzeContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			var walk func(n engine.Node)
			walk = func(n engine.Node) {
				c.extraRows += float64(n.Stats().Rows - out.NumRows())
				for _, k := range n.Children() {
					walk(k)
				}
			}
			walk(plan)
		}
		c.extraRows /= float64(len(queries))
		i := 0
		c.allocs = testing.AllocsPerRun(len(queries), func() {
			if _, err := db.Query(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		return c
	}
	small, large := measure(0.05), measure(0.25)
	t.Logf("per select: scale 0.05 %.1f allocs, %.1f rows beyond the answer; scale 0.25 %.1f allocs, %.1f rows",
		small.allocs, small.extraRows, large.allocs, large.extraRows)
	// The slack covers the larger corpus's longer answers: a few more
	// append growths of the answer's columns.
	const slackAllocs = 8
	if large.allocs > small.allocs+slackAllocs {
		t.Errorf("allocs per select grew with T: %.1f at scale 0.05, %.1f at 0.25", small.allocs, large.allocs)
	}
	if large.extraRows > small.extraRows {
		t.Errorf("rows produced beyond the answer grew with T: %.1f per select at scale 0.05, %.1f at 0.25", small.extraRows, large.extraRows)
	}
}
