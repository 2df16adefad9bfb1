package probkb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
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
	parts, err := k.inner.MLNPartitions()
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	cat.Put(k.inner.FactsTable())
	cat.Put(k.inner.ClassTable())
	cat.Put(k.inner.RelationTable())
	cat.Put(k.inner.ConstraintsTable())
	for i := mln.P1; i <= mln.P6; i++ {
		cat.Put(parts.Table(i))
	}
	for name, d := range map[string]*kb.Dict{"DE": k.inner.Entities, "DC": k.inner.Classes, "DR": k.inner.RelDict} {
		tab := engine.NewTable(name, engine.NewSchema(engine.C("id", engine.Int32), engine.C("name", engine.String)))
		for id, s := range d.Names() {
			tab.AppendRow(int32(id), s)
		}
		cat.Put(tab)
	}
	return sql.NewDB(cat)
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

func imageTablesBuilt() float64 { return obs.Default.Sum("probkb_kb_image_tables_built_total") }

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
		// The DELETE route itself refuses the image's catalog.
		if n, err := k.sqlDB().Exec(stmt); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Errorf("Exec(%q) on the image = %d, %v; want a read-only refusal", stmt, n, err)
		}
	}
	if after := k.inner.Catalog().MustGet("T").String(); after != before {
		t.Fatalf("T changed:\n%s\nwas\n%s", after, before)
	}
}
