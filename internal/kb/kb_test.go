package kb

import (
	"math"
	"strings"
	"testing"

	"probkb/internal/mln"
)

// exampleKB reconstructs the Table 1 example from the paper.
func exampleKB(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.InternFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	rules := []string{
		"1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)",
		"1.53 live_in(x:Writer, y:City) :- born_in(x:Writer, y:City)",
		"0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x:Place), live_in(z, y:City)",
		"0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)",
	}
	for _, line := range rules {
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatalf("add %q: %v", line, err)
		}
	}
	bornIn, _ := k.RelDict.Lookup("born_in")
	if err := k.AddConstraint(Constraint{Rel: bornIn, Type: TypeI, Degree: 1}); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("kale")
	b := d.Intern("calcium")
	if a == b {
		t.Fatal("distinct symbols share an ID")
	}
	if again := d.Intern("kale"); again != a {
		t.Fatal("re-interning changed the ID")
	}
	if id, ok := d.Lookup("calcium"); !ok || id != b {
		t.Fatal("lookup failed")
	}
	if _, ok := d.Lookup("osteoporosis"); ok {
		t.Fatal("lookup invented a symbol")
	}
	if d.Name(a) != "kale" || d.Len() != 2 {
		t.Fatal("name/len wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Name on unknown ID did not panic")
		}
	}()
	d.Name(99)
}

func TestAddFactDedup(t *testing.T) {
	k := New()
	i1, fresh1 := k.InternFact("r", "a", "C", "b", "D", 0.5)
	i2, fresh2 := k.InternFact("r", "a", "C", "b", "D", 0.9)
	if !fresh1 || fresh2 {
		t.Fatalf("dedup flags wrong: %v %v", fresh1, fresh2)
	}
	if i1 != i2 {
		t.Fatal("duplicate fact got a new index")
	}
	if k.FactAt(i1).W != 0.9 {
		t.Fatalf("duplicate should keep max weight, got %v", k.FactAt(i1).W)
	}
	if k.NumFacts() != 1 {
		t.Fatalf("fact count = %d, want 1", k.NumFacts())
	}
	if !k.HasFact(k.FactAt(0).Key()) {
		t.Fatal("HasFact lost the fact")
	}
}

func TestAddRelationSignatures(t *testing.T) {
	k := New()
	c1 := k.Classes.Intern("A")
	c2 := k.Classes.Intern("B")
	id := k.AddRelation("r", c1, c2)
	if again := k.AddRelation("r", c1, c2); again != id {
		t.Fatal("re-adding changed relation ID")
	}
	if len(k.Relations) != 1 {
		t.Fatalf("duplicate signature registered twice: %d", len(k.Relations))
	}
	// The paper's Table 1 needs one name with several signatures:
	// born_in(W, P) and born_in(W, C).
	if other := k.AddRelation("r", c2, c1); other != id {
		t.Fatal("second signature should reuse the name ID")
	}
	if len(k.Relations) != 2 {
		t.Fatalf("distinct signature not registered: %d", len(k.Relations))
	}
}

func TestAddRuleValidation(t *testing.T) {
	k := New()
	hard := mln.Clause{
		Head:   mln.Atom{Rel: 0, Arg1: mln.X, Arg2: mln.Y},
		Body:   []mln.Atom{{Rel: 1, Arg1: mln.X, Arg2: mln.Y}},
		Weight: math.Inf(1),
	}
	if err := k.AddRule(hard); err == nil {
		t.Fatal("AddRule accepted a hard rule")
	}
	bad := mln.Clause{Head: mln.Atom{Rel: 0, Arg1: mln.Y, Arg2: mln.X}, Weight: 1}
	if err := k.AddRule(bad); err == nil {
		t.Fatal("AddRule accepted a malformed clause")
	}
}

func TestAddConstraintValidation(t *testing.T) {
	k := New()
	if err := k.AddConstraint(Constraint{Rel: 0, Type: 3, Degree: 1}); err == nil {
		t.Fatal("bad type accepted")
	}
	if err := k.AddConstraint(Constraint{Rel: 0, Type: TypeI, Degree: 0}); err == nil {
		t.Fatal("bad degree accepted")
	}
	if err := k.AddConstraint(Constraint{Rel: 0, Type: TypeII, Degree: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndStrings(t *testing.T) {
	k := exampleKB(t)
	s := k.Stats()
	if s.Facts != 2 || s.Rules != 4 || s.Constraints != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Entities != 3 {
		t.Fatalf("entities = %d, want 3", s.Entities)
	}
	if !strings.Contains(s.String(), "# rules") {
		t.Fatal("Stats.String malformed")
	}
	fs := k.FactString(k.FactAt(0))
	if !strings.Contains(fs, "born_in(Ruth_Gruber:Writer, New_York_City:City)") {
		t.Fatalf("FactString = %q", fs)
	}
	rs := k.FormatRule(k.Rules[0])
	if !strings.Contains(rs, "live_in") || !strings.Contains(rs, ":-") {
		t.Fatalf("FormatRule = %q", rs)
	}
}

func TestFactsTableLayout(t *testing.T) {
	k := exampleKB(t)
	tab := k.FactsTable()
	if tab.NumRows() != 2 {
		t.Fatalf("TΠ rows = %d, want 2", tab.NumRows())
	}
	if !tab.Schema().Equal(FactsSchema()) {
		t.Fatalf("TΠ schema = %s", tab.Schema())
	}
	if tab.Int32Col(TPiI)[1] != 1 {
		t.Fatal("fact IDs should be row indices")
	}
	f := FactAtRow(tab, 0)
	if f != k.FactAt(0) {
		t.Fatalf("FactAtRow = %+v, want %+v", f, k.FactAt(0))
	}
}

func TestClassRelationConstraintTables(t *testing.T) {
	k := exampleKB(t)
	tc := k.ClassTable()
	// 3 entities across 3 classes: Ruth(Writer), NYC(City), Brooklyn(Place).
	if tc.NumRows() != 3 {
		t.Fatalf("TC rows = %d, want 3:\n%s", tc.NumRows(), tc)
	}
	tr := k.RelationTable()
	// Signatures: born_in(W,C), born_in(W,P) from facts; live_in(W,P),
	// live_in(W,C), located_in(P,C) from rules.
	if tr.NumRows() != 5 {
		t.Fatalf("TR rows = %d, want 5:\n%s", tr.NumRows(), tr)
	}
	fc := k.ConstraintsTable()
	if fc.NumRows() != 1 || fc.Float64Col(TOmegaDeg)[0] != 1.0 {
		t.Fatalf("TΩ wrong:\n%s", fc)
	}
	de := dictTable("DE", k.Entities.Names())
	if de.NumRows() != 3 || de.StringCol(1)[0] != "Ruth_Gruber" {
		t.Fatalf("DE wrong:\n%s", de)
	}
}

func TestMLNPartitionsFromKB(t *testing.T) {
	k := exampleKB(t)
	p, err := k.MLNPartitions()
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats[mln.P1] != 2 || stats[mln.P3] != 2 {
		t.Fatalf("partition stats = %v", stats)
	}
}

func TestClone(t *testing.T) {
	k := exampleKB(t)
	c := k.Clone()
	c.InternFact("r_new", "e1", "C1", "e2", "C2", 0.1)
	c.Rules = c.Rules[:1]
	if k.NumFacts() != 2 || len(k.Rules) != 4 {
		t.Fatal("mutating the clone changed the original")
	}
	if c.Stats().Facts != 3 || c.Stats().Rules != 1 {
		t.Fatalf("clone stats wrong: %+v", c.Stats())
	}
	// Dictionaries must agree on shared symbols.
	id1, _ := k.Entities.Lookup("Ruth_Gruber")
	id2, _ := c.Entities.Lookup("Ruth_Gruber")
	if id1 != id2 {
		t.Fatal("clone renumbered entities")
	}
}
