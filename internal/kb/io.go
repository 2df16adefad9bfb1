package kb

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"probkb/internal/mln"
)

// On-disk layout: a KB directory holds
//
//	relations.tsv    name <TAB> domainClass <TAB> rangeClass
//	facts.tsv        rel <TAB> x <TAB> xClass <TAB> y <TAB> yClass <TAB> weight
//	rules.txt        one weighted Horn clause per line (see ParseRule)
//	constraints.tsv  rel <TAB> type(1|2) <TAB> degree
//	members.tsv      class <TAB> entity   (memberships beyond those implied by facts)
//	taxonomy.tsv     subclass <TAB> superclass
//
// Lines starting with '#' and blank lines are ignored everywhere.

// SaveDir writes the KB into dir, creating it if needed.
func (k *KB) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("kb: creating %s: %w", dir, err)
	}
	if err := k.writeRelations(filepath.Join(dir, "relations.tsv")); err != nil {
		return err
	}
	if err := k.writeFacts(filepath.Join(dir, "facts.tsv")); err != nil {
		return err
	}
	if err := k.writeRules(filepath.Join(dir, "rules.txt")); err != nil {
		return err
	}
	if err := k.writeConstraints(filepath.Join(dir, "constraints.tsv")); err != nil {
		return err
	}
	if err := k.writeTaxonomy(filepath.Join(dir, "taxonomy.tsv")); err != nil {
		return err
	}
	return k.writeMembers(filepath.Join(dir, "members.tsv"))
}

// LoadDir reads a KB directory written by SaveDir. Missing optional files
// (rules, constraints, members) load as empty.
func LoadDir(dir string) (*KB, error) {
	k := New()
	if err := k.readRelations(filepath.Join(dir, "relations.tsv")); err != nil {
		return nil, err
	}
	if err := k.readFacts(filepath.Join(dir, "facts.tsv")); err != nil {
		return nil, err
	}
	k.SealFacts()
	for _, f := range []struct {
		name string
		read func(string) error
	}{
		{"taxonomy.tsv", k.readTaxonomy}, // before members: propagation
		{"rules.txt", k.readRules},
		{"constraints.tsv", k.readConstraints},
		{"members.tsv", k.readMembers},
	} {
		path := filepath.Join(dir, f.name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			continue
		}
		if err := f.read(path); err != nil {
			return nil, err
		}
	}
	return k, nil
}

func writeLines(path string, write func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kb: creating %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLines(path string, handle func(lineno int, line string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("kb: opening %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := handle(lineno, line); err != nil {
			return fmt.Errorf("kb: %s:%d: %w", path, lineno, err)
		}
	}
	return sc.Err()
}

func (k *KB) writeRelations(path string) error {
	return writeLines(path, func(w *bufio.Writer) error {
		for _, r := range k.Relations {
			fmt.Fprintf(w, "%s\t%s\t%s\n", r.Name, k.Classes.Name(r.Domain), k.Classes.Name(r.Range))
		}
		return nil
	})
}

func (k *KB) readRelations(path string) error {
	return readLines(path, func(_ int, line string) error {
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return fmt.Errorf("want 3 tab-separated fields, got %d", len(parts))
		}
		dom := k.Classes.Intern(parts[1])
		rng := k.Classes.Intern(parts[2])
		k.AddRelation(parts[0], dom, rng)
		return nil
	})
}

func (k *KB) writeFacts(path string) error {
	return writeLines(path, func(w *bufio.Writer) error {
		for i := range k.NumFacts() {
			f := k.FactAt(i)
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
				k.RelDict.Name(f.Rel),
				k.Entities.Name(f.X), k.Classes.Name(f.XClass),
				k.Entities.Name(f.Y), k.Classes.Name(f.YClass),
				formatWeight(f.W))
		}
		return nil
	})
}

func (k *KB) readFacts(path string) error {
	return readLines(path, func(_ int, line string) error {
		parts := strings.Split(line, "\t")
		if len(parts) != 6 {
			return fmt.Errorf("want 6 tab-separated fields, got %d", len(parts))
		}
		w, err := parseWeight(parts[5])
		if err != nil {
			return err
		}
		k.InternFact(parts[0], parts[1], parts[2], parts[3], parts[4], w)
		return nil
	})
}

func (k *KB) writeRules(path string) error {
	return writeLines(path, func(w *bufio.Writer) error {
		for _, c := range k.Rules {
			fmt.Fprintln(w, k.FormatRule(c))
		}
		return nil
	})
}

func (k *KB) readRules(path string) error {
	return readLines(path, func(_ int, line string) error {
		c, err := k.ParseRule(line)
		if err != nil {
			return err
		}
		return k.AddRule(c)
	})
}

func (k *KB) writeConstraints(path string) error {
	return writeLines(path, func(w *bufio.Writer) error {
		for _, c := range k.Constraints {
			fmt.Fprintf(w, "%s\t%d\t%d\n", k.RelDict.Name(c.Rel), c.Type, c.Degree)
		}
		return nil
	})
}

func (k *KB) readConstraints(path string) error {
	return readLines(path, func(_ int, line string) error {
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return fmt.Errorf("want 3 tab-separated fields, got %d", len(parts))
		}
		rel, ok := k.RelDict.Lookup(parts[0])
		if !ok {
			return fmt.Errorf("constraint over unknown relation %q", parts[0])
		}
		typ, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("bad constraint type %q", parts[1])
		}
		deg, err := strconv.Atoi(parts[2])
		if err != nil {
			return fmt.Errorf("bad constraint degree %q", parts[2])
		}
		return k.AddConstraint(Constraint{Rel: rel, Type: typ, Degree: deg})
	})
}

func (k *KB) writeTaxonomy(path string) error {
	return writeLines(path, func(w *bufio.Writer) error {
		for _, e := range k.SubclassEdges() {
			fmt.Fprintf(w, "%s\t%s\n", k.Classes.Name(e.Sub), k.Classes.Name(e.Super))
		}
		return nil
	})
}

func (k *KB) readTaxonomy(path string) error {
	return readLines(path, func(_ int, line string) error {
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			return fmt.Errorf("want 2 tab-separated fields, got %d", len(parts))
		}
		return k.DeclareSubclass(k.Classes.Intern(parts[0]), k.Classes.Intern(parts[1]))
	})
}

func (k *KB) writeMembers(path string) error {
	return writeLines(path, func(w *bufio.Writer) error {
		for _, m := range k.Members {
			fmt.Fprintf(w, "%s\t%s\n", k.Classes.Name(m.Class), k.Entities.Name(m.Entity))
		}
		return nil
	})
}

func (k *KB) readMembers(path string) error {
	return readLines(path, func(_ int, line string) error {
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			return fmt.Errorf("want 2 tab-separated fields, got %d", len(parts))
		}
		k.AddMember(k.Classes.Intern(parts[0]), k.Entities.Intern(parts[1]))
		return nil
	})
}

func formatWeight(w float64) string {
	if math.IsInf(w, +1) {
		return "inf"
	}
	if math.IsNaN(w) {
		return "null"
	}
	return strconv.FormatFloat(w, 'g', -1, 64)
}

func parseWeight(s string) (float64, error) {
	switch strings.ToLower(s) {
	case "inf", "+inf", "infinity":
		return math.Inf(+1), nil
	case "null", "nan":
		return math.NaN(), nil
	}
	w, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad weight %q", s)
	}
	return w, nil
}

// FormatRule renders a clause in the rules.txt syntax, with class
// annotations on every variable occurrence:
//
//	1.4 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)
func (k *KB) FormatRule(c mln.Clause) string {
	var b strings.Builder
	b.WriteString(formatWeight(c.Weight))
	b.WriteByte(' ')
	atom := func(a mln.Atom) {
		fmt.Fprintf(&b, "%s(%s:%s, %s:%s)", k.RelDict.Name(a.Rel),
			a.Arg1, k.Classes.Name(c.Class[a.Arg1]),
			a.Arg2, k.Classes.Name(c.Class[a.Arg2]))
	}
	atom(c.Head)
	b.WriteString(" :- ")
	for i, a := range c.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		atom(a)
	}
	return b.String()
}

// ParseRule parses one rules.txt line into a canonical clause, interning
// relation and class symbols into the KB's dictionaries. The grammar is
//
//	rule   := weight atom ":-" atom ["," atom]
//	weight := float | "inf"
//	atom   := relName "(" arg "," arg ")"
//	arg    := varName [":" className]
//
// Each variable needs a class annotation on at least one occurrence;
// conflicting annotations are an error.
func (k *KB) ParseRule(line string) (mln.Clause, error) {
	weightStr, rest, ok := strings.Cut(strings.TrimSpace(line), " ")
	if !ok {
		return mln.Clause{}, fmt.Errorf("rule %q: missing weight", line)
	}
	weight, err := parseWeight(weightStr)
	if err != nil {
		return mln.Clause{}, fmt.Errorf("rule %q: %w", line, err)
	}

	headStr, bodyStr, ok := strings.Cut(rest, ":-")
	if !ok {
		return mln.Clause{}, fmt.Errorf("rule %q: missing \":-\"", line)
	}

	vars := make(map[string]int)   // var name → raw var number
	classes := make(map[int]int32) // raw var number → class ID
	varNo := func(name string) int {
		if n, ok := vars[name]; ok {
			return n
		}
		n := len(vars)
		vars[name] = n
		return n
	}

	parseAtom := func(s string) (mln.RawAtom, error) {
		s = strings.TrimSpace(s)
		open := strings.IndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			return mln.RawAtom{}, fmt.Errorf("bad atom %q", s)
		}
		rel := strings.TrimSpace(s[:open])
		if rel == "" {
			return mln.RawAtom{}, fmt.Errorf("bad atom %q: empty relation", s)
		}
		argsStr := s[open+1 : len(s)-1]
		args := strings.Split(argsStr, ",")
		if len(args) != 2 {
			return mln.RawAtom{}, fmt.Errorf("bad atom %q: want 2 arguments", s)
		}
		var nums [2]int
		var argClasses [2]int32
		var haveClass [2]bool
		for i, a := range args {
			a = strings.TrimSpace(a)
			name, cls, annotated := strings.Cut(a, ":")
			name = strings.TrimSpace(name)
			if name == "" {
				return mln.RawAtom{}, fmt.Errorf("bad atom %q: empty variable", s)
			}
			nums[i] = varNo(name)
			if annotated {
				cls = strings.TrimSpace(cls)
				if cls == "" {
					return mln.RawAtom{}, fmt.Errorf("bad atom %q: empty class", s)
				}
				argClasses[i] = k.Classes.Intern(cls)
				haveClass[i] = true
			}
		}
		for i := range nums {
			if !haveClass[i] {
				continue
			}
			if prev, seen := classes[nums[i]]; seen && prev != argClasses[i] {
				return mln.RawAtom{}, fmt.Errorf("variable %q annotated with conflicting classes", args[i])
			}
			classes[nums[i]] = argClasses[i]
		}
		return mln.RawAtom{Rel: k.RelDict.Intern(rel), Arg1: nums[0], Arg2: nums[1]}, nil
	}

	head, err := parseAtom(headStr)
	if err != nil {
		return mln.Clause{}, fmt.Errorf("rule %q: head: %w", line, err)
	}
	var body []mln.RawAtom
	for _, part := range splitAtoms(bodyStr) {
		a, err := parseAtom(part)
		if err != nil {
			return mln.Clause{}, fmt.Errorf("rule %q: body: %w", line, err)
		}
		body = append(body, a)
	}
	for name, n := range vars {
		if _, ok := classes[n]; !ok {
			return mln.Clause{}, fmt.Errorf("rule %q: variable %q has no class annotation", line, name)
		}
	}
	c, err := mln.Canonicalize(head, body, classes, weight)
	if err != nil {
		return mln.Clause{}, fmt.Errorf("rule %q: %w", line, err)
	}
	// A rule atom p(x:C1, y:C2) declares a signature of p; register it so
	// TR covers relations that appear only in rules.
	register := func(a mln.Atom) {
		k.AddRelation(k.RelDict.Name(a.Rel), c.Class[a.Arg1], c.Class[a.Arg2])
	}
	register(c.Head)
	for _, a := range c.Body {
		register(a)
	}
	return c, nil
}

// splitAtoms splits "a(x,y), b(y,z)" on the commas *between* atoms (the
// ones outside parentheses).
func splitAtoms(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
