// Command lint-metrics statically checks the repository's metric
// hygiene. It parses every non-test .go file and collects each
// .Counter("name", ...) / .Gauge(...) / .Histogram(...) / .Help(...)
// call whose name is a string literal (the only form the codebase
// uses), then enforces:
//
//   - every name is probkb_-prefixed snake_case,
//   - counters end in _total,
//   - histograms end in a unit suffix (_seconds, _bytes, or _ratio),
//   - every metric registered via Counter/Gauge/Histogram has a Help()
//     string somewhere in the tree — at one site only: a second Help()
//     for a name means a second package thinks it owns the metric,
//   - no name is used as two different metric kinds,
//   - every label key built with L("key", ...) / obs.L("key", ...) is
//     lower snake_case starting with a letter.
//
// Gauges are exempt from the unit-suffix rule: they legitimately carry
// either a unit (probkb_go_heap_bytes), a plain count
// (probkb_queries_in_flight), or a dimensionless value
// (probkb_infer_rhat_max), so a suffix rule would only force worse
// names. Everything else about them is still checked.
//
// Usage: lint-metrics [DIR] (default "."). Exit code 1 on violations,
// which are printed one per line as file:line: message.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	nameRE  = regexp.MustCompile(`^probkb_[a-z0-9]+(_[a-z0-9]+)*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
)

type use struct {
	pos  token.Position
	kind string // "counter", "gauge", "histogram", "help"
	name string
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	uses, err := collect(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint-metrics:", err)
		os.Exit(2)
	}
	problems := check(uses)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "lint-metrics: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("lint-metrics: ok (%d metric call sites)\n", len(uses))
}

func collect(root string) ([]use, error) {
	var uses []use
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			// L("key", value) / obs.L("key", value): a label
			// constructor. Validated separately — label keys have no
			// probkb_ prefix.
			if isLabelCtor(call.Fun) && len(call.Args) == 2 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if key, err := strconv.Unquote(lit.Value); err == nil {
						uses = append(uses, use{pos: fset.Position(lit.Pos()), kind: "label", name: key})
					}
				}
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var kind string
			switch sel.Sel.Name {
			case "Counter":
				kind = "counter"
			case "Gauge":
				kind = "gauge"
			case "Histogram":
				kind = "histogram"
			case "Help":
				kind = "help"
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(name, "probkb_") {
				// Selector names like Counter are generic; only probkb_
				// strings are certainly metrics (this also skips e.g. a
				// hypothetical foo.Help("usage text")).
				return true
			}
			uses = append(uses, use{pos: fset.Position(lit.Pos()), kind: kind, name: name})
			return true
		})
		return nil
	})
	return uses, err
}

// isLabelCtor recognizes the repository's two spellings of the label
// constructor: a bare L(...) inside package obs, obs.L(...) elsewhere.
func isLabelCtor(fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name == "L"
	case *ast.SelectorExpr:
		pkg, ok := f.X.(*ast.Ident)
		return ok && pkg.Name == "obs" && f.Sel.Name == "L"
	}
	return false
}

func check(uses []use) []string {
	var problems []string
	addf := func(pos token.Position, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
	}

	helped := map[string]token.Position{}
	kinds := map[string]string{} // name -> first metric kind seen
	firstUse := map[string]use{} // name -> first Counter/Gauge/Histogram use
	for _, u := range uses {
		if u.kind == "label" {
			if !labelRE.MatchString(u.name) {
				addf(u.pos, "label %q: not lower snake_case starting with a letter", u.name)
			}
			continue
		}
		if u.kind == "help" {
			if first, dup := helped[u.name]; dup {
				addf(u.pos, "%s: Help() already registered at %s", u.name, first)
			} else {
				helped[u.name] = u.pos
			}
			continue
		}
		if prev, ok := kinds[u.name]; ok && prev != u.kind {
			addf(u.pos, "%s used as %s but already used as %s (%s)",
				u.name, u.kind, prev, firstUse[u.name].pos)
			continue
		}
		kinds[u.name] = u.kind
		if _, ok := firstUse[u.name]; !ok {
			firstUse[u.name] = u
		}
	}

	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		u := firstUse[name]
		if !nameRE.MatchString(name) {
			addf(u.pos, "%s: not probkb_-prefixed snake_case", name)
		}
		switch kinds[name] {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				addf(u.pos, "%s: counter must end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") &&
				!strings.HasSuffix(name, "_ratio") {
				addf(u.pos, "%s: histogram must end in a unit suffix (_seconds, _bytes, _ratio)", name)
			}
		}
		if _, ok := helped[name]; !ok {
			addf(u.pos, "%s: no Help() registered anywhere", name)
		}
	}
	sort.Strings(problems)
	return problems
}
