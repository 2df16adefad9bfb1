package kb

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probkb/internal/mln"
)

func TestParseRuleShapes(t *testing.T) {
	k := New()
	cases := []struct {
		line string
		want int
	}{
		{"1.4 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)", mln.P1},
		{"0.9 author_of(x:Writer, y:Book) :- wrote(y:Book, x:Writer)", mln.P2},
		{"0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x:Place), live_in(z, y:City)", mln.P3},
		{"0.5 p(x:A, y:B) :- q(x:A, z:C), r(z, y:B)", mln.P4},
		{"0.5 p(x:A, y:B) :- q(z:C, x:A), r(y:B, z)", mln.P5},
		{"0.5 p(x:A, y:B) :- q(x:A, z:C), r(y:B, z)", mln.P6},
	}
	for _, tc := range cases {
		c, err := k.ParseRule(tc.line)
		if err != nil {
			t.Errorf("parse %q: %v", tc.line, err)
			continue
		}
		got, err := c.Partition()
		if err != nil || got != tc.want {
			t.Errorf("%q: partition = %d, %v; want %d", tc.line, got, err, tc.want)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	k := New()
	cases := []string{
		"",                                        // empty
		"1.4",                                     // no atoms
		"oops p(x:A, y:B) :- q(x, y)",             // bad weight
		"1.4 p(x:A, y:B)",                         // missing :-
		"1.4 p(x:A) :- q(x, y:B)",                 // unary head
		"1.4 p(x:A, y:B) :- q(x, y), r(x, y)",     // body atom with both head vars
		"1.4 p(x:A, y:B) :- q(x, z)",              // dangling z
		"1.4 p(x, y) :- q(x, y)",                  // no class annotations
		"1.4 p(x:A, y:B) :- q(x:Z, y)",            // conflicting annotation for x
		"1.4 p(x:A, y:B) :- q(w:C, v:D), r(v, y)", // too many variables
		"1.4 (x:A, y:B) :- q(x, y)",               // empty relation name
	}
	for _, line := range cases {
		if _, err := k.ParseRule(line); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", line)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	k := New()
	lines := []string{
		"1.4 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)",
		"0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x:Place), live_in(z:Writer, y:City)",
		"0.5 p(x:A, y:B) :- q(x:A, z:C), r(y:B, z:C)",
	}
	for _, line := range lines {
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		formatted := k.FormatRule(c)
		c2, err := k.ParseRule(formatted)
		if err != nil {
			t.Fatalf("re-parse %q: %v", formatted, err)
		}
		if c.Head != c2.Head || len(c.Body) != len(c2.Body) || c.Class != c2.Class || c.Weight != c2.Weight {
			t.Fatalf("round trip changed clause: %q -> %q", line, formatted)
		}
		for i := range c.Body {
			if c.Body[i] != c2.Body[i] {
				t.Fatalf("round trip changed body: %q -> %q", line, formatted)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := exampleKB(t)
	dir := filepath.Join(t.TempDir(), "kbdir")
	if err := k.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != k.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", loaded.Stats(), k.Stats())
	}
	// Every original fact must exist in the loaded KB under its names.
	for i := range k.NumFacts() {
		f := k.FactAt(i)
		name := k.FactString(f)
		found := false
		for i := range loaded.NumFacts() {
			lf := loaded.FactAt(i)
			if loaded.FactString(lf) == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fact %q lost in round trip", name)
		}
	}
	// Rules and constraints survive.
	if len(loaded.Rules) != len(k.Rules) || len(loaded.Constraints) != len(k.Constraints) {
		t.Fatal("rules or constraints lost")
	}
}

func TestLoadDirMissingOptionalFiles(t *testing.T) {
	k := New()
	k.InternFact("r", "a", "C", "b", "D", 0.5)
	dir := filepath.Join(t.TempDir(), "kbdir")
	if err := k.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []string{"rules.txt", "constraints.tsv", "members.tsv"} {
		if err := os.Remove(filepath.Join(dir, opt)); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().Facts != 1 {
		t.Fatal("facts lost")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading a missing directory should fail")
	}
	// Corrupt facts file.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "relations.tsv"), []byte("r\tA\tB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "facts.tsv"), []byte("only\ttwo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "facts.tsv:1") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestWeightFormatting(t *testing.T) {
	cases := map[string]float64{
		"inf":  math.Inf(1),
		"0.96": 0.96,
	}
	for s, w := range cases {
		got, err := parseWeight(s)
		if err != nil {
			t.Fatalf("parseWeight(%q): %v", s, err)
		}
		if got != w {
			t.Fatalf("parseWeight(%q) = %v, want %v", s, got, w)
		}
	}
	if v, err := parseWeight("null"); err != nil || !math.IsNaN(v) {
		t.Fatal("null weight should parse to NaN")
	}
	if formatWeight(math.NaN()) != "null" || formatWeight(math.Inf(1)) != "inf" {
		t.Fatal("formatWeight sentinel handling wrong")
	}
	if _, err := parseWeight("abc"); err == nil {
		t.Fatal("bad weight accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	dir := t.TempDir()
	content := "# comment\n\nr\tA\tB\n"
	if err := os.WriteFile(filepath.Join(dir, "relations.tsv"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "facts.tsv"), []byte("# none\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RelDict.Len() != 1 {
		t.Fatal("comment or blank line mishandled")
	}
}
