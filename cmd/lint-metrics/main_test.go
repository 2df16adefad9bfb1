package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func collectSrc(t *testing.T, src string) []use {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	uses, err := collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	return uses
}

func TestLabelKeysValidated(t *testing.T) {
	src := `package p

func f() {
	obs.Default.Counter("probkb_good_total", obs.L("detector", "x")).Inc()
	obs.Default.Counter("probkb_good_total", obs.L("BadKey", "x")).Inc()
	Default.Counter("probkb_good_total", L("also-bad", "x")).Inc()
	obs.Default.Help("probkb_good_total", "h")
}
`
	problems := check(collectSrc(t, src))
	var badKey, alsoBad bool
	for _, p := range problems {
		badKey = badKey || strings.Contains(p, `label "BadKey"`)
		alsoBad = alsoBad || strings.Contains(p, `label "also-bad"`)
		if strings.Contains(p, `label "detector"`) {
			t.Errorf("valid label flagged: %s", p)
		}
	}
	if !badKey || !alsoBad {
		t.Fatalf("bad labels not flagged; problems: %v", problems)
	}
}

func TestMetricNameRules(t *testing.T) {
	src := `package p

func f() {
	obs.Default.Counter("probkb_missing_suffix").Inc()
	obs.Default.Gauge("probkb_ok_gauge").Set(1)
	obs.Default.Help("probkb_missing_suffix", "h")
	obs.Default.Help("probkb_ok_gauge", "h")
	obs.Default.Counter("probkb_no_help_total").Inc()
}
`
	problems := check(collectSrc(t, src))
	var suffix, help bool
	for _, p := range problems {
		suffix = suffix || strings.Contains(p, "counter must end in _total")
		help = help || strings.Contains(p, "probkb_no_help_total: no Help()")
	}
	if !suffix || !help {
		t.Fatalf("expected suffix and help problems, got: %v", problems)
	}
}

func TestHelpRegisteredOnce(t *testing.T) {
	src := `package p

func f() {
	obs.Default.Counter("probkb_twice_total").Inc()
	obs.Default.Help("probkb_twice_total", "h")
	obs.Default.Help("probkb_twice_total", "h, again, from a second owner")
	obs.Default.Gauge("probkb_once").Set(1)
	obs.Default.Help("probkb_once", "h")
}
`
	problems := check(collectSrc(t, src))
	if len(problems) != 1 || !strings.Contains(problems[0], "probkb_twice_total: Help() already registered at") {
		t.Fatalf("want exactly the duplicate-Help problem, got: %v", problems)
	}
}
