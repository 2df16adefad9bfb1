// Command probkb-bench regenerates the paper's evaluation tables and
// figures (Section 6) on synthetic corpora.
//
// Usage:
//
//	probkb-bench -exp table2|table3|table4|fig4|fig6a|fig6b|fig6c|fig7a|fig7b|growth|feedback|workers|all
//	             [-scale 0.02] [-seed 42] [-segments 4] [-json PATH]
//
// A bare first argument is shorthand for -exp, so `probkb-bench table3`
// runs Table 3 alone. With -exp all each experiment's output follows a
// "==================== <id> ====================" banner.
//
// Besides the human-readable tables on stdout, the run's structured
// results and per-experiment wall times are written to BENCH_<date>.json
// (override the path with -json, disable with -json ""). An unknown
// experiment exits 2.
//
// Absolute times depend on the machine and scale; EXPERIMENTS.md records
// a reference run and compares shapes against the paper. The end-to-end
// serving, point-query and ingest workloads are measured by the
// benchmark/ module, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"probkb/internal/bench"
)

func main() {
	// `probkb-bench table3` reads as -exp table3: a bare first argument
	// names the experiment.
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		os.Args = append([]string{os.Args[0], "-exp", os.Args[1]}, os.Args[2:]...)
	}
	exp := flag.String("exp", "all", "experiment id (table2, table3, table4, fig4, fig6a, fig6b, fig6c, fig7a, fig7b, growth, feedback, workers, all)")
	scale := flag.Float64("scale", 0.02, "corpus scale relative to the paper (1.0 = 407K facts)")
	seed := flag.Int64("seed", 42, "generation seed")
	segments := flag.Int("segments", 4, "MPP cluster segments")
	now := time.Now()
	jsonPath := flag.String("json", fmt.Sprintf("BENCH_%s.json", now.Format("2006-01-02")),
		`also write results as JSON to this path ("" disables)`)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, Segments: *segments}
	w := os.Stdout

	type experiment struct {
		id  string
		run func() (any, error)
	}
	experiments := []experiment{
		{"table2", func() (any, error) { return nil, bench.Table2(cfg, w) }},
		{"table3", func() (any, error) { return bench.Table3(cfg, w) }},
		{"table4", func() (any, error) { return nil, bench.Table4(cfg, w) }},
		{"fig4", func() (any, error) { return nil, bench.Fig4(cfg, w) }},
		{"fig6a", func() (any, error) { return bench.Fig6a(cfg, w) }},
		{"fig6b", func() (any, error) { return bench.Fig6b(cfg, w) }},
		{"fig6c", func() (any, error) { return bench.Fig6c(cfg, w) }},
		{"fig7a", func() (any, error) { return bench.Fig7a(cfg, w) }},
		{"fig7b", func() (any, error) { return bench.Fig7b(cfg, w) }},
		{"growth", func() (any, error) { return bench.Growth(cfg, w) }},
		{"feedback", func() (any, error) { return nil, bench.Feedback(cfg, w) }},
		{"workers", func() (any, error) { return bench.Workers(cfg, w) }},
	}

	rep := bench.Report{
		Date: now.Format(time.RFC3339), Scale: *scale, Seed: *seed, Segments: *segments,
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		if *exp == "all" {
			fmt.Fprintf(w, "==================== %s ====================\n", e.id)
		}
		start := time.Now()
		result, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "probkb-bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		rep.Experiments = append(rep.Experiments, bench.ExperimentResult{
			ID: e.id, Seconds: time.Since(start).Seconds(), Result: result,
		})
		fmt.Fprintln(w)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "probkb-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *jsonPath != "" {
		body, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "probkb-bench: encoding report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(body, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "probkb-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "results written to %s\n", *jsonPath)
	}
}
