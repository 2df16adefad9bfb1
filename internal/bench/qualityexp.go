package bench

import (
	"fmt"
	"io"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// QCConfig is one quality-control configuration of Table 4.
type QCConfig struct {
	Name        string
	Constraints bool
	Theta       float64
	// MaxIters caps grounding: the paper stops uncontrolled runs at
	// iteration 4 because the KB "grows unmanageably large".
	MaxIters int
}

// Table4Configs returns the six configurations of Table 4.
func Table4Configs() []QCConfig {
	return []QCConfig{
		{Name: "no-SC no-RC", Constraints: false, Theta: 1.0, MaxIters: 4},
		{Name: "RC top 20%", Constraints: false, Theta: 0.2, MaxIters: 4},
		{Name: "RC top 10%", Constraints: false, Theta: 0.1, MaxIters: 4},
		{Name: "SC only", Constraints: true, Theta: 1.0, MaxIters: 15},
		{Name: "SC RC top 50%", Constraints: true, Theta: 0.5, MaxIters: 15},
		{Name: "SC RC top 20%", Constraints: true, Theta: 0.2, MaxIters: 15},
	}
}

// Table4 prints the parameter grid.
func Table4(_ Config, w io.Writer) error {
	fmt.Fprintf(w, "Table 4: quality control parameters\n\n")
	fmt.Fprintf(w, "  %-16s %-12s %-8s %s\n", "Config", "Constraints", "θ", "Iteration cap")
	for _, qc := range Table4Configs() {
		fmt.Fprintf(w, "  %-16s %-12v %-8.2g %d\n", qc.Name, qc.Constraints, qc.Theta, qc.MaxIters)
	}
	return nil
}

// Fig7aPoint is one iteration's quality measurement for one config.
type Fig7aPoint struct {
	Iteration int
	Correct   int
	Inferred  int
	Precision float64
}

// Fig7aSeries is one config's precision/recall curve.
type Fig7aSeries struct {
	Config QCConfig
	Points []Fig7aPoint
}

// Fig7a runs knowledge expansion under each Table 4 configuration,
// scoring the inferred facts against the planted truth after every
// iteration — the precision-vs-correct-facts curves of Figure 7(a).
func Fig7a(cfg Config, w io.Writer) ([]Fig7aSeries, error) {
	cfg = cfg.withDefaults()
	c, err := cfg.corpus()
	if err != nil {
		return nil, err
	}

	var out []Fig7aSeries
	for _, qc := range Table4Configs() {
		series, err := runQCConfig(c, qc)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7a %q: %w", qc.Name, err)
		}
		out = append(out, series)
	}

	fmt.Fprintf(w, "Figure 7(a): precision of inferred facts under quality control (scale=%.3g)\n\n", cfg.Scale)
	fmt.Fprintf(w, "  %-16s %10s %10s %10s\n", "Config", "#inferred", "#correct", "precision")
	for _, s := range out {
		last := Fig7aPoint{}
		if len(s.Points) > 0 {
			last = s.Points[len(s.Points)-1]
		}
		fmt.Fprintf(w, "  %-16s %10d %10d %10.3f\n", s.Config.Name, last.Inferred, last.Correct, last.Precision)
	}
	fmt.Fprintf(w, "\n  per-iteration curves:\n")
	for _, s := range out {
		fmt.Fprintf(w, "  %-16s:", s.Config.Name)
		for _, p := range s.Points {
			fmt.Fprintf(w, " (%d, %.2f)", p.Correct, p.Precision)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n  paper: no-QC precision 0.14; SC only 0.55 at 23K facts; SC+RC20%% 0.75 at 16K facts\n")
	return out, nil
}

// runQCConfig expands the corpus KB under one QC configuration, scoring
// after each iteration.
func runQCConfig(c *synth.Corpus, qc QCConfig) (Fig7aSeries, error) {
	work := c.KB
	if qc.Theta < 1 {
		work = quality.CleanRules(work, qc.Theta)
	} else {
		work = work.Clone()
	}
	opts := ground.Options{MaxIterations: qc.MaxIters}
	if qc.Constraints {
		quality.PreClean(work)
		opts.ConstraintHook = quality.NewChecker(work).Hook()
	}
	base := work.Stats().Facts
	series := Fig7aSeries{Config: qc}
	opts.Observer = func(st ground.IterStats, tpi *engine.Table) {
		correct, total := c.Oracle.EvalInferred(tpi, base)
		p := Fig7aPoint{Iteration: st.Iteration, Correct: correct, Inferred: total}
		if total > 0 {
			p.Precision = float64(correct) / float64(total)
		}
		series.Points = append(series.Points, p)
	}
	if _, err := ground.Ground(work, opts); err != nil {
		return series, err
	}
	return series, nil
}

// Fig7b grounds the raw corpus (no quality control, capped as in the
// paper), finds every functional-constraint violation, and categorizes
// them against the planted truth — the error-source pie of Figure 7(b).
func Fig7b(cfg Config, w io.Writer) (quality.Breakdown, error) {
	cfg = cfg.withDefaults()
	c, err := cfg.corpus()
	if err != nil {
		return quality.Breakdown{}, err
	}
	res, err := ground.Ground(c.KB, ground.Options{MaxIterations: 3, SkipFactors: true})
	if err != nil {
		return quality.Breakdown{}, err
	}
	checker := quality.NewChecker(c.KB)
	viol := checker.Violations(res.Facts)
	b := c.Oracle.CategorizeAll(viol, res.Facts, int(res.FirstDerived))

	fmt.Fprintf(w, "Figure 7(b): error sources behind %d constraint violations (scale=%.3g)\n\n",
		len(viol), cfg.Scale)
	fmt.Fprint(w, b.String())
	fmt.Fprintf(w, "\n  paper: ambiguities 34%%, ambiguous join keys 24%%, incorrect rules 33%%, "+
		"incorrect extractions 6%%, general types 2%%, synonyms 1%%\n")
	return b, nil
}

// Feedback contrasts score-only rule cleaning with constraint-informed
// cleaning (the paper's §6.2.3 future-work suggestion, implemented in
// quality.CleanRulesWithConstraints) at the same θ.
func Feedback(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	c, err := cfg.corpus()
	if err != nil {
		return err
	}
	theta := 0.2

	run := func(work *kb.KB) (inferred, correct int, err error) {
		res, err := ground.Ground(work, ground.Options{MaxIterations: 4, SkipFactors: true})
		if err != nil {
			return 0, 0, err
		}
		cc, tt := c.Oracle.EvalInferred(res.Facts, int(res.FirstDerived))
		return tt, cc, nil
	}

	plain := quality.CleanRules(c.KB, theta)
	pi, pc, err := run(plain)
	if err != nil {
		return err
	}
	informed, err := quality.CleanRulesWithConstraints(c.KB, theta, 4)
	if err != nil {
		return err
	}
	ii, ic, err := run(informed)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Constraint-informed rule cleaning (θ=%.2g, scale=%.3g)\n\n", theta, cfg.Scale)
	fmt.Fprintf(w, "  %-26s %10s %10s %10s\n", "cleaning", "#inferred", "#correct", "precision")
	prec := func(c, t int) float64 {
		if t == 0 {
			return 0
		}
		return float64(c) / float64(t)
	}
	fmt.Fprintf(w, "  %-26s %10d %10d %10.3f\n", "score only (Sherlock)", pi, pc, prec(pc, pi))
	fmt.Fprintf(w, "  %-26s %10d %10d %10.3f\n", "constraint-informed", ii, ic, prec(ic, ii))
	fmt.Fprintf(w, "\n  paper §6.2.3: \"it is possible to use semantic constraints to improve rule learners\"\n")
	return nil
}

// GrowthRow is one iteration's fact count with and without constraints.
type GrowthRow struct {
	Iteration    int
	FactsRaw     int
	FactsSC      int
	ConvergedRaw bool
	ConvergedSC  bool
}

// Growth reproduces the Section 6.1.1 narrative: without constraints the
// KB grows unmanageably; with them the closure stays small and
// terminates.
func Growth(cfg Config, w io.Writer) ([]GrowthRow, error) {
	cfg = cfg.withDefaults()
	c, err := cfg.corpus()
	if err != nil {
		return nil, err
	}
	const iters = 5

	sizes := func(k *kb.KB, constraints bool) ([]int, bool, error) {
		work := k.Clone()
		opts := ground.Options{MaxIterations: iters, SkipFactors: true}
		if constraints {
			quality.PreClean(work)
			opts.ConstraintHook = quality.NewChecker(work).Hook()
		}
		var out []int
		opts.Observer = func(_ ground.IterStats, tpi *engine.Table) {
			out = append(out, tpi.NumRows())
		}
		res, err := ground.Ground(work, opts)
		if err != nil {
			return nil, false, err
		}
		return out, res.Converged, nil
	}

	raw, convRaw, err := sizes(c.KB, false)
	if err != nil {
		return nil, err
	}
	sc, convSC, err := sizes(c.KB, true)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "KB growth per grounding iteration, with vs without semantic constraints (scale=%.3g)\n\n", cfg.Scale)
	fmt.Fprintf(w, "  %10s %14s %14s\n", "iteration", "facts (raw)", "facts (SC)")
	var rows []GrowthRow
	for i := 0; i < iters; i++ {
		row := GrowthRow{Iteration: i + 1, FactsRaw: -1, FactsSC: -1, ConvergedRaw: convRaw, ConvergedSC: convSC}
		if i < len(raw) {
			row.FactsRaw = raw[i]
		}
		if i < len(sc) {
			row.FactsSC = sc[i]
		}
		rows = append(rows, row)
		rawS, scS := "-", "-"
		if row.FactsRaw >= 0 {
			rawS = fmt.Sprint(row.FactsRaw)
		}
		if row.FactsSC >= 0 {
			scS = fmt.Sprint(row.FactsSC)
		}
		fmt.Fprintf(w, "  %10d %14s %14s\n", row.Iteration, rawS, scS)
	}
	fmt.Fprintf(w, "\n  raw converged: %v; with constraints converged: %v\n", convRaw, convSC)
	fmt.Fprintf(w, "  paper: without constraints iteration 5 is infeasible (592M factors after 4); "+
		"with them grounding finishes 15 iterations in 2 minutes\n")
	return rows, nil
}
