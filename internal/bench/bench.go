// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment prints the same rows or series
// the paper reports; cmd/probkb-bench is the CLI front end and the root
// bench_test.go wraps the same code in testing.B benchmarks.
//
// Absolute numbers differ from the paper — the substrate is an
// in-process engine, not PostgreSQL/Greenplum on a 32-core cluster, and
// the corpus is a scaled synthetic replacement — but the comparisons the
// paper makes (who wins, by how much, in which direction) reproduce.
// EXPERIMENTS.md records paper-vs-measured for every artifact.
package bench

import (
	"fmt"
	"io"

	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/synth"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies the paper's corpus sizes (1.0 = 407K facts,
	// 30,912 rules). The default harness scale is 0.02.
	Scale float64
	// Seed drives all generation.
	Seed int64
	// Segments sizes the MPP cluster.
	Segments int
}

// DefaultConfig is the harness default.
func DefaultConfig() Config {
	return Config{Scale: 0.02, Seed: 42, Segments: 4}
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.Segments == 0 {
		c.Segments = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Report is the BENCH_<date>.json document probkb-bench writes: one
// entry per experiment with its wall time and typed result rows.
type Report struct {
	Date        string             `json:"date"`
	Scale       float64            `json:"scale"`
	Seed        int64              `json:"seed"`
	Segments    int                `json:"segments"`
	Experiments []ExperimentResult `json:"experiments"`
}

// ExperimentResult is one experiment's record in a Report.
type ExperimentResult struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	// Result carries the experiment's typed rows when it returns them
	// (table3, fig6*, fig7*, growth, workers); table-only experiments
	// leave it null.
	Result any `json:"result,omitempty"`
}

// corpus generates the ReVerb-Sherlock-like dataset for the config.
func (c Config) corpus() (*synth.Corpus, error) {
	return synth.ReVerbSherlock(c.Scale, c.Seed)
}

// System identifies one grounding configuration under comparison.
type System int

// The systems of Section 6.1.
const (
	SysProbKBp  System = iota // MPP with redistributed views
	SysProbKB                 // single node
	SysTuffyT                 // per-rule baseline
	SysProbKBpn               // MPP without views
)

// String names the system as the paper does.
func (s System) String() string {
	switch s {
	case SysProbKBp:
		return "ProbKB-p"
	case SysProbKB:
		return "ProbKB"
	case SysTuffyT:
		return "Tuffy-T"
	case SysProbKBpn:
		return "ProbKB-pn"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Ground runs the system's grounder over k.
func (s System) Ground(k *kb.KB, opts ground.Options, segments int) (*ground.Result, error) {
	switch s {
	case SysProbKB:
		return ground.Ground(k, opts)
	case SysTuffyT:
		g, err := ground.NewTuffy(k, opts)
		if err != nil {
			return nil, err
		}
		return g.Ground()
	case SysProbKBp, SysProbKBpn:
		g, err := ground.NewMPP(k, opts, mpp.NewCluster(segments), s == SysProbKBp)
		if err != nil {
			return nil, err
		}
		return g.Ground()
	default:
		return nil, fmt.Errorf("bench: unknown system %v", s)
	}
}

// Table2 prints the corpus statistics the way Table 2 does.
func Table2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	c, err := cfg.corpus()
	if err != nil {
		return err
	}
	st := c.KB.Stats()
	fmt.Fprintf(w, "Table 2: synthetic ReVerb-Sherlock KB statistics (scale=%.3g)\n\n", cfg.Scale)
	fmt.Fprintf(w, "  # relations  %8d      # entities %8d\n", st.Relations, st.Entities)
	fmt.Fprintf(w, "  # rules      %8d      # facts    %8d\n", st.Rules, st.Facts)
	fmt.Fprintf(w, "  # classes    %8d      # constraints %5d\n", st.Classes, st.Constraints)
	fmt.Fprintf(w, "  (hidden true world: %d facts; %d sound rules, %d planted-wrong rules)\n",
		c.TrueWorldSize, len(c.SoundRules), len(c.WrongRules))
	fmt.Fprintf(w, "\n  paper at scale 1: %d relations, %d rules, %d entities, %d facts\n",
		synth.PaperRelations, synth.PaperRules, synth.PaperEntities, synth.PaperFacts)
	return nil
}
