package journal

import (
	"sort"
	"strings"
)

// Analyzers over a read-back Run: the post-hoc workload analysis layer.
// Skew/straggler detection reproduces what Figure 6's scaling analysis
// needs (a segment doing disproportionate work caps MPP speedup), and
// the convergence timeline gives inference results the trust evidence
// MCMC requires.

// SkewThreshold is the imbalance ratio (max over mean) above which a
// per-operator segment distribution is flagged as skewed. A perfectly
// balanced operator scores 1.0; 1.5 means the busiest segment carries
// half again the average load.
const SkewThreshold = 1.5

// SkewRow is one distributed operator's per-segment balance sheet.
type SkewRow struct {
	Query     string `json:"query"`
	Partition int    `json:"partition"`
	Iteration int    `json:"iteration"`
	Label     string `json:"label"`
	SegRows   []int  `json:"seg_rows,omitempty"`
	// RowImbalance is max/mean over per-segment output rows; 0 when the
	// operator produced no rows.
	RowImbalance float64 `json:"row_imbalance"`
	// TimeImbalance is max/mean over per-segment task seconds; 0 when
	// per-segment times were not recorded.
	TimeImbalance float64 `json:"time_imbalance"`
	// Straggler is the index of the slowest segment (by task seconds,
	// falling back to rows), or -1 when indistinguishable.
	Straggler int `json:"straggler"`
	// Flagged reports whether either imbalance exceeds SkewThreshold.
	Flagged bool `json:"flagged"`
}

// Skew walks one captured plan and returns a balance row for every
// operator that recorded a per-segment breakdown.
func Skew(p QueryProfile) []SkewRow {
	var out []SkewRow
	skewWalk(p, p.Plan, &out)
	return out
}

func skewWalk(p QueryProfile, n PlanNode, out *[]SkewRow) {
	if len(n.SegRows) > 1 || len(n.SegSeconds) > 1 {
		row := SkewRow{
			Query:     p.Query,
			Partition: p.Partition,
			Iteration: p.Iteration,
			Label:     opKind(n.Label),
			SegRows:   n.SegRows,
			Straggler: -1,
		}
		row.RowImbalance = imbalance(intsToF64(n.SegRows))
		row.TimeImbalance = imbalance(n.SegSeconds)
		if i := argMax(n.SegSeconds); i >= 0 {
			row.Straggler = i
		} else if i := argMax(intsToF64(n.SegRows)); i >= 0 {
			row.Straggler = i
		}
		row.Flagged = row.RowImbalance > SkewThreshold || row.TimeImbalance > SkewThreshold
		*out = append(*out, row)
	}
	for _, k := range n.Children {
		skewWalk(p, k, out)
	}
}

// imbalance is max/mean of a non-negative series, or 0 when the series
// is empty or sums to zero.
func imbalance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum <= 0 {
		return 0
	}
	return max / (sum / float64(len(xs)))
}

func argMax(xs []float64) int {
	best, bestAt := 0.0, -1
	for i, x := range xs {
		if x > best {
			best, bestAt = x, i
		}
	}
	return bestAt
}

func intsToF64(xs []int) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// OperatorCost aggregates one operator kind's self time and output rows
// across every captured plan.
type OperatorCost struct {
	Label   string  `json:"label"`
	Count   int     `json:"count"`
	Rows    int     `json:"rows"`
	Seconds float64 `json:"seconds"`
}

// PhaseTime is one pipeline phase's wall time from the run_end summary.
type PhaseTime struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// ConvergencePoint is one checkpoint on the R-hat/ESS trajectory.
type ConvergencePoint struct {
	Sweep         int     `json:"sweep"`
	Burnin        bool    `json:"burnin,omitempty"`
	Flips         int     `json:"flips"`
	Seconds       float64 `json:"seconds"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	RHatMax       float64 `json:"rhat_max,omitempty"`
	ESSMin        float64 `json:"ess_min,omitempty"`
}

// RHatThreshold is the conventional convergence criterion.
const RHatThreshold = 1.1

// Convergence summarizes the Gibbs timeline: the trajectory, the first
// post-burn-in checkpoint whose worst R-hat crossed below the
// threshold, and the final per-atom diagnostics.
type Convergence struct {
	Timeline []ConvergencePoint `json:"timeline"`
	// SweepToThreshold / SecondsToThreshold locate the first checkpoint
	// with 0 < RHatMax <= RHatThreshold; -1 when never reached.
	SweepToThreshold   int             `json:"sweep_to_threshold"`
	SecondsToThreshold float64         `json:"seconds_to_threshold"`
	FinalRHatMax       float64         `json:"final_rhat_max"`
	FinalESSMin        float64         `json:"final_ess_min"`
	Tracked            []VarDiagnostic `json:"tracked,omitempty"`
}

// FaultSummary aggregates the injected faults and segment retries of a
// chaos run (an expand under an active mpp.FaultPlan).
type FaultSummary struct {
	// Injected counts injected faults by kind ("fail", "panic",
	// "straggle").
	Injected map[string]int `json:"injected"`
	// Retries is the total number of segment task re-executions.
	Retries int `json:"retries"`
	// BySegment counts faults per segment index.
	BySegment map[int]int `json:"by_segment,omitempty"`
}

// Total returns the total injected fault count.
func (f *FaultSummary) Total() int {
	n := 0
	for _, c := range f.Injected {
		n += c
	}
	return n
}

// Profile is the full analysis of one run.
type Profile struct {
	Header *Header `json:"header,omitempty"`
	// Phases is the load/ground/factor/infer wall-time breakdown.
	Phases     []PhaseTime `json:"phases,omitempty"`
	Iterations []Iteration `json:"iterations,omitempty"`
	// Operators is every operator kind sorted by total self time,
	// descending.
	Operators []OperatorCost `json:"operators,omitempty"`
	// Skew has one row per distributed operator occurrence, sorted by
	// worst imbalance descending; flagged rows lead.
	Skew []SkewRow `json:"skew,omitempty"`
	// Motions is sorted by bytes shipped, descending.
	Motions []Motion `json:"motions,omitempty"`
	Repairs []Repair `json:"repairs,omitempty"`
	// FaultInjection is non-nil when the run recorded injected faults or
	// retries (a chaos run).
	FaultInjection *FaultSummary `json:"fault_injection,omitempty"`
	Inference      *Inference    `json:"inference,omitempty"`
	Convergence    *Convergence  `json:"convergence,omitempty"`
	End            *RunEnd       `json:"end,omitempty"`
	// DroppedEvents surfaces the journal bound: nonzero means the
	// analysis below is built from a truncated record.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// Analyze runs every analyzer over a read-back journal.
func Analyze(run *Run) *Profile {
	p := &Profile{
		Header:     run.Header,
		Iterations: run.Iterations,
		Repairs:    run.Repairs,
		End:        run.End,
	}
	if run.End != nil {
		p.Phases = []PhaseTime{
			{Phase: "load", Seconds: run.End.LoadSeconds},
			{Phase: "ground", Seconds: run.End.GroundSeconds},
			{Phase: "factors", Seconds: run.End.FactorSeconds},
			{Phase: "infer", Seconds: run.End.InferSeconds},
		}
		p.DroppedEvents = run.End.DroppedEvents
	}

	// Per-operator aggregation across every captured plan.
	agg := map[string]*OperatorCost{}
	for _, prof := range run.Profiles {
		aggregateOps(prof.Plan, agg)
		p.Skew = append(p.Skew, Skew(prof)...)
	}
	for _, oc := range agg {
		p.Operators = append(p.Operators, *oc)
	}
	sort.Slice(p.Operators, func(a, b int) bool {
		if p.Operators[a].Seconds != p.Operators[b].Seconds {
			return p.Operators[a].Seconds > p.Operators[b].Seconds
		}
		return p.Operators[a].Label < p.Operators[b].Label
	})
	sort.SliceStable(p.Skew, func(a, b int) bool {
		return worstImbalance(p.Skew[a]) > worstImbalance(p.Skew[b])
	})

	p.Motions = append(p.Motions, run.Motions...)
	sort.SliceStable(p.Motions, func(a, b int) bool { return p.Motions[a].Bytes > p.Motions[b].Bytes })

	if len(run.Faults) > 0 || len(run.Retries) > 0 {
		fs := &FaultSummary{Injected: map[string]int{}, Retries: len(run.Retries)}
		for _, f := range run.Faults {
			fs.Injected[f.Kind]++
			if fs.BySegment == nil {
				fs.BySegment = map[int]int{}
			}
			fs.BySegment[f.Segment]++
		}
		p.FaultInjection = fs
	}

	p.Inference = run.Inference
	if len(run.Checkpoints) > 0 {
		p.Convergence = analyzeConvergence(run.Checkpoints)
	}
	return p
}

func worstImbalance(r SkewRow) float64 {
	if r.TimeImbalance > r.RowImbalance {
		return r.TimeImbalance
	}
	return r.RowImbalance
}

func aggregateOps(n PlanNode, agg map[string]*OperatorCost) {
	label := opKind(n.Label)
	oc := agg[label]
	if oc == nil {
		oc = &OperatorCost{Label: label}
		agg[label] = oc
	}
	oc.Count++
	oc.Rows += n.Rows
	oc.Seconds += n.Seconds
	for _, k := range n.Children {
		aggregateOps(k, agg)
	}
}

func analyzeConvergence(cps []GibbsCheckpoint) *Convergence {
	c := &Convergence{SweepToThreshold: -1, SecondsToThreshold: -1}
	for _, cp := range cps {
		c.Timeline = append(c.Timeline, ConvergencePoint{
			Sweep:         cp.Sweep,
			Burnin:        cp.Burnin,
			Flips:         cp.Flips,
			Seconds:       cp.Seconds,
			SamplesPerSec: cp.SamplesPerSec,
			RHatMax:       cp.RHatMax,
			ESSMin:        cp.ESSMin,
		})
		if c.SweepToThreshold < 0 && !cp.Burnin && cp.RHatMax > 0 && cp.RHatMax <= RHatThreshold {
			c.SweepToThreshold = cp.Sweep
			c.SecondsToThreshold = cp.Seconds
		}
	}
	last := cps[len(cps)-1]
	c.FinalRHatMax = last.RHatMax
	c.FinalESSMin = last.ESSMin
	c.Tracked = last.Tracked
	return c
}

// opKind reduces an operator label to its bounded-cardinality kind; for
// every plan node it agrees with the node's OpKind, which labels the
// operator metrics.
func opKind(label string) string {
	if i := strings.IndexAny(label, "(["); i > 0 {
		label = label[:i]
	}
	if i := strings.Index(label, " on "); i > 0 {
		label = label[:i]
	}
	return strings.TrimSpace(label)
}
