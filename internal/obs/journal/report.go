package journal

import (
	"fmt"
	"sort"
	"strings"
)

// reportRows bounds each of the report's ranked tables: operators,
// skew rows and motions.
const reportRows = 10

// Render formats a run profile as the human-readable report `probkb
// report` prints: run header, per-phase time breakdown, grounding
// iterations, top-k slowest operators, per-segment skew table, motion
// volumes, constraint repairs, the inference pass's component split and
// — when some component was sampled — the Gibbs convergence timeline.
func Render(p *Profile) string {
	var b strings.Builder

	fmt.Fprintf(&b, "Run report\n==========\n")
	if h := p.Header; h != nil {
		fmt.Fprintf(&b, "engine=%s", h.Engine)
		if h.Segments > 0 {
			fmt.Fprintf(&b, " segments=%d", h.Segments)
		}
		fmt.Fprintf(&b, " seed=%d config=%s", h.Seed, h.ConfigHash)
		if h.Start != "" {
			fmt.Fprintf(&b, " start=%s", h.Start)
		}
		b.WriteByte('\n')
	}
	if p.DroppedEvents > 0 {
		fmt.Fprintf(&b, "WARNING: journal bound dropped %d events; this report is built from a truncated record\n", p.DroppedEvents)
	}

	fmt.Fprintf(&b, "\nPhase breakdown\n---------------\n")
	if len(p.Phases) == 0 {
		b.WriteString("(no run_end event; run may have aborted)\n")
	}
	var total float64
	for _, ph := range p.Phases {
		total += ph.Seconds
	}
	for _, ph := range p.Phases {
		pct := 0.0
		if total > 0 {
			pct = 100 * ph.Seconds / total
		}
		fmt.Fprintf(&b, "%-8s %10.4fs  %5.1f%%\n", ph.Phase, ph.Seconds, pct)
	}
	if total > 0 {
		fmt.Fprintf(&b, "%-8s %10.4fs\n", "total", total)
	}

	if len(p.Iterations) > 0 {
		fmt.Fprintf(&b, "\nGrounding iterations\n--------------------\n")
		fmt.Fprintf(&b, "%4s %10s %8s %8s %10s\n", "iter", "new_facts", "deleted", "queries", "seconds")
		for _, it := range p.Iterations {
			fmt.Fprintf(&b, "%4d %10d %8d %8d %10.4f\n",
				it.Iteration, it.NewFacts, it.Deleted, it.Queries, it.Seconds)
		}
	}

	fmt.Fprintf(&b, "\nTop operators\n-------------\n")
	if len(p.Operators) == 0 {
		b.WriteString("(no query profiles recorded)\n")
	} else {
		fmt.Fprintf(&b, "%-22s %6s %12s %12s\n", "operator", "count", "rows", "seconds")
		for i, oc := range p.Operators {
			if i >= reportRows {
				fmt.Fprintf(&b, "... %d more\n", len(p.Operators)-i)
				break
			}
			fmt.Fprintf(&b, "%-22s %6d %12d %12.6f\n", oc.Label, oc.Count, oc.Rows, oc.Seconds)
		}
	}

	fmt.Fprintf(&b, "\nPer-segment skew\n----------------\n")
	if len(p.Skew) == 0 {
		b.WriteString("(no distributed operators; skew analysis needs an MPP run)\n")
	} else {
		flagged := 0
		for _, r := range p.Skew {
			if r.Flagged {
				flagged++
			}
		}
		fmt.Fprintf(&b, "threshold=%.2f  flagged %d of %d operator runs\n", SkewThreshold, flagged, len(p.Skew))
		fmt.Fprintf(&b, "%-14s %4s %4s %8s %8s %9s %5s  %s\n",
			"operator", "part", "iter", "row_imb", "time_imb", "straggler", "flag", "seg_rows")
		for i, r := range p.Skew {
			if i >= reportRows {
				fmt.Fprintf(&b, "... %d more\n", len(p.Skew)-i)
				break
			}
			flag := ""
			if r.Flagged {
				flag = "SKEW"
			}
			fmt.Fprintf(&b, "%-14s %4d %4d %8.2f %8.2f %9d %5s  %v\n",
				r.Label, r.Partition, r.Iteration, r.RowImbalance, r.TimeImbalance, r.Straggler, flag, r.SegRows)
		}
	}

	if len(p.Motions) > 0 {
		fmt.Fprintf(&b, "\nMotion volumes\n--------------\n")
		fmt.Fprintf(&b, "%-14s %-14s %4s %4s %10s %12s\n", "motion", "query", "part", "iter", "rows", "bytes")
		for i, m := range p.Motions {
			if i >= reportRows {
				fmt.Fprintf(&b, "... %d more\n", len(p.Motions)-i)
				break
			}
			fmt.Fprintf(&b, "%-14s %-14s %4d %4d %10d %12d\n",
				m.Kind, m.Query, m.Partition, m.Iteration, m.Rows, m.Bytes)
		}
	}

	if len(p.Repairs) > 0 {
		fmt.Fprintf(&b, "\nConstraint repairs\n------------------\n")
		fmt.Fprintf(&b, "%4s %12s %8s\n", "iter", "violations", "deleted")
		for _, r := range p.Repairs {
			fmt.Fprintf(&b, "%4d %12d %8d\n", r.Iteration, r.Violations, r.Deleted)
		}
	}

	if fi := p.FaultInjection; fi != nil {
		fmt.Fprintf(&b, "\nFault injection\n---------------\n")
		fmt.Fprintf(&b, "injected faults: %d (fail=%d panic=%d straggle=%d)  segment retries: %d\n",
			fi.Total(), fi.Injected["fail"], fi.Injected["panic"], fi.Injected["straggle"], fi.Retries)
		if len(fi.BySegment) > 0 {
			segs := make([]int, 0, len(fi.BySegment))
			for s := range fi.BySegment {
				segs = append(segs, s)
			}
			sort.Ints(segs)
			b.WriteString("per-segment faults:")
			for _, s := range segs {
				fmt.Fprintf(&b, " seg%d=%d", s, fi.BySegment[s])
			}
			b.WriteByte('\n')
		}
	}

	fmt.Fprintf(&b, "\nInference\n---------\n")
	if in := p.Inference; in == nil {
		b.WriteString("(no inference pass; run with inference enabled)\n")
	} else {
		fmt.Fprintf(&b, "%d components exact, %d sampled (largest %d)\n", in.Exact, in.Components-in.Exact, in.MaxComponent)
	}
	if c := p.Convergence; c != nil {
		fmt.Fprintf(&b, "\nGibbs convergence timeline\n--------------------------\n")
		fmt.Fprintf(&b, "%6s %7s %8s %10s %12s %8s %10s\n",
			"sweep", "burnin", "flips", "seconds", "samples/s", "rhat", "ess_min")
		for _, cp := range c.Timeline {
			rhat, ess := "-", "-"
			if cp.RHatMax > 0 {
				rhat = fmt.Sprintf("%.4f", cp.RHatMax)
			}
			if cp.ESSMin > 0 {
				ess = fmt.Sprintf("%.1f", cp.ESSMin)
			}
			burn := ""
			if cp.Burnin {
				burn = "burnin"
			}
			fmt.Fprintf(&b, "%6d %7s %8d %10.4f %12.0f %8s %10s\n",
				cp.Sweep, burn, cp.Flips, cp.Seconds, cp.SamplesPerSec, rhat, ess)
		}
		if c.SweepToThreshold >= 0 {
			fmt.Fprintf(&b, "converged: R-hat <= %.2f at sweep %d (%.4fs)\n",
				RHatThreshold, c.SweepToThreshold, c.SecondsToThreshold)
		} else {
			fmt.Fprintf(&b, "not converged: R-hat never reached %.2f (final %.4f)\n",
				RHatThreshold, c.FinalRHatMax)
		}
		if len(c.Tracked) > 0 {
			fmt.Fprintf(&b, "\ntracked atoms (final checkpoint)\n")
			fmt.Fprintf(&b, "%8s %8s %8s %10s\n", "fact_id", "mean", "rhat", "ess")
			for _, v := range c.Tracked {
				fmt.Fprintf(&b, "%8d %8.4f %8.4f %10.1f\n", v.FactID, v.Mean, v.RHat, v.ESS)
			}
		}
	}

	if e := p.End; e != nil {
		fmt.Fprintf(&b, "\nSummary\n-------\n")
		fmt.Fprintf(&b, "iterations=%d converged=%v base_facts=%d inferred=%d total=%d factors=%d\n",
			e.Iterations, e.Converged, e.BaseFacts, e.InferredFacts, e.TotalFacts, e.Factors)
	}
	return b.String()
}
