package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json -repeat and the tests read.
type benchmarkFile struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads path, looking one directory up as well so that
// it works from the repository root and from benchmark/.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join("..", path))
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads a results.jsonl and keeps the untraced runs' values
// by workload and metric: end-to-end numbers never come from a traced run.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its output checks", path, line, rec.Workload, rec.Seed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// Verdicts of one workload × metric row.
const (
	agree      = "agree"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares set b against set a for one metric. The spread of a set
// is the distance between its quartiles as a share of its median; a
// spread wider than the bound leaves the row unresolved (set-up time is
// exempt from that, as it is in the acceptance check), and otherwise b
// regressed if its median is worse than a's by more than the bound.
func judge(a, b []float64, lowerIsBetter bool, bound float64, spreadExempt bool) (verdict string, medA, medB, spreadA, spreadB float64) {
	summary := func(v []float64) (med, spread float64) {
		if len(v) == 1 {
			return v[0], 0
		}
		q1, med, q3 := quartiles(v)
		return med, (q3 - q1) / med
	}
	medA, spreadA = summary(a)
	medB, spreadB = summary(b)
	worse := (medB - medA) / medA
	if !lowerIsBetter {
		worse = (medA - medB) / medA
	}
	switch {
	case !spreadExempt && (spreadA > bound || spreadB > bound):
		verdict = unresolved
	case worse > bound:
		verdict = regressed
	default:
		verdict = agree
	}
	return verdict, medA, medB, spreadA, spreadB
}

// repeatReport prints one row per workload and end-to-end metric and
// reports whether every row agrees.
func repeatReport(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	bench, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "b vs a", "spread a", "spread b", "bound", "verdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-20s %-18s missing from one set\n", wl.Name, m.Name)
				ok = false
				continue
			}
			verdict, medA, medB, spA, spB := judge(va, vb, m.Better == "lower", m.Bound, m.Name == "setup_s")
			fmt.Fprintf(w, "%-20s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, medA, medB, 100*(medB-medA)/medA, 100*spA, 100*spB, 100*m.Bound, verdict, len(va), len(vb))
			if verdict != agree {
				ok = false
			}
		}
	}
	return ok, nil
}
