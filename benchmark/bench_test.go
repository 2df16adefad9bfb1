package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyEnv shrinks every workload to a few thousand facts. The scale is a
// field the command line never sets.
func tinyEnv(t *testing.T, trace bool) env {
	e := defaultEnv()
	e.seed, e.trace = 7, trace
	e.scale, e.pool, e.batches, e.batchSize = 0.04, 48, 4, 8
	e.outDir = t.TempDir()
	return e
}

// TestWorkloads runs every workload to completion, untraced and traced,
// with its output checks on, and checks the run emits exactly the
// declared metrics of its kind.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/e2e"
			declared := endToEnd
			if trace {
				name, declared = w.name+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				e := tinyEnv(t, trace)
				e.workload = w.name
				res, err := w.run(e)
				if err != nil {
					t.Fatal(err)
				}
				rec := finish(w.name, e, res)
				if !rec.Correct {
					t.Errorf("output checks failed: %v", res.problems)
				}
				if len(rec.Metrics) != len(declared) {
					t.Errorf("emitted %d metrics, declared %d", len(rec.Metrics), len(declared))
				}
				for _, d := range declared {
					if m, ok := rec.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: emitted %+v (present %t), declared unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.name+".json")); err != nil {
						t.Errorf("traced run left no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestDeclaredNames keeps BENCHMARK.json and the program in step: the
// same run length, the same workloads, and the same metrics with the
// same units and direction.
func TestDeclaredNames(t *testing.T) {
	bench, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bench.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's runSeconds = %d", bench.RunSeconds, runSeconds)
	}
	var got, want []string
	for _, w := range bench.Workloads {
		got = append(got, "workload "+w.Name)
	}
	for _, m := range bench.EndToEnd {
		got = append(got, strings.Join([]string{"e2e", m.Name, m.Unit, m.Better}, " "))
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bench.PerLayer {
		got = append(got, strings.Join([]string{"layer", m.Name, m.Unit, m.Better}, " "))
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.name)
	}
	for _, d := range endToEnd {
		want = append(want, strings.Join([]string{"e2e", d.Name, d.Unit, d.Better}, " "))
	}
	for _, d := range perLayer {
		want = append(want, strings.Join([]string{"layer", d.Name, d.Unit, d.Better}, " "))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json declares\n%s\nthe program declares\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var raw struct {
		Workloads []struct{ Name, Why string }
	}
	data, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for i, w := range raw.Workloads {
		if w.Why != workloads[i].why {
			t.Errorf("%s: why differs from the program's", w.Name)
		}
	}
}

// TestTailQuantile pins the reporting rule: the highest percentile with
// at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 0.50}, {16, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {128, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {200000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuietestAndWindow: latency_ms is the median of the slice whose
// median is lowest; the whole window's median, tail and rate are taken
// over every request, nothing filtered.
func TestQuietestAndWindow(t *testing.T) {
	msec := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	slices := [][]time.Duration{
		msec(5, 6, 7),
		nil, // a slice in which nothing finished
		msec(9, 4, 9),
		msec(3, 5, 80), // the quietest median, and the window's worst request
	}
	res := newResult()
	res.setQuietest(slices)
	if got := res.metrics["latency_ms"]; got.Value != 5 || got.Samples != 3 {
		t.Errorf("latency_ms = %+v, want 5 over 3 samples", got)
	}
	w := wholeWindow(slices, 3*time.Second)
	if w.p50 != 6*time.Millisecond || w.tail != 6*time.Millisecond || w.rate != 3 || w.n != 9 {
		t.Errorf("whole window = %+v, want p50 6ms, tail (the median, 9 samples) 6ms, 3 requests/s", w)
	}
	many := make([]time.Duration, 100)
	for i := range many {
		many[i] = time.Duration(100-i) * time.Millisecond // unsorted on purpose
	}
	if w := wholeWindow([][]time.Duration{many[:50], many[50:]}, time.Second); w.p50 != 50*time.Millisecond || w.tail != 90*time.Millisecond || w.tailQ != 0.90 {
		t.Errorf("whole window of 1..100 ms = %+v, want p50 50ms and p90 90ms", w)
	}
}

// TestQuartiles checks against statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestSelfTimes: a span's self time is its duration minus the part its
// children cover, with overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "ground.ground", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "quality.hook", Start: 20, End: 30},
		{ID: 3, Parent: 1, Name: "quality.hook", Start: 40, End: 45},
		{ID: 4, Parent: 0, Name: "infer.gibbs", Start: 55, End: 90}, // overlaps span 1 by 5
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench.op": 20, "ground.ground": 35, "quality.hook": 15, "infer.gibbs": 35}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	if layerOf("quality.hook") != "quality" {
		t.Errorf("layerOf(quality.hook) = %q", layerOf("quality.hook"))
	}

	tr := newTracer()
	tr.do("bench.op", func() { tr.do("kb.fork", func() {}) })
	tr.do("bench.op", func() {})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[1].Op != 1 || tr.spans[2].Op != 2 {
		t.Errorf("tracer nesting wrong: %+v", tr.spans)
	}
}

// TestJudge pins the three -repeat verdicts.
func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.2
		noisy[i] = v * (1 + 0.3*float64(i%3))
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		lower  bool
		exempt bool
		want   string
	}{
		{"same", steady, steady, true, false, agree},
		{"slower latency", steady, slower, true, false, regressed},
		{"faster latency", slower, steady, true, false, agree},
		{"higher throughput", steady, slower, false, false, agree},
		{"lower throughput", slower, steady, false, false, regressed},
		{"wide spread", steady, noisy, true, false, unresolved},
		{"wide spread, set-up", noisy, noisy, true, true, agree},
		{"single runs", []float64{100}, []float64{105}, true, false, agree},
	} {
		if got, _, _, _, _ := judge(c.a, c.b, c.lower, 0.10, c.exempt); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRepeatReport runs -repeat end to end over two written result files.
func TestRepeatReport(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, factor float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				rec := record{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]metric{}}
				for _, d := range endToEnd {
					v := 10 + float64(seed)/10
					if d.Name == "latency_ms" {
						v *= factor
					}
					rec.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, b := write("a.jsonl", 1), write("b.jsonl", 1.5)
	var out bytes.Buffer
	if ok, err := repeatReport(&out, "BENCHMARK.json", a, a); err != nil || !ok {
		t.Errorf("a set against itself: ok=%t err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err := repeatReport(&out, "BENCHMARK.json", a, b)
	if err != nil || ok {
		t.Errorf("a 50%% slower set: ok=%t err=%v", ok, err)
	}
	if n := strings.Count(out.String(), regressed); n != len(workloads) {
		t.Errorf("%d rows regressed, want one per workload (%d):\n%s", n, len(workloads), out.String())
	}
}

// TestSeedDrivesInputs: the same seed gives the same stream and pool
// order, another seed another.
func TestSeedDrivesInputs(t *testing.T) {
	k, _, err := synthesize(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := k.Expand(ingestConfig(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	render := func(seed int64) string {
		batches, err := factStream(exp, seed, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, b := range batches {
			for _, f := range b {
				sb.WriteString(f.String())
			}
		}
		for _, a := range shuffledAtoms(exp, seed)[:8] {
			sb.WriteString(a.String())
		}
		draw := zipfDraws(rngFor(seed, rngClient), 1024)
		for i := 0; i < 8; i++ {
			sb.WriteByte(byte('a' + draw()%26))
		}
		return sb.String()
	}
	if render(7) != render(7) {
		t.Error("same seed, different inputs")
	}
	if render(7) == render(8) {
		t.Error("different seeds, same inputs")
	}
}
