// Command benchmark is this repository's performance record: seven
// workloads over the public probkb API (and, in the traced run, over the
// layers beneath it), each generating its inputs from a seed, checking
// its outputs, and printing every metric by name. See README.md.
//
//	bash benchmark/run.sh --workload ground-paper --seed 42 --seconds 8 --trace 0
//	bash benchmark/run.sh -repeat a/results.jsonl b/results.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the length of the serving
// workloads' timed window, and roughly that of the other timed sections.
// It is a constant, not a setting, so that any two result files are
// comparable; --seconds exists because the driver passes it and is
// refused when it says anything else.
const runSeconds = 8

// env is one run's settings. The command line sets seed, trace and
// outDir; the sizes below are fixed per workload so that any two result
// files are comparable, and only the tests shrink them.
type env struct {
	workload string
	seed     int64
	trace    bool
	outDir   string

	// scale multiplies every workload's corpus scale and the length of
	// the serving workloads' slices (1 on the command line; the tests
	// run at a twenty-fifth of it).
	scale float64
	// pool is the number of atoms the cached workloads draw from; it fits
	// the 4,096-entry per-generation marginal cache.
	pool int
	// batches and batchSize are the streamed batches of ingest-serve and
	// the facts in each.
	batches, batchSize int
}

func defaultEnv() env {
	return env{seed: 42, scale: 1, pool: 1024, batches: 20, batchSize: 64, outDir: ".bench_build/out"}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(env) (*result, error)
}

// workloads lists the record. The why lines are the ones BENCHMARK.json
// carries; README.md has the long form.
var workloads = []workload{
	{"ground-paper", "paper-scale corpus (scale 1.0), constrained single-node grounding only: ground+engine+quality do all the work, infer and server none",
		func(e env) (*result, error) { return runBatch(e, groundPaper) }},
	{"ground-mpp", "scale 0.5 through the MPP lowering (2 segments, views) against a single-node oracle: guards the second plan IR; single-node kernel wins predict no change",
		func(e env) (*result, error) { return runBatch(e, groundMPP) }},
	{"expand-infer", "scale 0.5 with the default config (constraints + sequential Gibbs 100+500): what probkb expand users get; infer is ~2/3 of it, ground ~1/3",
		func(e env) (*result, error) { return runBatch(e, expandInfer) }},
	{"point-serve-cached", "GET /query, 2 closed-loop clients, Zipf(1.1) over 1,024 warmed atoms at scale 0.25: cache hits, so only server+obs+epoch can move it",
		func(e env) (*result, error) { return runServe(e, serveCached) }},
	{"point-serve-cold", "GET /query?nocache=1 uniform over the same atoms: every request grounds locally and samples, so ground.Local+factor+infer.Local set it",
		func(e env) (*result, error) { return runServe(e, serveCold) }},
	{"point-serve-sql", "GET /sql point select on T.x uniform over entities: isolates sql planning + the engine scan; grounding and Gibbs wins predict no change",
		func(e env) (*result, error) { return runServe(e, serveSQL) }},
	{"ingest-serve", "streamed POST /facts (64-fact batches, refresh every 4, WAL on) beside a GET /query reader at scale 0.25: writes and reads share epoch/kb.Fork/ground",
		runIngest},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	e := defaultEnv()
	name := flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
	flag.Int64Var(&e.seed, "seed", e.seed, "seed for the corpus, atom pools, Zipf draws and fact stream")
	seconds := flag.Float64("seconds", runSeconds, "must be BENCHMARK.json's run_seconds: every workload fixes its own timed section")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json; 0 = end-to-end metrics")
	flag.StringVar(&e.outDir, "out", e.outDir, "directory for results.jsonl, trace files and the temporary store")
	repeat := flag.Bool("repeat", false, "compare two result files: -repeat a.jsonl b.jsonl")
	flag.Parse()
	e.trace = *trace != 0

	if *repeat {
		if flag.NArg() != 2 {
			fatal("usage: -repeat a.jsonl b.jsonl")
		}
		ok, err := repeatReport(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *seconds != runSeconds {
		fatal(fmt.Sprintf("--seconds %g: the timed sections are fixed; the only value accepted is run_seconds = %d", *seconds, runSeconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintln(os.Stderr, "usage: -workload <name> [-seed n] [-trace 0|1] [-out dir]\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	e.workload = w.name
	res, err := w.run(e)
	if err != nil {
		fatal(fmt.Sprintf("%s: %v", w.name, err))
	}
	rec := finish(w.name, e, res)
	report(os.Stderr, rec, res)
	if err := appendRecord(filepath.Join(e.outDir, "results.jsonl"), rec); err != nil {
		fatal(err.Error())
	}
	// The last line of standard output is the contract with the driver.
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for n, m := range rec.Metrics {
		metrics[n] = valueUnit{m.Value, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(1)
}

// record is one line of results.jsonl: the run's settings, where it ran
// and what it measured. -repeat compares files of these.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	NProc      int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Time       string            `json:"time"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
}

// finish turns a workload's result into the record: exactly the declared
// metrics of the run's kind, and correct only if every output check
// passed, no operation failed and every end-to-end value is a positive
// number (a zero would make relative bounds meaningless).
func finish(name string, e env, res *result) record {
	rec := record{
		Workload: name, Seed: e.seed, Trace: e.trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Time:      time.Now().UTC().Format(time.RFC3339),
		Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{},
	}
	declared := endToEnd
	if e.trace {
		declared = perLayer
	}
	for _, d := range declared {
		m, ok := res.metrics[d.Name]
		switch {
		case !ok && e.trace:
			m = metric{Unit: d.Unit} // a layer this workload bypasses
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", d.Name, m.Value))
		case !e.trace && m.Value <= 0:
			res.problems = append(res.problems, fmt.Sprintf("end-to-end metric %s is missing or not positive (%v)", d.Name, m.Value))
		}
		rec.Metrics[d.Name] = m
	}
	if res.attempted < 1 {
		res.problems = append(res.problems, "no operation attempted")
	}
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d operations failed", res.failed, res.attempted))
	}
	rec.Correct = len(res.problems) == 0
	return rec
}

// report prints the run for a reader: every metric by name with its
// unit and sample count, then notes and failed checks.
func report(w *os.File, rec record, res *result) {
	fmt.Fprintf(w, "%s seed=%d trace=%t nproc=%d gomaxprocs=%d %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.NProc, rec.GoMaxProcs, rec.Go)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		if rec.Trace && m.Samples == 0 && m.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "  ops=%d failed_ops=%d\n", rec.Attempted, rec.Failed)
	for _, n := range res.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapLiveMB is the heap still reachable after a full collection, taken
// while the caller keeps the workload's live state alive.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle empties the sync.Pools the first one only aged
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// mallocs reads the process-wide allocation counter; deltas around a
// single-threaded call count that call's allocations.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
