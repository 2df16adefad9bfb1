// Command probkb runs knowledge expansion over a KB directory. Run it
// with no arguments for the list of subcommands, and with CMD -h for one
// subcommand's flags. It exits 0 on success, 1 when the work failed or
// was interrupted, and 2 on a usage error.
//
//	probkb stats   -kb DIR
//	probkb expand  -kb DIR [-out DIR] [-engine probkb|probkb-p|probkb-pn|tuffy]
//	               [-segments N] [-engine-workers N] [-iters N] [-no-inference]
//	               [-burnin N] [-samples N] [-seed N] [-v] [-trace]
//	               [-factors DIR] [-journal FILE] [-persist DIR]
//	               [-chaos-seed N] [-chaos-fail P] [-chaos-panic P]
//	               [-chaos-straggle P] [-chaos-delay D]
//	               [-retries N] [-retry-backoff D]
//	probkb ingest  -kb DIR [-persist DIR] [-in FILE] [-batch N] [-delay D]
//	               [-refresh-every K] [-burnin N] [-samples N] [-seed N]
//	               [-journal FILE] [-v]
//	probkb save    -kb DIR -store DIR
//	probkb load    -store DIR [-out DIR] [-checkpoint]
//	probkb report  [-json] JOURNAL
//	probkb explain -kb DIR -fact "rel(x, y)"
//	probkb query   -kb DIR -atom "rel(x, y)" [-seed N]
//	probkb rules   -kb DIR [-top N]
//	probkb sql     -kb DIR -q "SELECT ..." [-limit N]
//	probkb top     [-addr URL] [-once]
//	probkb incidents [-addr URL] [-id ID [-goroutines]]
//
// expand runs the whole pipeline — semantic constraints, batched
// grounding, marginal inference — and prints a summary; -out writes the
// expanded KB, -factors its ground factor graph, -journal the run
// journal that report analyzes. The -chaos-* flags inject MPP segment
// faults deterministically; -retries absorbs them without changing the
// result.
//
// ingest streams facts — JSONL objects with rel/x/xClass/y/yClass/
// probability fields from stdin or -in FILE, or CSV rows in that column
// order from a file ending in .csv — into a live KB in batches. Each
// batch's facts and closure are visible (and, with -persist, durable) as
// soon as it lands; marginals refresh every -refresh-every batches and
// at the end.
//
// -persist DIR makes expand and ingest durable and resumable: a DIR
// without a store is created from -kb; one that holds a store is
// recovered (snapshot + WAL replay) and the run resumes from it without
// reading -kb, so a killed run is continued by re-running the same
// command. SIGINT/SIGTERM cancel expand cooperatively: it summarizes the
// partial run, flushes the journal and exits 1. ingest stops reading,
// drains its queue, refreshes, summarizes and exits 1; a second SIGINT
// aborts the batch in flight.
//
// save and load write and recover such a store by hand; explain prints
// one fact's derivation tree after an expansion; query answers one atom
// by local grounding, without expanding; rules ranks the rules by
// statistical significance; sql runs a SELECT over the KB's relational
// image (T, TC, TR, FC, M1..M6, DE); top is a live terminal view of a
// running probkb-server, and incidents lists its watchdog incidents or
// prints one in full.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"probkb"
	"probkb/internal/ingest"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
	"probkb/internal/top"
)

// command is one probkb subcommand. run gets the arguments after the
// subcommand's name and returns the exit code.
type command struct {
	name, synopsis string
	run            func(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int
}

var commands = []command{
	{"stats", "print the KB's Table 2 statistics", cmdStats},
	{"expand", "expand a KB: constraints, grounding, marginals", cmdExpand},
	{"ingest", "stream facts into a live KB", cmdIngest},
	{"save", "initialize a durable store from a KB", cmdSave},
	{"load", "recover a durable store", cmdLoad},
	{"report", "analyze a run journal", cmdReport},
	{"explain", "print one fact's derivation tree", cmdExplain},
	{"query", "answer one point query by local grounding", cmdQuery},
	{"rules", "score the rules by statistical significance", cmdRules},
	{"sql", "run SQL against the KB's relational image", cmdSQL},
	{"top", "live view of a running probkb-server", cmdTop},
	{"incidents", "a running probkb-server's watchdog incidents", cmdIncidents},
}

func main() {
	// The first SIGINT/SIGTERM cancels ctx and the subcommand winds down
	// cooperatively; catching stops with it, so a second one kills the
	// process the default way (ingest catches it to abort a batch).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	code := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches one command line to its subcommand.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(ctx, args[1:], stdin, stdout, stderr)
			}
		}
	}
	fmt.Fprintln(stderr, "usage: probkb COMMAND [flags]; probkb COMMAND -h lists its flags")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.synopsis)
	}
	return 2
}

// parse parses args into fs, which reports to stderr. stop reports that
// the subcommand ends here with code: 0 after -h, 2 after a bad flag
// (the flag package has said why).
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, stop bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, false
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	default:
		return 2, true
	}
}

// fail reports err on stderr and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "probkb:", err)
	return 1
}

// count is an int flag that refuses negative values: a negative count
// is a usage error, like an unknown flag.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(s string) error {
	n, err := strconv.Atoi(s)
	switch {
	case err != nil:
		return errors.New("parse error")
	case n < 0:
		return errors.New("must not be negative")
	}
	*c = count(n)
	return nil
}

func loadKB(dir string) (*probkb.KB, error) {
	if dir == "" {
		return nil, errors.New("missing -kb DIR")
	}
	return probkb.Load(dir)
}

// runFlags are the Config flags expand and ingest share.
type runFlags struct {
	kb, persist, journal string
	burnin, samples      int
	seed                 int64
}

func (r *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&r.kb, "kb", "", "KB directory; not read when -persist already holds a store")
	fs.StringVar(&r.persist, "persist", "", "durable store directory: created from -kb if it holds no store, recovered and resumed if it does")
	fs.StringVar(&r.journal, "journal", "", "stream the run journal (JSONL events) to this file")
	fs.IntVar(&r.burnin, "burnin", 100, "Gibbs burn-in sweeps")
	fs.IntVar(&r.samples, "samples", 500, "Gibbs sample sweeps")
	fs.Int64Var(&r.seed, "seed", 0, "inference seed")
}

// open returns the KB a run starts from and, with -persist, the store
// it continues, announcing on stdout which of the two it found.
func (r *runFlags) open(stdout io.Writer) (*probkb.KB, *probkb.Store, error) {
	if r.persist == "" {
		k, err := loadKB(r.kb)
		return k, nil, err
	}
	st, k, created, err := probkb.OpenOrCreateStore(r.persist, func() (*probkb.KB, error) { return loadKB(r.kb) })
	if err != nil {
		return nil, nil, err
	}
	if created {
		fmt.Fprintf(stdout, "initialized store %s\n", r.persist)
	} else {
		fmt.Fprintf(stdout, "resumed store %s: gen %d, %d WAL records replayed, %d facts\n",
			r.persist, st.Gen(), st.WALRecords(), st.Facts())
	}
	return k, st, nil
}

func cmdStats(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("kb", "", "KB directory")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	k, err := loadKB(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, k.Stats())
	return 0
}

func engineByName(name string) (probkb.Engine, error) {
	switch strings.ToLower(name) {
	case "probkb", "single", "":
		return probkb.SingleNode, nil
	case "probkb-p", "mpp":
		return probkb.MPP, nil
	case "probkb-pn", "mpp-noviews":
		return probkb.MPPNoViews, nil
	case "tuffy", "tuffy-t", "baseline":
		return probkb.Baseline, nil
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}

func cmdExpand(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expand", flag.ContinueOnError)
	var rf runFlags
	rf.register(fs)
	out := fs.String("out", "", "write the expanded KB to this directory")
	engineName := fs.String("engine", "probkb", "probkb | probkb-p | probkb-pn | tuffy")
	segments := fs.Int("segments", 4, "MPP segments")
	engineWorkers := fs.Int("engine-workers", 0, "engine worker-pool size (0 = NumCPU single-node / serial segments on MPP; 1 = serial)")
	iters := fs.Int("iters", 0, "max grounding iterations (0 = to convergence)")
	noInference := fs.Bool("no-inference", false, "skip marginal inference")
	verbose := fs.Bool("v", false, "print per-iteration progress and top inferred facts")
	trace := fs.Bool("trace", false, "print the expansion's span tree (per-stage timings)")
	factorsDir := fs.String("factors", "", "export the ground factor graph (variables.tsv, factors.tsv) to this directory")
	chaosSeed := fs.Int64("chaos-seed", 0, "fault-injection seed (MPP engines)")
	chaosFail := fs.Float64("chaos-fail", 0, "per-segment-task probability of an injected failure")
	chaosPanic := fs.Float64("chaos-panic", 0, "per-segment-task probability of an injected worker panic")
	chaosStraggle := fs.Float64("chaos-straggle", 0, "per-segment-task probability of an injected straggler")
	chaosDelay := fs.Duration("chaos-delay", 10*time.Millisecond, "injected straggler sleep")
	retries := fs.Int("retries", 0, "re-execute a failed MPP segment task up to N times")
	retryBackoff := fs.Duration("retry-backoff", time.Millisecond, "base delay before segment retry k (scaled linearly)")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}

	k, pst, err := rf.open(stdout)
	if err != nil {
		return fail(stderr, err)
	}
	if pst != nil {
		defer pst.Close()
	}
	eng, err := engineByName(*engineName)
	if err != nil {
		return fail(stderr, err)
	}
	cfg := probkb.Config{
		Engine:           eng,
		Segments:         *segments,
		EngineWorkers:    *engineWorkers,
		MaxIterations:    *iters,
		ApplyConstraints: true,
		RunInference:     !*noInference,
		GibbsBurnin:      rf.burnin,
		GibbsSamples:     rf.samples,
		Seed:             rf.seed,
		JournalPath:      rf.journal,
		Persist:          pst,
		SegmentRetries:   *retries,
		RetryBackoff:     *retryBackoff,
	}
	if *chaosFail > 0 || *chaosPanic > 0 || *chaosStraggle > 0 {
		cfg.Faults = &probkb.FaultConfig{
			Seed:          *chaosSeed,
			FailRate:      *chaosFail,
			PanicRate:     *chaosPanic,
			StraggleRate:  *chaosStraggle,
			StraggleDelay: *chaosDelay,
		}
	}

	// A cancelled run returns a PartialError whose journal has been
	// flushed, so `probkb report` works on interrupted runs.
	exp, err := k.ExpandContext(ctx, cfg)
	var pe *probkb.PartialError
	if errors.As(err, &pe) {
		exp = pe.Partial
		fmt.Fprintf(stderr, "probkb: run interrupted during %s (%v); partial results follow\n", pe.Phase, pe.Err)
	} else if err != nil {
		return fail(stderr, err)
	}
	st := exp.Stats()
	fmt.Fprintf(stdout, "engine         %s\n", eng)
	fmt.Fprintf(stdout, "base facts     %d\n", st.BaseFacts)
	fmt.Fprintf(stdout, "inferred facts %d\n", st.InferredFacts)
	fmt.Fprintf(stdout, "factors        %d\n", st.Factors)
	fmt.Fprintf(stdout, "iterations     %d (converged=%v)\n", st.Iterations, st.Converged)
	fmt.Fprintf(stdout, "queries        %d grounding + %d factor\n", st.AtomQueries, st.FactorQueries)
	fmt.Fprintf(stdout, "time           load %s, grounding %s, factors %s, inference %s\n",
		st.LoadTime, st.GroundingTime, st.FactorTime, st.InferenceTime)

	if *trace {
		if tr := obs.LastTrace(); tr != nil {
			fmt.Fprintln(stdout, "trace:")
			fmt.Fprint(stdout, tr.Render())
		}
	}

	if *verbose {
		for _, it := range exp.PerIteration() {
			fmt.Fprintf(stdout, "  iter %d: +%d facts, -%d deleted, %d queries, %s\n",
				it.Iteration, it.NewFacts, it.Deleted, it.Queries, it.Elapsed)
		}
		inferred := exp.InferredFacts()
		sort.Slice(inferred, func(a, b int) bool {
			return inferred[a].Probability > inferred[b].Probability
		})
		n := min(20, len(inferred))
		fmt.Fprintf(stdout, "top %d inferred facts:\n", n)
		for _, f := range inferred[:n] {
			fmt.Fprintln(stdout, " ", f)
		}
	}

	if pe != nil {
		// A partial run is not a publishable expansion: skip -out and
		// -factors, exit nonzero. The journal (if any) is already flushed.
		if *factorsDir != "" || *out != "" {
			fmt.Fprintln(stderr, "probkb: run was interrupted; skipping -out/-factors output")
		}
		if pst != nil {
			fmt.Fprintf(stderr, "probkb: durable state through the last completed iteration is in %s; re-run with -persist to resume\n", pst.Dir())
		}
		return 1
	}
	if pst != nil {
		fmt.Fprintf(stdout, "store %s: gen %d, %d WAL records, %d facts durable\n",
			pst.Dir(), pst.Gen(), pst.WALRecords(), pst.Facts())
	}
	if *factorsDir != "" {
		if err := exp.SaveFactorGraph(*factorsDir); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "factor graph written to %s\n", *factorsDir)
	}
	if *out != "" {
		if err := exp.ToKB().Save(*out); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "expanded KB written to %s\n", *out)
	}
	return 0
}

// cmdIngest streams a firehose of facts into a live KB through the
// ingest pipeline: batches land with semi-naive delta grounding (facts
// and closure visible immediately, WAL-durable with -persist) while
// marginals refresh lazily every -refresh-every batches. It exits
// non-zero when the input or the pipeline stopped early (an invalid
// fact, an interrupt), with everything landed before that still
// published and durable.
func cmdIngest(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	var rf runFlags
	rf.register(fs)
	inPath := fs.String("in", "-", "fact stream: a file (CSV if it ends in .csv, JSONL otherwise), or - for JSONL on stdin")
	batch := fs.Int("batch", 256, "batch-size trigger (facts)")
	delay := fs.Duration("delay", 50*time.Millisecond, "batch-latency trigger: a partial batch closes this long after its first fact")
	refreshEvery := fs.Int("refresh-every", 8, "refresh marginals every K absorbed batches (0 = only on close)")
	verbose := fs.Bool("v", false, "print one line per absorbed batch")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}

	k, pst, err := rf.open(stdout)
	if err != nil {
		return fail(stderr, err)
	}
	if pst != nil {
		defer pst.Close()
	}
	// Seed the serving state: one full expansion of the starting KB,
	// marginals included, so the stream lands on a converged baseline.
	exp, err := k.Expand(probkb.Config{
		Engine: probkb.SingleNode, RunInference: true,
		GibbsBurnin: rf.burnin, GibbsSamples: rf.samples, Seed: rf.seed, Persist: pst,
	})
	if err != nil {
		return fail(stderr, err)
	}
	base := exp.Stats()
	fmt.Fprintf(stdout, "baseline       %d base + %d inferred facts\n", base.BaseFacts, base.InferredFacts)

	src, format := stdin, "jsonl"
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		src = f
		if strings.HasSuffix(*inPath, ".csv") {
			format = "csv"
		}
	}

	// ctx, the first interrupt, stops the reader; the queue drains and
	// the closing refresh runs. A second interrupt aborts the in-flight
	// batch — nothing torn: with -persist, re-running the same command
	// resumes.
	pipeCtx, abort := context.WithCancel(context.WithoutCancel(ctx))
	defer abort()
	defer context.AfterFunc(ctx, func() {
		again, stop := signal.NotifyContext(pipeCtx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		<-again.Done()
		if pipeCtx.Err() == nil {
			fmt.Fprintln(stderr, "probkb: aborting in-flight batch")
			abort()
		}
	})()

	ing := probkb.NewIngester(exp)
	var jr *journal.Writer
	if rf.journal != "" {
		jr = journal.New()
		if err := jr.SinkTo(rf.journal); err != nil {
			return fail(stderr, err)
		}
		defer jr.Close()
	}
	cfg := ingest.Config{
		MaxBatch: *batch, MaxDelay: *delay,
		RefreshEvery: *refreshEvery, RefreshOnClose: true, Journal: jr,
	}
	if *verbose {
		cfg.OnBatch = func(a ingest.Ack) {
			extra := ""
			if a.Refreshed {
				extra = " [refreshed]"
			}
			fmt.Fprintf(stdout, "  batch %d: %d facts (+%d new, %d derived) gen %d seq %d stale %d%s\n",
				a.Batch, a.Facts, a.Added, a.Derived, a.Generation, a.DurableSeq, a.StaleBatches, extra)
		}
	}
	start := time.Now()
	p := ing.Pipeline(pipeCtx, cfg)

	read, readErr := streamFacts(src, format, func(f ingest.Fact) error {
		if err := ctx.Err(); err != nil {
			return err // stop reading even while the queue has room
		}
		return p.Submit(ctx, f)
	})
	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(stderr, "probkb: interrupt — draining and refreshing (interrupt again to abort)")
	case readErr != nil:
		fmt.Fprintf(stderr, "probkb: input stopped after %d facts: %v\n", read, readErr)
	}
	closeErr := p.Close(pipeCtx)
	elapsed := time.Since(start)

	st := p.Stats()
	rate := float64(st.Facts) / elapsed.Seconds()
	fmt.Fprintf(stdout, "ingested       %d facts in %d batches, %s (%.0f facts/sec)\n",
		st.Facts, st.Batches, elapsed.Round(time.Millisecond), rate)
	fmt.Fprintf(stdout, "refreshes      %d (staleness at exit: %d batches)\n", st.Refreshes, st.StaleBatches)
	pin := ing.Current()
	final := pin.Value().Stats()
	fmt.Fprintf(stdout, "closure        %d base + %d inferred facts, generation %d\n",
		final.BaseFacts, final.InferredFacts, ing.Generation())
	pin.Unpin()
	if pst != nil {
		fmt.Fprintf(stdout, "store          %s: gen %d, %d WAL records, %d facts durable\n",
			pst.Dir(), pst.Gen(), pst.WALRecords(), pst.Facts())
	}
	if closeErr != nil {
		fmt.Fprintf(stderr, "probkb: pipeline stopped early: %v\n", closeErr)
		if pst != nil {
			fmt.Fprintf(stderr, "probkb: durable state through the last absorbed batch is in %s; re-run with -persist to resume\n", pst.Dir())
		}
	}
	if closeErr != nil || readErr != nil {
		return 1
	}
	return 0
}

// streamFacts decodes the fact firehose and hands each fact to submit,
// stopping at EOF or the first submit error (a cancelled reader context
// surfaces here as context.Canceled). It checks syntax only: whether a
// fact is acceptable is ingest.Validate's call, made where the batch
// lands, exactly as for a fact that arrived over HTTP.
func streamFacts(r io.Reader, format string, submit func(ingest.Fact) error) (int, error) {
	n := 0
	switch format {
	case "jsonl":
		dec := json.NewDecoder(r)
		for {
			var f ingest.Fact
			if err := dec.Decode(&f); err == io.EOF {
				return n, nil
			} else if err != nil {
				return n, fmt.Errorf("fact %d: %w", n+1, err)
			}
			n++
			if err := submit(f); err != nil {
				return n, err
			}
		}
	case "csv":
		cr := csv.NewReader(r)
		cr.FieldsPerRecord = 6
		cr.TrimLeadingSpace = true
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				return n, nil
			} else if err != nil {
				return n, err
			}
			if n == 0 && rec[0] == "rel" {
				continue // header row
			}
			prob, err := strconv.ParseFloat(rec[5], 64)
			if err != nil {
				return n, fmt.Errorf("fact %d: bad probability %q", n+1, rec[5])
			}
			n++
			if err := submit(ingest.Fact{
				Rel: rec[0], X: rec[1], XClass: rec[2], Y: rec[3], YClass: rec[4],
				Probability: prob,
			}); err != nil {
				return n, err
			}
		}
	default:
		return 0, fmt.Errorf("unknown format %q (want jsonl or csv)", format)
	}
}

func cmdSave(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("save", flag.ContinueOnError)
	dir := fs.String("kb", "", "KB directory")
	storeDir := fs.String("store", "", "store directory to initialize")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	if *storeDir == "" {
		return fail(stderr, errors.New("missing -store DIR"))
	}
	k, err := loadKB(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	st, err := probkb.CreateStore(*storeDir, k)
	if err != nil {
		return fail(stderr, err)
	}
	if err := st.Close(); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "store %s: gen %d snapshot, %d bytes, %d facts\n",
		*storeDir, st.Gen(), st.SnapshotBytes(), st.Facts())
	return 0
}

func cmdLoad(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	storeDir := fs.String("store", "", "store directory to recover")
	out := fs.String("out", "", "write the recovered KB as a text directory")
	checkpoint := fs.Bool("checkpoint", false, "fold the WAL into a fresh snapshot after recovery")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	if *storeDir == "" {
		return fail(stderr, errors.New("missing -store DIR"))
	}
	st, err := probkb.OpenStore(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	defer st.Close()
	fmt.Fprintf(stdout, "recovered store %s: gen %d, %d WAL records replayed\n",
		*storeDir, st.Gen(), st.WALRecords())
	k := st.KB()
	fmt.Fprint(stdout, k.Stats())
	if *checkpoint {
		if err := st.Checkpoint(); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "checkpointed: gen %d snapshot, %d bytes\n", st.Gen(), st.SnapshotBytes())
	}
	if *out != "" {
		if err := k.Save(*out); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "recovered KB written to %s\n", *out)
	}
	return 0
}

func cmdReport(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the analyzed profile as JSON instead of text")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	path := fs.Arg(0)
	if path == "" {
		return fail(stderr, errors.New("missing journal file: probkb report [-json] JOURNAL"))
	}
	run, err := journal.ReadFile(path)
	if err != nil {
		return fail(stderr, err)
	}
	prof := journal.Analyze(run)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(prof); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	fmt.Fprint(stdout, journal.Render(prof))
	return 0
}

func cmdExplain(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	dir := fs.String("kb", "", "KB directory")
	fact := fs.String("fact", "", `fact to explain, as "rel(x, y)"`)
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	rel, x, y, err := probkb.ParseAtom(*fact)
	if err != nil {
		return fail(stderr, err)
	}
	k, err := loadKB(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	exp, err := k.ExpandContext(ctx, probkb.Config{Engine: probkb.SingleNode, ApplyConstraints: true})
	if err != nil {
		return fail(stderr, err)
	}
	const depth = 4 // levels of the proof tree printed
	text, err := exp.Explain(rel, x, y, depth)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, text)
	return 0
}

func cmdQuery(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("kb", "", "KB directory")
	atom := fs.String("atom", "", `query atom "rel(x, y)"`)
	seed := fs.Int64("seed", 0, "random seed for sampling")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	if *atom == "" {
		return fail(stderr, errors.New(`missing -atom "rel(x, y)"`))
	}
	rel, x, y, err := probkb.ParseAtom(*atom)
	if err != nil {
		return fail(stderr, err)
	}
	k, err := loadKB(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	m, err := k.PointQuery(ctx, probkb.PointQuery{Rel: rel, X: x, Y: y}, probkb.Config{Seed: *seed})
	if err != nil {
		return fail(stderr, err)
	}
	switch {
	case !m.Found:
		fmt.Fprintf(stdout, "%s(%s, %s): not derivable (depth %d, radius %d)\n", rel, x, y, m.Depth, m.Radius)
	case m.Observed:
		fmt.Fprintf(stdout, "%s(%s, %s) = %.4f (observed)\n", rel, x, y, m.Probability)
	default:
		fmt.Fprintf(stdout, "%s(%s, %s) = %.4f (inferred)\n", rel, x, y, m.Probability)
	}
	fmt.Fprintf(stdout, "local: %d seed facts, %d facts after %d iterations, %d rules in scope, %d vars / %d factors inferred over, %d sweeps, %s\n",
		m.SeedFacts, m.LocalFacts, m.Iterations, m.RulesReachable, m.LocalVars, m.LocalFactors, m.Collected, m.Elapsed.Round(time.Millisecond))
	return 0
}

func cmdRules(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rules", flag.ContinueOnError)
	dir := fs.String("kb", "", "KB directory")
	top := count(20)
	fs.Var(&top, "top", "show the `N` best and worst rules")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	k, err := loadKB(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	scores := k.RuleScores()
	sort.Slice(scores, func(a, b int) bool { return scores[a].Score > scores[b].Score })
	n := min(int(top), len(scores))
	fmt.Fprintf(stdout, "top %d rules by statistical significance:\n", n)
	for _, sc := range scores[:n] {
		fmt.Fprintf(stdout, "  %.3f (%d/%d) %s\n", sc.Score, sc.Hits, sc.Matches, sc.Rule)
	}
	if len(scores) > n {
		fmt.Fprintf(stdout, "bottom %d:\n", n)
		for _, sc := range scores[len(scores)-n:] {
			fmt.Fprintf(stdout, "  %.3f (%d/%d) %s\n", sc.Score, sc.Hits, sc.Matches, sc.Rule)
		}
	}
	return 0
}

func cmdSQL(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sql", flag.ContinueOnError)
	dir := fs.String("kb", "", "KB directory")
	query := fs.String("q", "", "SQL query (SELECT over T, TC, TR, FC, M1..M6, DE)")
	limit := count(50)
	fs.Var(&limit, "limit", "print at most `N` rows")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	if *query == "" {
		return fail(stderr, errors.New("missing -q QUERY"))
	}
	k, err := loadKB(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	res, err := k.QuerySQL(*query)
	if err != nil {
		return fail(stderr, err)
	}
	total, n := len(res.Rows), int(limit)
	if total > n {
		res.Rows = res.Rows[:n]
	}
	fmt.Fprint(stdout, res)
	if total > n {
		fmt.Fprintf(stdout, "... (%d of %d rows shown)\n", n, total)
	} else {
		fmt.Fprintf(stdout, "(%d rows)\n", total)
	}
	return 0
}

func cmdTop(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "probkb-server base URL")
	once := fs.Bool("once", false, "print a single frame and exit")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	const interval = 2 * time.Second // between polls
	client := &top.Client{Base: strings.TrimRight(*addr, "/")}
	var prev *top.Scrape
	for {
		cur, err := client.Metrics()
		if err != nil {
			return fail(stderr, err)
		}
		queries, err := client.Queries()
		if err != nil {
			return fail(stderr, err)
		}
		// Incidents are additive context: an older server without the
		// endpoint still renders (count 0).
		incidents, _ := client.Incidents()
		frame := top.Render(prev, cur, queries, incidents)
		if *once {
			fmt.Fprint(stdout, frame)
			return 0
		}
		// Home the cursor and clear to end of screen between frames so
		// the view repaints in place like top(1).
		fmt.Fprint(stdout, "\x1b[H\x1b[2J"+frame)
		prev = cur
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(interval):
		}
	}
}

// cmdIncidents lists a live server's watchdog incidents, or renders one
// full report (-id): summary, offending query and plan, the flight-
// recorder timeline leading up to the anomaly, and (with -goroutines)
// the goroutine dump.
func cmdIncidents(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("incidents", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "probkb-server base URL")
	id := fs.String("id", "", "show one full incident report instead of the listing")
	goroutines := fs.Bool("goroutines", false, "with -id: include the goroutine dump")
	if code, stop := parse(fs, args, stderr); stop {
		return code
	}
	client := &top.Client{Base: strings.TrimRight(*addr, "/")}
	if *id == "" {
		incidents, err := client.Incidents()
		if err != nil {
			return fail(stderr, err)
		}
		if len(incidents) == 0 {
			fmt.Fprintln(stdout, "no incidents")
			return 0
		}
		now := time.Now()
		for _, inc := range incidents {
			age := now.Sub(inc.Time).Round(time.Second)
			fmt.Fprintf(stdout, "%-5s %8s ago  %-16s %s\n", inc.ID, age, inc.Detector, inc.Summary)
		}
		fmt.Fprintf(stdout, "(%d incidents; probkb incidents -id ID for the full report)\n", len(incidents))
		return 0
	}

	raw, err := client.Incident(*id)
	if err != nil {
		return fail(stderr, err)
	}
	var inc obs.Incident
	if err := json.Unmarshal(raw, &inc); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "incident %s  %s  %s\n", inc.ID, inc.Detector, inc.Time.Format(time.RFC3339))
	fmt.Fprintf(stdout, "  %s\n", inc.Summary)
	if inc.QueryID != "" {
		fmt.Fprintf(stdout, "\noffending query %s (%s): %s\n", inc.QueryID, inc.QueryKind, inc.QueryText)
	}
	if inc.Plan != "" {
		fmt.Fprintf(stdout, "\nplan:\n%s\n", inc.Plan)
	}
	if len(inc.Queries) > 0 {
		fmt.Fprintf(stdout, "\nactive queries at capture:\n")
		for _, q := range inc.Queries {
			fmt.Fprintf(stdout, "  %-5s %-9s %-8s %10s %10d  %s\n",
				q.ID, q.Kind, q.Phase, q.Elapsed.Round(time.Millisecond), q.Rows, q.Text)
		}
	}
	fmt.Fprintf(stdout, "\nflight recorder (%d events):\n%s", len(inc.Flight), inc.Timeline)
	if *goroutines {
		fmt.Fprintf(stdout, "\ngoroutines:\n%s", inc.Goroutines)
	} else {
		fmt.Fprintf(stdout, "\n(goroutine dump captured; probkb incidents -id %s -goroutines to print)\n", inc.ID)
	}
	return 0
}
