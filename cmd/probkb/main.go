// Command probkb runs knowledge expansion over a KB directory.
//
// Subcommands:
//
//	probkb stats   -kb DIR
//	    Print the KB's Table 2-style statistics.
//
//	probkb expand  -kb DIR [-out DIR] [-engine probkb|probkb-p|probkb-pn|tuffy]
//	               [-segments N] [-iters N] [-no-constraints] [-theta F]
//	               [-no-inference] [-burnin N] [-samples N] [-seed N] [-v] [-trace]
//	               [-journal FILE] [-persist DIR]
//	               [-chaos-seed N] [-chaos-fail P] [-chaos-panic P]
//	               [-chaos-straggle P] [-chaos-delay D]
//	               [-retries N] [-retry-backoff D]
//	    Expand the KB: quality control, batched grounding, Gibbs
//	    marginals. Writes the expanded KB to -out if given; prints a
//	    summary and the top inferred facts. -journal streams the run
//	    journal (JSONL events) to FILE for probkb report. SIGINT/SIGTERM
//	    cancel the run cooperatively: partial results are summarized, the
//	    journal is flushed, and the exit code is 1. The -chaos-* flags
//	    deterministically inject segment-task failures, panics, and
//	    stragglers into MPP runs; -retries re-executes failed segment
//	    tasks (results are unchanged — see probkb report's fault section).
//	    -persist makes the run durable: a columnar snapshot plus a WAL of
//	    every completed grounding iteration land in DIR as the run goes.
//	    An empty DIR is initialized from -kb; a DIR that already holds a
//	    store is recovered (snapshot + WAL replay) and expansion resumes
//	    from the recovered facts — kill the process at any point and
//	    re-run the same command.
//
//	probkb ingest  -kb DIR [-persist DIR] [-in FILE] [-format jsonl|csv]
//	               [-batch N] [-delay D] [-queue N]
//	               [-refresh-every K] [-refresh-interval D]
//	               [-burnin N] [-samples N] [-seed N] [-journal FILE] [-v]
//	    Stream facts into a live KB. The input (a file, or stdin with
//	    -in -) is a firehose of facts — JSONL objects with rel/x/xClass/
//	    y/yClass/probability fields, or CSV rows in that column order —
//	    absorbed in batches of up to -batch facts (a partial batch closes
//	    after -delay). Each batch lands with semi-naive delta grounding:
//	    its facts and everything derivable from them are visible (and,
//	    with -persist, WAL-durable) as soon as the batch is absorbed,
//	    while Gibbs marginals refresh lazily every -refresh-every batches
//	    or -refresh-interval of wall clock, whichever fires first. SIGINT
//	    stops the reader, drains the queue, runs a final refresh, and
//	    summarizes; a second SIGINT aborts the in-flight batch. With
//	    -persist, a DIR that already holds a store is recovered and
//	    ingestion resumes on top of it — re-streaming the same input is
//	    harmless (duplicate facts are dropped by the closure). -journal
//	    streams one ingest_batch/ingest_refresh JSONL event per batch.
//
//	probkb save    -kb DIR -store DIR
//	    Initialize a durable store from a KB: generation-1 snapshot plus
//	    an empty WAL.
//
//	probkb load    -store DIR [-out DIR] [-checkpoint]
//	    Recover the store (snapshot load, WAL replay, torn-tail
//	    truncation) and print what was recovered. -out writes the
//	    recovered KB as a text directory; -checkpoint folds the WAL into
//	    a fresh snapshot before exiting.
//
//	probkb report  [-top N] [-skew N] [-json] JOURNAL
//	    Analyze a run journal written by expand -journal: per-phase time
//	    breakdown, grounding iterations, top-k slowest operators, the
//	    per-segment skew/straggler table, motion volumes, and the Gibbs
//	    convergence timeline. -json emits the analyzed profile as JSON
//	    (the same payload as the server's /debug/profile).
//
//	probkb explain -kb DIR -fact "rel(x, y)" [-depth N]
//	    Expand, then print the derivation tree of one fact.
//
//	probkb query   -kb DIR -atom "rel(x, y)" [-depth N] [-radius N]
//	               [-markov N] [-burnin N] [-samples N] [-seed N]
//	    Answer one point query without expanding: ground only the atom's
//	    local proof graph and Gibbs-sample only its Markov neighborhood.
//	    -samples -1 skips inference and just reports derivability.
//
//	probkb rules   -kb DIR [-top N]
//	    Score the KB's rules by statistical significance.
//
//	probkb sql     -kb DIR -q "SELECT ..." [-explain] [-limit N]
//	    Run a SQL query against the KB's relational representation. The
//	    catalog holds T (facts), TC, TR, FC (constraints), and the MLN
//	    partition tables M1..M6 — the paper's grounding queries run
//	    verbatim.
//
//	probkb top     [-addr URL] [-interval D] [-once]
//	    Live terminal view of a running probkb-server: qps, p50/p99
//	    request latency, in-flight queries with phase and rows so far,
//	    Gibbs sampling throughput, and Go runtime health — polled from
//	    the server's /metrics and /debug/queries endpoints. Rates and
//	    quantiles are computed over the poll interval; values marked *
//	    are lifetime cumulative (shown until two polls have landed).
//	    -once prints a single frame and exits.
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "stats":
		cmdStats(os.Args[2:])
	case "expand":
		cmdExpand(os.Args[2:])
	case "ingest":
		os.Exit(cmdIngest(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	case "save":
		cmdSave(os.Args[2:])
	case "load":
		cmdLoad(os.Args[2:])
	case "report":
		cmdReport(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "rules":
		cmdRules(os.Args[2:])
	case "sql":
		cmdSQL(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "incidents":
		cmdIncidents(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: probkb {stats|expand|ingest|save|load|report|explain|query|rules|sql|top|incidents} [flags]; see -h of each subcommand")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "probkb:", err)
	os.Exit(1)
}

func loadKB(dir string) *probkb.KB {
	if dir == "" {
		die(fmt.Errorf("missing -kb DIR"))
	}
	k, err := probkb.Load(dir)
	if err != nil {
		die(err)
	}
	return k
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	fs.Parse(args)
	k := loadKB(*dir)
	s := k.Stats()
	fmt.Printf("# relations  %8d    # entities %8d\n", s.Relations, s.Entities)
	fmt.Printf("# rules      %8d    # facts    %8d\n", s.Rules, s.Facts)
	fmt.Printf("# classes    %8d    # constraints %5d\n", s.Classes, s.Constraints)
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

func cmdExpand(args []string) {
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	out := fs.String("out", "", "write the expanded KB to this directory")
	engineName := fs.String("engine", "probkb", "probkb | probkb-p | probkb-pn | tuffy")
	segments := fs.Int("segments", 4, "MPP segments")
	engineWorkers := fs.Int("engine-workers", 0, "engine worker-pool size (0 = NumCPU single-node / serial segments on MPP; 1 = serial)")
	iters := fs.Int("iters", 0, "max grounding iterations (0 = to convergence)")
	noConstraints := fs.Bool("no-constraints", false, "disable semantic constraints")
	theta := fs.Float64("theta", 1, "rule cleaning: keep top θ of rules (1 = off)")
	noInference := fs.Bool("no-inference", false, "skip Gibbs marginal inference")
	burnin := fs.Int("burnin", 100, "Gibbs burn-in sweeps")
	samples := fs.Int("samples", 500, "Gibbs sample sweeps")
	seed := fs.Int64("seed", 0, "inference seed")
	verbose := fs.Bool("v", false, "print per-iteration progress and top inferred facts")
	trace := fs.Bool("trace", false, "print the expansion's span tree (per-stage timings)")
	factorsDir := fs.String("factors", "", "export the ground factor graph (variables.tsv, factors.tsv) to this directory")
	journalPath := fs.String("journal", "", "stream the run journal (JSONL events) to this file; analyze with probkb report")
	persistDir := fs.String("persist", "", "durable store directory: created from -kb if empty, recovered and resumed if it already holds a store")
	chaosSeed := fs.Int64("chaos-seed", 0, "fault-injection seed (MPP engines)")
	chaosFail := fs.Float64("chaos-fail", 0, "per-segment-task probability of an injected failure")
	chaosPanic := fs.Float64("chaos-panic", 0, "per-segment-task probability of an injected worker panic")
	chaosStraggle := fs.Float64("chaos-straggle", 0, "per-segment-task probability of an injected straggler")
	chaosDelay := fs.Duration("chaos-delay", 10*time.Millisecond, "injected straggler sleep")
	retries := fs.Int("retries", 0, "re-execute a failed MPP segment task up to N times")
	retryBackoff := fs.Duration("retry-backoff", time.Millisecond, "base delay before segment retry k (scaled linearly)")
	fs.Parse(args)

	var (
		k   *probkb.KB
		pst *probkb.Store
	)
	if *persistDir != "" {
		ok, err := probkb.StoreExists(*persistDir)
		if err != nil {
			die(err)
		}
		if ok {
			// A store already lives here: recover it and resume from the
			// recovered facts; -kb is not consulted.
			if pst, err = probkb.OpenStore(*persistDir); err != nil {
				die(err)
			}
			k = pst.KB()
			fmt.Printf("resumed store %s: gen %d, %d WAL records replayed, %d facts\n",
				*persistDir, pst.Gen(), pst.WALRecords(), pst.Facts())
		} else {
			k = loadKB(*dir)
			if pst, err = probkb.CreateStore(*persistDir, k); err != nil {
				die(err)
			}
			fmt.Printf("initialized store %s\n", *persistDir)
		}
		defer pst.Close()
	} else {
		k = loadKB(*dir)
	}
	eng, err := engineByName(*engineName)
	if err != nil {
		die(err)
	}
	cfg := probkb.Config{
		Engine:           eng,
		Segments:         *segments,
		EngineWorkers:    *engineWorkers,
		MaxIterations:    *iters,
		ApplyConstraints: !*noConstraints,
		RuleCleanTheta:   *theta,
		RunInference:     !*noInference,
		GibbsBurnin:      *burnin,
		GibbsSamples:     *samples,
		GibbsParallel:    true,
		Seed:             *seed,
		JournalPath:      *journalPath,
		SegmentRetries:   *retries,
		RetryBackoff:     *retryBackoff,
	}
	cfg.Persist = pst
	if *chaosFail > 0 || *chaosPanic > 0 || *chaosStraggle > 0 {
		cfg.Faults = &probkb.FaultConfig{
			Seed:          *chaosSeed,
			FailRate:      *chaosFail,
			PanicRate:     *chaosPanic,
			StraggleRate:  *chaosStraggle,
			StraggleDelay: *chaosDelay,
		}
	}

	// SIGINT/SIGTERM cancel the run context. The pipeline honors
	// cancellation cooperatively and returns a PartialError whose journal
	// has been flushed, so `probkb report` works on interrupted runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exp, err := k.ExpandContext(ctx, cfg)
	interrupted := false
	if err != nil {
		var pe *probkb.PartialError
		if !errors.As(err, &pe) {
			die(err)
		}
		interrupted = true
		exp = pe.Partial
		fmt.Fprintf(os.Stderr, "probkb: run interrupted during %s (%v); partial results follow\n",
			pe.Phase, pe.Err)
	}
	st := exp.Stats()
	fmt.Printf("engine         %s\n", eng)
	fmt.Printf("base facts     %d\n", st.BaseFacts)
	fmt.Printf("inferred facts %d\n", st.InferredFacts)
	fmt.Printf("factors        %d\n", st.Factors)
	fmt.Printf("iterations     %d (converged=%v)\n", st.Iterations, st.Converged)
	fmt.Printf("queries        %d grounding + %d factor\n", st.AtomQueries, st.FactorQueries)
	fmt.Printf("time           load %s, grounding %s, factors %s, inference %s\n",
		st.LoadTime, st.GroundingTime, st.FactorTime, st.InferenceTime)

	if *trace {
		if tr := obs.LastTrace(); tr != nil {
			fmt.Println("trace:")
			fmt.Print(tr.Render())
		}
	}

	if *verbose {
		for _, it := range exp.PerIteration() {
			fmt.Printf("  iter %d: +%d facts, -%d deleted, %d queries, %s\n",
				it.Iteration, it.NewFacts, it.Deleted, it.Queries, it.Elapsed)
		}
		inferred := exp.InferredFacts()
		sort.Slice(inferred, func(a, b int) bool {
			return inferred[a].Probability > inferred[b].Probability
		})
		n := 20
		if len(inferred) < n {
			n = len(inferred)
		}
		fmt.Printf("top %d inferred facts:\n", n)
		for _, f := range inferred[:n] {
			fmt.Println(" ", f)
		}
	}

	if interrupted {
		// A partial run is not a publishable expansion: skip -out and
		// -factors, exit nonzero. The journal (if any) is already flushed.
		if *factorsDir != "" || *out != "" {
			fmt.Fprintln(os.Stderr, "probkb: run was interrupted; skipping -out/-factors output")
		}
		if pst != nil {
			pst.Close()
			fmt.Fprintf(os.Stderr, "probkb: durable state through the last completed iteration is in %s; re-run with -persist to resume\n", pst.Dir())
		}
		os.Exit(1)
	}
	if pst != nil {
		fmt.Printf("store %s: gen %d, %d WAL records, %d facts durable\n",
			pst.Dir(), pst.Gen(), pst.WALRecords(), pst.Facts())
	}
	if *factorsDir != "" {
		if err := exp.SaveFactorGraph(*factorsDir); err != nil {
			die(err)
		}
		fmt.Printf("factor graph written to %s\n", *factorsDir)
	}
	if *out != "" {
		if err := exp.ToKB().Save(*out); err != nil {
			die(err)
		}
		fmt.Printf("expanded KB written to %s\n", *out)
	}
}

// cmdIngest streams a firehose of facts into a live KB through the
// ingest pipeline: batches land with semi-naive delta grounding (facts
// and closure visible immediately, WAL-durable with -persist) while
// Gibbs marginals refresh lazily on the configured staleness policy.
// It returns the exit code: non-zero when the input or the pipeline
// stopped early (an invalid fact, an interrupt), with everything landed
// before that still published and durable.
func cmdIngest(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory (rules + seed facts); not consulted when -persist already holds a store")
	persistDir := fs.String("persist", "", "durable store directory: created from -kb if empty, recovered and resumed if it already holds a store")
	inPath := fs.String("in", "-", "fact stream: a file, or - for stdin")
	format := fs.String("format", "", "jsonl | csv (default: csv for .csv files, jsonl otherwise)")
	batch := fs.Int("batch", 256, "batch-size trigger (facts)")
	delay := fs.Duration("delay", 50*time.Millisecond, "batch-latency trigger: a partial batch closes this long after its first fact")
	queue := fs.Int("queue", 4096, "firehose queue depth (facts); the reader blocks when it is full")
	refreshEvery := fs.Int("refresh-every", 8, "refresh Gibbs marginals every K absorbed batches (0 = only on close)")
	refreshInterval := fs.Duration("refresh-interval", 0, "also refresh after this much wall clock since the last refresh (0 = off)")
	burnin := fs.Int("burnin", 100, "Gibbs burn-in sweeps per refresh")
	samples := fs.Int("samples", 500, "Gibbs sample sweeps per refresh")
	seed := fs.Int64("seed", 0, "inference seed")
	journalPath := fs.String("journal", "", "stream ingest_batch/ingest_refresh events (JSONL) to this file")
	verbose := fs.Bool("v", false, "print one line per absorbed batch")
	fs.Parse(args)

	var (
		k   *probkb.KB
		pst *probkb.Store
	)
	if *persistDir != "" {
		ok, err := probkb.StoreExists(*persistDir)
		if err != nil {
			die(err)
		}
		if ok {
			if pst, err = probkb.OpenStore(*persistDir); err != nil {
				die(err)
			}
			k = pst.KB()
			fmt.Fprintf(stdout, "resumed store %s: gen %d, %d WAL records replayed, %d facts\n",
				*persistDir, pst.Gen(), pst.WALRecords(), pst.Facts())
		} else {
			k = loadKB(*dir)
			if pst, err = probkb.CreateStore(*persistDir, k); err != nil {
				die(err)
			}
			fmt.Fprintf(stdout, "initialized store %s\n", *persistDir)
		}
		defer pst.Close()
	} else {
		k = loadKB(*dir)
	}

	// Seed the serving state: one full expansion of the starting KB,
	// marginals included, so the stream lands on a converged baseline.
	exp, err := k.Expand(probkb.Config{
		Engine: probkb.SingleNode, RunInference: true,
		GibbsBurnin: *burnin, GibbsSamples: *samples, GibbsParallel: true,
		Seed: *seed, Persist: pst,
	})
	if err != nil {
		die(err)
	}
	base := exp.Stats()
	fmt.Fprintf(stdout, "baseline       %d base + %d inferred facts\n", base.BaseFacts, base.InferredFacts)

	src := stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			die(err)
		}
		defer f.Close()
		src = f
	}
	if *format == "" {
		if strings.HasSuffix(*inPath, ".csv") {
			*format = "csv"
		} else {
			*format = "jsonl"
		}
	}

	// First SIGINT: stop the reader, drain the queue, run the closing
	// refresh. Second SIGINT: abort the in-flight batch (nothing torn —
	// with -persist, re-running the same command resumes).
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	readCtx, stopRead := context.WithCancel(context.Background())
	defer stopRead()
	pipeCtx, stopPipe := context.WithCancel(context.Background())
	defer stopPipe()
	go func() {
		<-sigCh
		fmt.Fprintln(stderr, "probkb: interrupt — draining and refreshing (interrupt again to abort)")
		stopRead()
		<-sigCh
		fmt.Fprintln(stderr, "probkb: aborting in-flight batch")
		stopPipe()
	}()

	ing := probkb.NewIngester(exp)
	var jr *journal.Writer
	if *journalPath != "" {
		jr = journal.New()
		if err := jr.SinkTo(*journalPath); err != nil {
			die(err)
		}
		defer jr.Close()
	}
	cfg := ingest.Config{
		MaxBatch: *batch, MaxDelay: *delay, QueueDepth: *queue,
		RefreshEvery: *refreshEvery, RefreshInterval: *refreshInterval,
		RefreshOnClose: true, Journal: jr,
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

	read, readErr := streamFacts(src, *format, func(f ingest.Fact) error {
		return p.Submit(readCtx, f)
	})
	interrupted := errors.Is(readErr, context.Canceled)
	if readErr != nil && !interrupted {
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

func cmdSave(args []string) {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	storeDir := fs.String("store", "", "store directory to initialize")
	fs.Parse(args)
	if *storeDir == "" {
		die(fmt.Errorf("missing -store DIR"))
	}
	k := loadKB(*dir)
	st, err := probkb.CreateStore(*storeDir, k)
	if err != nil {
		die(err)
	}
	if err := st.Close(); err != nil {
		die(err)
	}
	fmt.Printf("store %s: gen %d snapshot, %d bytes, %d facts\n",
		*storeDir, st.Gen(), st.SnapshotBytes(), st.Facts())
}

func cmdLoad(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory to recover")
	out := fs.String("out", "", "write the recovered KB as a text directory")
	checkpoint := fs.Bool("checkpoint", false, "fold the WAL into a fresh snapshot after recovery")
	fs.Parse(args)
	if *storeDir == "" {
		die(fmt.Errorf("missing -store DIR"))
	}
	st, err := probkb.OpenStore(*storeDir)
	if err != nil {
		die(err)
	}
	defer st.Close()
	fmt.Printf("recovered store %s: gen %d, %d WAL records replayed\n",
		*storeDir, st.Gen(), st.WALRecords())
	k := st.KB()
	s := k.Stats()
	fmt.Printf("# relations  %8d    # entities %8d\n", s.Relations, s.Entities)
	fmt.Printf("# rules      %8d    # facts    %8d\n", s.Rules, s.Facts)
	fmt.Printf("# classes    %8d    # constraints %5d\n", s.Classes, s.Constraints)
	if *checkpoint {
		if err := st.Checkpoint(); err != nil {
			die(err)
		}
		fmt.Printf("checkpointed: gen %d snapshot, %d bytes\n", st.Gen(), st.SnapshotBytes())
	}
	if *out != "" {
		if err := k.Save(*out); err != nil {
			die(err)
		}
		fmt.Printf("recovered KB written to %s\n", *out)
	}
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	top := fs.Int("top", 10, "operators to show in the top-operators table")
	skew := fs.Int("skew", 10, "rows to show in the per-segment skew table")
	asJSON := fs.Bool("json", false, "emit the analyzed profile as JSON instead of text")
	fs.Parse(args)
	path := fs.Arg(0)
	if path == "" {
		die(fmt.Errorf("missing journal file: probkb report [-top N] [-skew N] [-json] JOURNAL"))
	}
	run, err := journal.ReadFile(path)
	if err != nil {
		die(err)
	}
	prof := journal.Analyze(run)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(prof); err != nil {
			die(err)
		}
		return
	}
	fmt.Print(journal.Render(prof, journal.ReportOptions{TopOperators: *top, TopSkew: *skew}))
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	factStr := fs.String("fact", "", `fact to explain, as "rel(x, y)"`)
	depth := fs.Int("depth", 4, "proof tree depth")
	fs.Parse(args)

	rel, x, y, err := parseFactRef(*factStr)
	if err != nil {
		die(err)
	}
	k := loadKB(*dir)
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, ApplyConstraints: true})
	if err != nil {
		die(err)
	}
	text, err := exp.Explain(rel, x, y, *depth)
	if err != nil {
		die(err)
	}
	fmt.Print(text)
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	atom := fs.String("atom", "", `query atom "rel(x, y)"`)
	depth := fs.Int("depth", 0, "proof depth bound (0 = default)")
	radius := fs.Int("radius", 0, "evidence-ball radius (0 = depth+1)")
	markov := fs.Int("markov", 0, "Gibbs neighborhood radius (0 = whole component)")
	burnin := fs.Int("burnin", 0, "Gibbs burn-in sweeps (0 = default)")
	samples := fs.Int("samples", 0, "Gibbs sample sweeps (0 = default, -1 = skip inference)")
	seed := fs.Int64("seed", 0, "random seed for sampling")
	fs.Parse(args)
	if *atom == "" {
		die(fmt.Errorf("missing -atom \"rel(x, y)\""))
	}
	rel, x, y, err := probkb.ParseAtom(*atom)
	if err != nil {
		die(err)
	}
	k := loadKB(*dir)
	m, err := k.PointQuery(context.Background(), probkb.PointQuery{
		Rel: rel, X: x, Y: y,
		Depth: *depth, Radius: *radius, MarkovRadius: *markov,
		Burnin: *burnin, Samples: *samples,
	}, probkb.Config{Seed: *seed})
	if err != nil {
		die(err)
	}
	switch {
	case !m.Found:
		fmt.Printf("%s(%s, %s): not derivable (depth %d, radius %d)\n", rel, x, y, m.Depth, m.Radius)
	case m.Observed:
		fmt.Printf("%s(%s, %s) = %.4f (observed)\n", rel, x, y, m.Probability)
	default:
		fmt.Printf("%s(%s, %s) = %.4f (inferred)\n", rel, x, y, m.Probability)
	}
	fmt.Printf("local: %d seed facts, %d facts after %d iterations, %d rules in scope, %d vars / %d factors inferred over, %d sweeps, %s\n",
		m.SeedFacts, m.LocalFacts, m.Iterations, m.RulesReachable, m.LocalVars, m.LocalFactors, m.Collected, m.Elapsed.Round(time.Millisecond))
}

func parseFactRef(s string) (rel, x, y string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", "", "", fmt.Errorf(`bad -fact %q: want "rel(x, y)"`, s)
	}
	rel = strings.TrimSpace(s[:open])
	args := strings.Split(s[open+1:len(s)-1], ",")
	if len(args) != 2 || rel == "" {
		return "", "", "", fmt.Errorf(`bad -fact %q: want "rel(x, y)"`, s)
	}
	return rel, strings.TrimSpace(args[0]), strings.TrimSpace(args[1]), nil
}

func cmdSQL(args []string) {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	query := fs.String("q", "", "SQL query (SELECT over T, TC, TR, FC, M1..M6, DE)")
	explain := fs.Bool("explain", false, "print the annotated physical plan instead of rows")
	limit := fs.Int("limit", 50, "maximum rows to print")
	fs.Parse(args)
	if *query == "" {
		die(fmt.Errorf("missing -q QUERY"))
	}
	k := loadKB(*dir)
	if *explain {
		plan, err := k.ExplainSQL(*query)
		if err != nil {
			die(err)
		}
		fmt.Print(plan)
		return
	}
	res, err := k.QuerySQL(*query)
	if err != nil {
		die(err)
	}
	total := len(res.Rows)
	if total > *limit {
		res.Rows = res.Rows[:*limit]
	}
	fmt.Print(res)
	if total > *limit {
		fmt.Printf("... (%d of %d rows shown)\n", *limit, total)
	} else {
		fmt.Printf("(%d rows)\n", total)
	}
}

func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "probkb-server base URL")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "print a single frame and exit")
	fs.Parse(args)

	client := &top.Client{Base: strings.TrimRight(*addr, "/")}
	var prev *top.Scrape
	for {
		cur, err := client.Metrics()
		if err != nil {
			die(err)
		}
		queries, err := client.Queries()
		if err != nil {
			die(err)
		}
		// Incidents are additive context: an older server without the
		// endpoint still renders (count 0).
		incidents, _ := client.Incidents()
		frame := top.Render(prev, cur, queries, incidents)
		if *once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear to end of screen between frames so
		// the view repaints in place like top(1).
		fmt.Print("\x1b[H\x1b[2J" + frame)
		prev = cur
		time.Sleep(*interval)
	}
}

// cmdIncidents lists a live server's watchdog incidents, or renders one
// full report (-id): summary, offending query and plan, the flight-
// recorder timeline leading up to the anomaly, and (with -goroutines)
// the goroutine dump.
func cmdIncidents(args []string) {
	fs := flag.NewFlagSet("incidents", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "probkb-server base URL")
	id := fs.String("id", "", "show one full incident report instead of the listing")
	goroutines := fs.Bool("goroutines", false, "with -id: include the goroutine dump")
	asJSON := fs.Bool("json", false, "emit raw JSON")
	fs.Parse(args)

	client := &top.Client{Base: strings.TrimRight(*addr, "/")}
	if *id == "" {
		incidents, err := client.Incidents()
		if err != nil {
			die(err)
		}
		if *asJSON {
			json.NewEncoder(os.Stdout).Encode(incidents)
			return
		}
		if len(incidents) == 0 {
			fmt.Println("no incidents")
			return
		}
		now := time.Now()
		for _, inc := range incidents {
			age := now.Sub(inc.Time).Round(time.Second)
			fmt.Printf("%-5s %8s ago  %-16s %s\n", inc.ID, age, inc.Detector, inc.Summary)
		}
		fmt.Printf("(%d incidents; probkb incidents -id ID for the full report)\n", len(incidents))
		return
	}

	raw, err := client.Incident(*id)
	if err != nil {
		die(err)
	}
	if *asJSON {
		os.Stdout.Write(append(raw, '\n'))
		return
	}
	var inc obs.Incident
	if err := json.Unmarshal(raw, &inc); err != nil {
		die(err)
	}
	fmt.Printf("incident %s  %s  %s\n", inc.ID, inc.Detector, inc.Time.Format(time.RFC3339))
	fmt.Printf("  %s\n", inc.Summary)
	if inc.QueryID != "" {
		fmt.Printf("\noffending query %s (%s): %s\n", inc.QueryID, inc.QueryKind, inc.QueryText)
	}
	if inc.Plan != "" {
		fmt.Printf("\nplan:\n%s\n", inc.Plan)
	}
	if len(inc.Queries) > 0 {
		fmt.Printf("\nactive queries at capture:\n")
		for _, q := range inc.Queries {
			fmt.Printf("  %-5s %-9s %-8s %10s %10d  %s\n",
				q.ID, q.Kind, q.Phase, q.Elapsed.Round(time.Millisecond), q.Rows, q.Text)
		}
	}
	fmt.Printf("\nflight recorder (%d events):\n%s", len(inc.Flight), inc.Timeline)
	if *goroutines {
		fmt.Printf("\ngoroutines:\n%s", inc.Goroutines)
	} else {
		fmt.Printf("\n(goroutine dump captured; probkb incidents -id %s -goroutines to print)\n", inc.ID)
	}
}

func cmdRules(args []string) {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	dir := fs.String("kb", "", "KB directory")
	top := fs.Int("top", 20, "show the N best and worst rules")
	fs.Parse(args)

	k := loadKB(*dir)
	scores := k.RuleScores()
	sort.Slice(scores, func(a, b int) bool { return scores[a].Score > scores[b].Score })
	n := *top
	if n > len(scores) {
		n = len(scores)
	}
	fmt.Printf("top %d rules by statistical significance:\n", n)
	for _, sc := range scores[:n] {
		fmt.Printf("  %.3f (%d/%d) %s\n", sc.Score, sc.Hits, sc.Matches, sc.Rule)
	}
	if len(scores) > n {
		fmt.Printf("bottom %d:\n", n)
		for _, sc := range scores[len(scores)-n:] {
			fmt.Printf("  %.3f (%d/%d) %s\n", sc.Score, sc.Hits, sc.Matches, sc.Rule)
		}
	}
}
