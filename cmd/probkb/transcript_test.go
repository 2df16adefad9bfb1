package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"probkb"
	"probkb/internal/obs"
	"probkb/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/transcripts from this run")

// corpusKB is the saved tiny corpus the transcripts run over: two rules,
// one of them a two-atom join, and a functional constraint that removes
// Freud (born in two places) from the expansion.
func corpusKB() *probkb.KB {
	k := probkb.New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.AddFact("born_in", "Freud", "Writer", "Pribor", "Place", 0.9)
	k.AddFact("born_in", "Freud", "Writer", "Vienna", "Place", 0.4)
	k.AddFact("located_in", "Brooklyn", "Place", "New_York", "Place", 0.8)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	k.MustAddRule("0.80 live_in(x:Writer, z:Place) :- live_in(x:Writer, y:Place), located_in(y:Place, z:Place)")
	if err := k.AddConstraint("born_in", probkb.TypeI, 1); err != nil {
		panic(err)
	}
	return k
}

var (
	durations = regexp.MustCompile(`\b(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|ms|s)\b`)
	floats    = regexp.MustCompile(`\d+\.\d+`)
	padFloats = regexp.MustCompile(` +<f>`)
	numbers   = regexp.MustCompile(`\d+(\.\d+)?([KMG]i)?B?`)
	quantiles = regexp.MustCompile(`\b(p\d+) \S+`)
	spaces    = regexp.MustCompile(` {2,}`)
	startTime = regexp.MustCompile(`start=\S+`)
	operators = regexp.MustCompile(`(?s)(Top operators\n-+\n[^\n]+\n)(.*?)\n\n`)
)

// Normalizers strip what varies from run to run. Every transcript loses
// the scratch directory, wall-clock durations and ingest rates.
var (
	plain = func(s string) string {
		return durations.ReplaceAllString(timings.ReplaceAllString(s, ", <elapsed> (<rate> facts/sec)"), "<dur>")
	}
	// A report's time columns become <f>, padding included (a share's
	// width depends on its digits), which leaves the top-operators table
	// ordered by nothing: sort its rows.
	report = func(s string) string {
		s = floats.ReplaceAllString(startTime.ReplaceAllString(s, "start=<time>"), "<f>")
		s = padFloats.ReplaceAllString(s, " <f>")
		return operators.ReplaceAllStringFunc(s, func(m string) string {
			p := operators.FindStringSubmatch(m)
			rows := strings.Split(p[2], "\n")
			sort.Strings(rows)
			return p[1] + strings.Join(rows, "\n") + "\n\n"
		})
	}
	// A top frame shows gauges and rates of this test process: keep its
	// shape, not its numbers. The infer and ingest rows appear only once
	// the process has run inference or an ingest, and a latency quantile
	// only once it has served a request, so they go too.
	frame = func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "  infer ") && !strings.HasPrefix(line, "  ingest ") {
				keep = append(keep, line)
			}
		}
		s = quantiles.ReplaceAllString(strings.Join(keep, "\n"), "$1 <q>")
		return spaces.ReplaceAllString(numbers.ReplaceAllString(durations.ReplaceAllString(s, "<dur>"), "N"), " ")
	}
)

// TestTranscripts pins what each subcommand prints and its exit code —
// the happy path of every subcommand, the interrupt path of expand
// -persist and ingest (a cancelled context standing in for SIGINT), and
// the bad-input exits — against testdata/transcripts/<step>.txt. Steps
// run in order over one directory: later ones read what earlier ones
// wrote (the journal, the saved store).
func TestTranscripts(t *testing.T) {
	dir := t.TempDir()
	kbDir := filepath.Join(dir, "kb")
	if err := corpusKB().Save(kbDir); err != nil {
		t.Fatal(err)
	}
	k, err := probkb.Load(kbDir)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := k.Expand(probkb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(k, exp))
	defer srv.Close()
	t.Cleanup(obs.DefaultIncidents.Reset)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	interrupted, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	facts := []string{bornIn("Zweig", 0.9), bornIn("Kafka", 0.8), bornIn("Rilke", 0.7)}
	atom := "live_in(Ruth_Gruber, New_York)"
	for _, st := range []struct {
		name   string
		args   []string
		stdin  io.Reader
		ctx    context.Context
		norm   func(string) string
		before func()
	}{
		{name: "usage"},
		{name: "stats", args: []string{"stats", "-kb", kbDir}},
		{name: "expand", args: []string{"expand", "-kb", kbDir, "-v", "-out", dir + "/out", "-journal", dir + "/run.jsonl"}},
		{name: "report", args: []string{"report", dir + "/run.jsonl"}, norm: report},
		{name: "expand-persist", args: []string{"expand", "-kb", kbDir, "-persist", dir + "/st"}},
		{name: "expand-resume", args: []string{"expand", "-kb", dir + "/missing", "-persist", dir + "/st"}},
		{name: "expand-interrupted", args: []string{"expand", "-kb", kbDir, "-persist", dir + "/st2", "-out", dir + "/out2"}, ctx: cancelled},
		{name: "ingest", args: []string{"ingest", "-kb", kbDir, "-persist", dir + "/ist", "-batch", "2", "-delay", "1h", "-refresh-every", "2", "-v"}, stdin: strings.NewReader(strings.Join(facts, "\n"))},
		{name: "ingest-interrupted", args: []string{"ingest", "-kb", kbDir, "-persist", dir + "/ist2", "-batch", "2", "-delay", "1h", "-v"},
			stdin: &interruptingReader{lines: facts, n: 2, interrupt: interrupt}, ctx: interrupted},
		{name: "save", args: []string{"save", "-kb", kbDir, "-store", dir + "/saved"}},
		{name: "load", args: []string{"load", "-store", dir + "/saved", "-out", dir + "/loaded", "-checkpoint"}},
		{name: "explain", args: []string{"explain", "-kb", kbDir, "-fact", atom}},
		{name: "explain-bad-fact", args: []string{"explain", "-kb", kbDir, "-fact", "live_in(Ruth_Gruber)"}},
		{name: "query", args: []string{"query", "-kb", kbDir, "-atom", atom, "-seed", "7"}},
		{name: "rules", args: []string{"rules", "-kb", kbDir, "-top", "1"}},
		{name: "rules-negative-top", args: []string{"rules", "-kb", kbDir, "-top", "-1"}},
		{name: "sql", args: []string{"sql", "-kb", kbDir, "-q", "SELECT T.x, T.y FROM T", "-limit", "2"}},
		{name: "sql-negative-limit", args: []string{"sql", "-kb", kbDir, "-q", "SELECT T.x FROM T", "-limit", "-1"}},
		{name: "top", args: []string{"top", "-addr", srv.URL, "-once"}, norm: frame},
		{name: "incidents-none", args: []string{"incidents", "-addr", srv.URL}},
		{name: "incidents", args: []string{"incidents", "-addr", srv.URL}, norm: frame, before: func() {
			obs.DefaultIncidents.Open(obs.Finding{Detector: "stuck_query", Summary: "query q1 running 6m0s (> 5m0s)"})
		}},
	} {
		t.Run(st.name, func(t *testing.T) {
			if st.stdin == nil {
				st.stdin = strings.NewReader("")
			}
			if st.ctx == nil {
				st.ctx = context.Background()
			}
			if st.norm == nil {
				st.norm = plain
			}
			if st.before != nil {
				st.before()
			}
			code, stdout, stderr := runCLI(t, st.ctx, st.args, st.stdin)
			paths := strings.NewReplacer(srv.URL, "<server>", dir, "<dir>")
			got := paths.Replace("$ probkb "+strings.Join(st.args, " ")+"\n") +
				st.norm(paths.Replace(stdout+"--- stderr\n"+stderr)) + "--- exit " + strconv.Itoa(code) + "\n"
			path := filepath.Join("testdata", "transcripts", st.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("transcript differs from %s; got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// runCLI runs one probkb command line in process.
func runCLI(t *testing.T, ctx context.Context, args []string, stdin io.Reader) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(ctx, args, stdin, &out, &errb)
	return code, out.String(), errb.String()
}

// interruptingReader hands out one line per Read and, on the read after
// the first n lines, interrupts the command — what a SIGINT arriving
// mid-stream does.
type interruptingReader struct {
	lines     []string
	n         int
	interrupt func()
}

func (r *interruptingReader) Read(p []byte) (int, error) {
	if len(r.lines) == 0 {
		return 0, io.EOF
	}
	if r.n--; r.n < 0 {
		r.interrupt()
	}
	k := copy(p, r.lines[0]+"\n")
	r.lines = r.lines[1:]
	return k, nil
}
