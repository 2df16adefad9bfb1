package server

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"probkb"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// expositionChild marks the re-executed test binary that drives the
// traffic: metrics are process-global, so the shape is taken in a fresh
// process, where every family present comes from this traffic alone.
const expositionChild = "PROBKB_EXPOSITION_CHILD"

// TestExpositionShape drives fixed traffic through a store-backed server
// — one expansion, a point query that misses the cache and one that hits
// it, GET and POST /sql, one streamed POST /facts batch and one POST
// /admin/snapshot — and compares the text of GET /metrics with
// testdata/exposition.golden: for every family, its HELP and TYPE lines,
// label keys and bucket bounds; for counters, each series' delta over
// the traffic; for histograms, which series exist. Gauges and
// timing-valued samples are checked for presence only. Run with -update
// to re-record.
func TestExpositionShape(t *testing.T) {
	if os.Getenv(expositionChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpositionShape$", "-test.count=1")
		cmd.Env = append(os.Environ(), expositionChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("traffic process: %v\n%s", err, out)
		}
		got := extractShape(t, string(out))
		path := filepath.Join("testdata", "exposition.golden")
		if *updateExposition {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
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
			t.Fatalf("exposition shape differs from %s:\n%s", path, lineDiff(string(want), got))
		}
		return
	}

	k := testKB()
	st, err := probkb.CreateStore(filepath.Join(t.TempDir(), "store"), k)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, Persist: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(t, New(k, exp, WithStore(st)))
	defer srv.Close()

	before := parseExposition(t, scrape(t, srv.URL))

	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
	do("POST", "/admin/expand", `{"inference": true, "burnin": 20, "samples": 100, "seed": 1}`)
	do("GET", "/query?atom=live_in(Ruth_Gruber,+Brooklyn)", "")
	do("GET", "/query?atom=live_in(Ruth_Gruber,+Brooklyn)", "")
	do("GET", "/sql?q=SELECT+T.x,+T.y+FROM+T+WHERE+T.x+%3D+0", "")
	do("POST", "/sql", `{"q": "SELECT a.x, d.name FROM T a JOIN DE d ON a.x = d.id", "segments": 2}`)
	do("POST", "/facts?stream=1", chunk("Ada_Lovelace", "Mary_Shelley"))
	do("POST", "/admin/snapshot", "")

	after := parseExposition(t, scrape(t, srv.URL))
	fmt.Printf("SHAPE-BEGIN\n%sSHAPE-END\n", shape(before, after))
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// expFamily is one family as the exposition text shows it.
type expFamily struct {
	help, kind string
	keys       []string           // label keys, le excluded
	bounds     []string           // histogram le values, in order
	series     map[string]float64 // counter value or histogram count, by label pairs without le
}

func parseExposition(t *testing.T, text string) map[string]*expFamily {
	t.Helper()
	fams := map[string]*expFamily{}
	get := func(name string) *expFamily {
		f := fams[name]
		if f == nil {
			f = &expFamily{series: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			get(name).kind = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		metric, value := line[:i], line[i+1:]
		name, labels := metric, ""
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			name, labels = metric[:i], metric[i+1:len(metric)-1]
		}
		var pairs, keys []string
		le := ""
		for _, p := range splitLabels(labels) {
			k, _, _ := strings.Cut(p, "=")
			if k == "le" {
				le = p
				continue
			}
			pairs = append(pairs, p)
			keys = append(keys, k)
		}
		sig := strings.Join(pairs, ",")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		switch {
		case fams[name] != nil && fams[name].kind == "counter":
			f := fams[name]
			f.keys = keys
			f.series[sig] = v
		case fams[name] != nil && fams[name].kind == "gauge":
			fams[name].keys = keys
		case strings.HasSuffix(name, "_bucket"):
			f := fams[strings.TrimSuffix(name, "_bucket")]
			f.keys = keys
			if !slices.Contains(f.bounds, le) {
				f.bounds = append(f.bounds, le)
			}
		case strings.HasSuffix(name, "_count"):
			fams[strings.TrimSuffix(name, "_count")].series[sig] = v
		case strings.HasSuffix(name, "_sum"):
		default:
			t.Fatalf("sample %q of undeclared family", line)
		}
	}
	return fams
}

// splitLabels splits k="v",k="v" at the commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	start, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// shape renders the families of after: counters with each series' delta
// over before, histograms with their bounds and series, gauges with
// their label keys.
func shape(before, after map[string]*expFamily) string {
	names := make([]string, 0, len(after))
	for n := range after {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := after[n]
		fmt.Fprintf(&b, "%s %s keys=[%s]\n  HELP %s\n", n, f.kind, strings.Join(f.keys, ","), f.help)
		if len(f.bounds) > 0 {
			fmt.Fprintf(&b, "  bounds %s\n", strings.Join(f.bounds, " "))
		}
		sigs := make([]string, 0, len(f.series))
		for s := range f.series {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		for _, s := range sigs {
			if f.kind == "counter" {
				var prev float64
				if bf := before[n]; bf != nil {
					prev = bf.series[s]
				}
				fmt.Fprintf(&b, "  {%s} +%g\n", s, f.series[s]-prev)
			} else {
				fmt.Fprintf(&b, "  {%s}\n", s)
			}
		}
	}
	return b.String()
}

func extractShape(t *testing.T, out string) string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "SHAPE-BEGIN\n")
	if !ok {
		t.Fatalf("traffic process printed no shape:\n%s", out)
	}
	body, _, ok := strings.Cut(rest, "SHAPE-END\n")
	if !ok {
		t.Fatalf("traffic process printed a truncated shape:\n%s", out)
	}
	return body
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
