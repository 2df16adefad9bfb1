package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	requests := &Vec[Counter]{r.declare(kindCounter, "probkb_test_requests_total", "requests served", nil, []string{"path"})}
	requests.With("/facts").Add(3)
	requests.With("/stats").Inc()
	only[Gauge](r.declare(kindGauge, "probkb_test_in_flight", "in flight", nil, nil)).Set(2)
	only[Gauge](r.declare(kindGauge, "probkb_test_temperature", "temperature", nil, nil)).Set(36.6)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP probkb_test_requests_total requests served\n",
		"# TYPE probkb_test_requests_total counter\n",
		`probkb_test_requests_total{path="/facts"} 3` + "\n",
		`probkb_test_requests_total{path="/stats"} 1` + "\n",
		"# TYPE probkb_test_in_flight gauge\n",
		"probkb_test_in_flight 2\n",
		"probkb_test_temperature 36.6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := only[Histogram](r.declare(kindHistogram, "probkb_test_latency_seconds", "latency", []float64{0.1, 1, 10}, nil))
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE probkb_test_latency_seconds histogram\n",
		`probkb_test_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`probkb_test_latency_seconds_bucket{le="1"} 3` + "\n",
		`probkb_test_latency_seconds_bucket{le="10"} 4` + "\n",
		`probkb_test_latency_seconds_bucket{le="+Inf"} 5` + "\n",
		"probkb_test_latency_seconds_sum 56.05\n",
		"probkb_test_latency_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	(&Vec[Counter]{r.declare(kindCounter, "probkb_test_esc_total", "escapes", nil, []string{"q"})}).With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `probkb_test_esc_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaping: missing %q in:\n%s", want, b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	only[Counter](r.declare(kindCounter, "probkb_test_c_total", "c", nil, nil)).Add(7)
	(&Vec[Gauge]{r.declare(kindGauge, "probkb_test_g", "g", nil, []string{"k"})}).With("v").Set(1.5)
	only[Histogram](r.declare(kindHistogram, "probkb_test_h_seconds", "h", []float64{1}, nil)).Observe(0.5)

	snap := r.Snapshot()
	if snap["probkb_test_c_total"] != 7 {
		t.Errorf("counter snapshot = %v, want 7", snap["probkb_test_c_total"])
	}
	if snap[`probkb_test_g{k="v"}`] != 1.5 {
		t.Errorf("gauge snapshot = %v, want 1.5", snap[`probkb_test_g{k="v"}`])
	}
	if snap["probkb_test_h_seconds_count"] != 1 || snap["probkb_test_h_seconds_sum"] != 0.5 {
		t.Errorf("histogram snapshot = count %v sum %v, want 1 / 0.5",
			snap["probkb_test_h_seconds_count"], snap["probkb_test_h_seconds_sum"])
	}
}

// TestSeriesAppearOnFirstUse: an unlabeled series is hidden until
// something records into it, even a zero; a label tuple shows once
// asked for.
func TestSeriesAppearOnFirstUse(t *testing.T) {
	r := NewRegistry()
	c := only[Counter](r.declare(kindCounter, "probkb_test_lazy_total", "lazy", nil, nil))
	v := &Vec[Histogram]{r.declare(kindHistogram, "probkb_test_lazy_seconds", "lazy", nil, []string{"op"})}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("declared families show before any use: %v", snap)
	}
	c.Add(0)
	v.With("scan")
	snap := r.Snapshot()
	if _, ok := snap["probkb_test_lazy_total"]; !ok || len(snap) != 3 {
		t.Fatalf("snapshot after first use = %v, want the counter and one histogram series", snap)
	}
	if _, ok := snap[`probkb_test_lazy_seconds_count{op="scan"}`]; !ok {
		t.Fatalf("label tuple asked for does not show: %v", snap)
	}
}

func TestSameSeriesIsSameInstance(t *testing.T) {
	r := NewRegistry()
	v := &Vec[Counter]{r.declare(kindCounter, "probkb_test_same_total", "same", nil, []string{"x", "y"})}
	a, b := v.With("1", "2"), v.With("1", "2")
	a.Inc()
	b.Inc()
	if a != b {
		t.Fatal("same label values produced distinct counters")
	}
	if a.Value() != 2 {
		t.Fatalf("value = %d, want 2", a.Value())
	}
	if v.With("2", "1") == a {
		t.Fatal("swapped label values share a series")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := only[Counter](r.declare(kindCounter, "probkb_test_mono_total", "mono", nil, nil))
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter went backwards: %d", c.Value())
	}
}

// TestLookupOfExistingSeriesAllocatesNothing: once a tuple's series
// exists, With is a signature on the stack and a map read.
func TestLookupOfExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := only[Counter](r.declare(kindCounter, "probkb_test_alloc_total", "alloc", nil, nil))
	h := &Vec[Histogram]{r.declare(kindHistogram, "probkb_test_alloc_seconds", "alloc", nil, []string{"op"})}
	g := &Vec[Gauge]{r.declare(kindGauge, "probkb_test_alloc_gauge", "alloc", nil, []string{"phase", "partition"})}
	h.With("scan")
	g.With("atoms", "P3")
	for name, record := range map[string]func(){
		"0 labels": func() { c.Inc() },
		"1 label":  func() { h.With("scan").Observe(1e-3) },
		"2 labels": func() { g.With("atoms", "P3").Set(1) },
	} {
		if n := testing.AllocsPerRun(100, record); n != 0 {
			t.Errorf("%s: %v allocs per record, want 0", name, n)
		}
	}
}

// TestUnsortedLabelsShareTheSortedSeries: With takes values in declared
// key order; the series renders its pairs in key order.
func TestUnsortedLabelsShareTheSortedSeries(t *testing.T) {
	r := NewRegistry()
	v := &Vec[Counter]{r.declare(kindCounter, "probkb_test_order_total", "order", nil, []string{"path", "code"})}
	v.With("/facts", "200").Inc()
	if got := r.Snapshot()[`probkb_test_order_total{code="200",path="/facts"}`]; got != 1 {
		t.Fatalf("snapshot = %v, want the pairs in key order", r.Snapshot())
	}
}

// TestWithWrongArityPanics: a recording site passing the wrong number
// of label values is a programming error.
func TestWithWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	v := &Vec[Counter]{r.declare(kindCounter, "probkb_test_arity_total", "arity", nil, []string{"a", "b"})}
	defer func() {
		if recover() == nil {
			t.Fatal("With of one value for two keys did not panic")
		}
	}()
	v.With("x")
}

// TestDeclarationRules: each naming rule is checked when a family is
// declared. Every case breaks exactly one rule, so removing a check
// fails its case.
func TestDeclarationRules(t *testing.T) {
	// Declare into a fresh Default, so that a second run of the test in
	// one process (-count=2) declares no family the first one did.
	saved := Default
	Default = NewRegistry()
	defer func() { Default = saved }()
	for _, tc := range []struct {
		rule    string
		declare func()
	}{
		{"name is probkb_ snake_case", func() { NewCounter("probkb_Rules_total", "h") }},
		{"name has the probkb_ prefix", func() { NewGauge("rules_queue_depth", "h") }},
		{"counter ends in _total", func() { NewCounter("probkb_rules_requests", "h") }},
		{"histogram ends in a unit suffix", func() { NewHistogram("probkb_rules_latency_ms", "h", nil) }},
		{"labeled histogram ends in a unit suffix", func() { NewHistogramVec("probkb_rules_size", "h", nil, "op") }},
		{"help is non-empty", func() { NewCounter("probkb_rules_helpless_total", "") }},
		{"label keys are snake_case", func() { NewCounterVec("probkb_rules_keys_total", "h", "Path") }},
		{"label keys start with a letter", func() { NewGaugeVec("probkb_rules_keys", "h", "9lives") }},
		{"a name is declared once", func() {
			NewCounter("probkb_rules_twice_total", "h")
			NewCounter("probkb_rules_twice_total", "h")
		}},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("declaration did not panic")
				}
			}()
			tc.declare()
		})
	}
	// Gauges are exempt from the unit-suffix rule.
	NewGauge("probkb_rules_queue_depth", "h")
}

// TestConcurrentLookupsOfOneFamily: With racing the first creation of a
// tuple's series, and each other, lands on one series per tuple and
// loses no update (run under -race).
func TestConcurrentLookupsOfOneFamily(t *testing.T) {
	r := NewRegistry()
	c := &Vec[Counter]{r.declare(kindCounter, "probkb_test_conc_total", "conc", nil, []string{"op"})}
	h := &Vec[Histogram]{r.declare(kindHistogram, "probkb_test_conc_seconds", "conc", nil, []string{"op", "worker"})}
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				op := []string{"scan", "join", "filter"}[i%3]
				c.With(op).Inc()
				h.With(op, "w").Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, op := range []string{"scan", "join", "filter"} {
		total += c.With(op).Value()
	}
	if total != workers*iters {
		t.Errorf("counter total %d, want %d", total, workers*iters)
	}
	if got := h.With("join", "w").Count(); got == 0 {
		t.Error("histogram series lost its observations")
	}
}
