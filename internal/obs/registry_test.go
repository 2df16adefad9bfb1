package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("test_requests_total", "requests served")
	r.Counter("test_requests_total", L("path", "/facts")).Add(3)
	r.Counter("test_requests_total", L("path", "/stats")).Inc()
	r.Gauge("test_in_flight").Set(2)
	r.Gauge("test_temperature").Set(36.6)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total requests served\n",
		"# TYPE test_requests_total counter\n",
		`test_requests_total{path="/facts"} 3` + "\n",
		`test_requests_total{path="/stats"} 1` + "\n",
		"# TYPE test_in_flight gauge\n",
		"test_in_flight 2\n",
		"test_temperature 36.6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`test_latency_seconds_bucket{le="1"} 3` + "\n",
		`test_latency_seconds_bucket{le="10"} 4` + "\n",
		`test_latency_seconds_bucket{le="+Inf"} 5` + "\n",
		"test_latency_seconds_sum 56.05\n",
		"test_latency_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_esc_total", L("q", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_esc_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaping: missing %q in:\n%s", want, b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_c_total").Add(7)
	r.Gauge("test_g", L("k", "v")).Set(1.5)
	r.Histogram("test_h", []float64{1}).Observe(0.5)

	snap := r.Snapshot()
	if snap["test_c_total"] != 7 {
		t.Errorf("counter snapshot = %v, want 7", snap["test_c_total"])
	}
	if snap[`test_g{k="v"}`] != 1.5 {
		t.Errorf("gauge snapshot = %v, want 1.5", snap[`test_g{k="v"}`])
	}
	if snap["test_h_count"] != 1 || snap["test_h_sum"] != 0.5 {
		t.Errorf("histogram snapshot = count %v sum %v, want 1 / 0.5",
			snap["test_h_count"], snap["test_h_sum"])
	}
}

func TestSameSeriesIsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_same_total", L("x", "1"), L("y", "2"))
	b := r.Counter("test_same_total", L("y", "2"), L("x", "1")) // label order is irrelevant
	a.Inc()
	b.Inc()
	if a != b {
		t.Fatal("same name+labels produced distinct counters")
	}
	if a.Value() != 2 {
		t.Fatalf("value = %d, want 2", a.Value())
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_mono_total")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter went backwards: %d", c.Value())
	}
}

// TestLookupOfExistingSeriesAllocatesNothing: once a series exists, a
// by-name lookup with 0, 1 or 2 labels is a signature on the stack and
// a map read — no label copy, no sort, no string built.
func TestLookupOfExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_alloc_total")
	r.Histogram("test_alloc_seconds", nil, L("op", "scan"))
	r.Gauge("test_alloc_gauge", L("phase", "atoms"), L("partition", "P3"))
	for name, lookup := range map[string]func(){
		"0 labels": func() { r.Counter("test_alloc_total").Inc() },
		"1 label":  func() { r.Histogram("test_alloc_seconds", nil, L("op", "scan")).Observe(1e-3) },
		"2 labels": func() { r.Gauge("test_alloc_gauge", L("partition", "P3"), L("phase", "atoms")).Set(1) },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s: %v allocs per lookup, want 0", name, n)
		}
	}
}

// TestUnsortedLabelsShareTheSortedSeries: the stack-signed lookup and
// the sorting miss path key a label set identically, whatever the order
// the caller passes it in.
func TestUnsortedLabelsShareTheSortedSeries(t *testing.T) {
	r := NewRegistry()
	sorted := r.Histogram("test_order_seconds", nil, L("a", "1"), L("b", "2"), L("c", "3"))
	for _, labels := range [][]Label{
		{L("c", "3"), L("b", "2"), L("a", "1")},
		{L("b", "2"), L("a", "1"), L("c", "3")},
		{L("a", "1"), L("c", "3"), L("b", "2")},
	} {
		if got := r.Histogram("test_order_seconds", nil, labels...); got != sorted {
			t.Errorf("labels %v: distinct series from the sorted set", labels)
		}
	}
	// The caller's slice is not reordered.
	labels := []Label{L("z", "1"), L("a", "2")}
	r.Counter("test_order_total", labels...)
	r.Counter("test_order_total", labels...)
	if labels[0].Key != "z" {
		t.Errorf("lookup reordered the caller's labels: %v", labels)
	}
	if n := len(r.Snapshot()); n != 3 { // the histogram's _sum and _count, the counter
		t.Errorf("snapshot has %d keys, want 3: %v", n, r.Snapshot())
	}
}

// TestKindMismatchPanicsAfterFastPath: a family whose kind is settled
// still refuses a lookup as another kind.
func TestKindMismatchPanicsAfterFastPath(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_kind_total", L("op", "x")).Inc()
	r.Counter("test_kind_total", L("op", "x")).Inc() // settled: fast path
	for kind, lookup := range map[string]func(){
		"gauge":     func() { r.Gauge("test_kind_total", L("op", "x")) },
		"histogram": func() { r.Histogram("test_kind_total", nil, L("op", "y")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("counter looked up as %s did not panic", kind)
				}
			}()
			lookup()
		}()
	}
}

// TestConcurrentLookupsOfOneFamily: lookups racing the first creation
// of a family's series, and each other, land on one series per label
// set and lose no update (run under -race).
func TestConcurrentLookupsOfOneFamily(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				op := L("op", []string{"scan", "join", "filter"}[i%3])
				r.Counter("test_conc_total", op).Inc()
				r.Histogram("test_conc_seconds", nil, op, L("worker", "w")).Observe(1e-4)
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, op := range []string{"scan", "join", "filter"} {
		total += r.Counter("test_conc_total", L("op", op)).Value()
	}
	if total != workers*iters {
		t.Errorf("counter total %d, want %d", total, workers*iters)
	}
	if got := r.Histogram("test_conc_seconds", nil, L("worker", "w"), L("op", "join")).Count(); got == 0 {
		t.Error("histogram series lost its observations")
	}
}
