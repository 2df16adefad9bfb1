package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric families. A family owns every time series sharing one metric
// name; series within a family differ only by label values. Each family
// is declared once, at package level, by NewCounter, NewGauge or
// NewHistogram (one series) or their Vec forms (one series per tuple of
// label values). The declaration fixes the name, help text, label keys
// and bucket bounds, and panics on a name already declared or one that
// breaks the naming rules:
//
//   - names are probkb_-prefixed snake_case;
//   - counters end in _total;
//   - histograms end in a unit suffix: _seconds, _bytes or _ratio.
//     Gauges are exempt: they carry a unit (probkb_go_heap_bytes), a
//     plain count (probkb_queries_in_flight) or a dimensionless value
//     (probkb_infer_rhat_max), and a suffix rule would only force worse
//     names;
//   - help text is non-empty;
//   - label keys are snake_case starting with a letter.
//
// Declarations run at package init, so every binary that links a
// metric checks it. A series appears in the exposition once something
// has recorded into it (an unlabeled one) or asked for it (a label
// tuple). All operations are safe for concurrent use — counters and
// gauges are single atomics, histograms one atomic per bucket — and a
// Vec's lookup of an existing tuple takes no lock.

var (
	nameRE  = regexp.MustCompile(`^probkb_[a-z0-9]+(_[a-z0-9]+)*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// presence marks a series as recorded into; the exposition skips a
// declared unlabeled series until then.
type presence struct{ live atomic.Bool }

func (p *presence) touch() {
	if !p.live.Load() {
		p.live.Store(true)
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	presence
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d; negative deltas are ignored (counters
// are monotone by contract).
func (c *Counter) Add(d int64) {
	c.touch()
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a value that can move in both directions.
type Gauge struct {
	presence
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.touch()
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	g.touch()
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed, pre-declared buckets
// (upper bounds, ascending); observations above the last bound land in
// the implicit +Inf bucket.
type Histogram struct {
	presence
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.touch()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets are the default histogram bounds for wall times, in
// seconds: 10µs up to ~100s, a decade per 3 buckets.
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2,
	0.1, 0.25, 1, 2.5, 10, 25, 100,
}

// SizeBuckets are the default histogram bounds for byte volumes:
// 256B up to 1GiB.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// family is every series of one metric name. Everything but series is
// fixed at declaration.
type family struct {
	name   string
	help   string
	kind   metricKind
	keys   []string  // as declared: the order With takes values in
	order  []int     // indexes into keys, in key order
	bounds []float64 // histograms only

	// series maps a tuple's key — its one value, or its values in
	// declared order joined by 0xff — to its series. The map is copied
	// on write under mu, so a lookup takes no lock: a family holds a
	// handful of series, and a new tuple is rare.
	mu     sync.Mutex
	series atomic.Pointer[map[string]*series]
}

// series is one series: its signature (k=v pairs in key order, joined
// by commas: the exposition's sort key), its label pairs as the
// exposition renders them, its Counter, Gauge or Histogram, and whether
// it is shown.
type series struct {
	sig    string
	labels string
	metric any
	live   *atomic.Bool
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every declaration registers in.
var Default = NewRegistry()

// declare registers a family, panicking on a rule violation or a name
// already declared in r.
func (r *Registry) declare(kind metricKind, name, help string, bounds []float64, keys []string) *family {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("obs: metric %q: ", name) + fmt.Sprintf(format, args...))
	}
	switch {
	case !nameRE.MatchString(name):
		fail("not probkb_-prefixed snake_case")
	case kind == kindCounter && !strings.HasSuffix(name, "_total"):
		fail("a counter's name must end in _total")
	case kind == kindHistogram && !strings.HasSuffix(name, "_seconds") &&
		!strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_ratio"):
		fail("a histogram's name must end in _seconds, _bytes or _ratio")
	case help == "":
		fail("no help text")
	}
	for _, k := range keys {
		if !labelRE.MatchString(k) {
			fail("label key %q is not snake_case starting with a letter", k)
		}
	}
	if kind == kindHistogram && bounds == nil {
		bounds = DurationBuckets
	}
	f := &family{name: name, help: help, kind: kind, bounds: bounds, keys: keys, order: make([]int, len(keys))}
	f.series.Store(&map[string]*series{})
	for i := range f.order {
		f.order[i] = i
	}
	sort.Slice(f.order, func(a, b int) bool { return keys[f.order[a]] < keys[f.order[b]] })

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families[name] != nil {
		fail("declared twice")
	}
	r.families[name] = f
	return f
}

// with returns the series for values, creating it on first use. A hit
// is a map read keyed by the value itself, or by the values joined in a
// stack buffer: it takes no lock and allocates nothing.
func (f *family) with(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	if len(values) == 1 {
		if s := (*f.series.Load())[values[0]]; s != nil {
			return s
		}
		return f.add(values[0], values)
	}
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, v...)
	}
	if s := (*f.series.Load())[string(key)]; s != nil {
		return s
	}
	return f.add(string(key), values)
}

// add creates the series for values under key, unless a racing call
// already has, and publishes it in a copy of the series map.
func (f *family) add(key string, values []string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.series.Load()
	if s := old[key]; s != nil {
		return s
	}
	s := f.newSeries(values)
	s.live.Store(true)
	m := make(map[string]*series, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[key] = s
	f.series.Store(&m)
	return s
}

func (f *family) newSeries(values []string) *series {
	var sig, labels strings.Builder
	for i, o := range f.order {
		if i > 0 {
			sig.WriteByte(',')
			labels.WriteByte(',')
		}
		fmt.Fprintf(&sig, "%s=%s", f.keys[o], values[o])
		fmt.Fprintf(&labels, `%s="%s"`, f.keys[o], escapeLabel(values[o]))
	}
	s := &series{sig: sig.String(), labels: labels.String()}
	switch f.kind {
	case kindCounter:
		c := &Counter{}
		s.metric, s.live = c, &c.live
	case kindGauge:
		g := &Gauge{}
		s.metric, s.live = g, &g.live
	case kindHistogram:
		h := &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		s.metric, s.live = h, &h.live
	}
	return s
}

// Vec is a labeled family: With hands out one series per tuple of label
// values, created on first use and cached in the family.
type Vec[M Counter | Gauge | Histogram] struct{ f *family }

// With returns the series for values, given in the order the label keys
// were declared; a wrong number of values panics.
func (v *Vec[M]) With(values ...string) *M { return v.f.with(values).metric.(*M) }

// only creates an unlabeled family's one series, hidden until something
// records into it, and returns it.
func only[M Counter | Gauge | Histogram](f *family) *M {
	s := f.newSeries(nil)
	f.series.Store(&map[string]*series{"": s})
	return s.metric.(*M)
}

// NewCounter declares an unlabeled counter in Default.
func NewCounter(name, help string) *Counter {
	return only[Counter](Default.declare(kindCounter, name, help, nil, nil))
}

// NewGauge declares an unlabeled gauge in Default.
func NewGauge(name, help string) *Gauge {
	return only[Gauge](Default.declare(kindGauge, name, help, nil, nil))
}

// NewHistogram declares an unlabeled histogram in Default; nil bounds
// mean DurationBuckets.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return only[Histogram](Default.declare(kindHistogram, name, help, bounds, nil))
}

// NewCounterVec declares a counter family labeled by keys in Default.
func NewCounterVec(name, help string, keys ...string) *Vec[Counter] {
	return &Vec[Counter]{Default.declare(kindCounter, name, help, nil, keys)}
}

// NewGaugeVec declares a gauge family labeled by keys in Default.
func NewGaugeVec(name, help string, keys ...string) *Vec[Gauge] {
	return &Vec[Gauge]{Default.declare(kindGauge, name, help, nil, keys)}
}

// NewHistogramVec declares a histogram family labeled by keys in
// Default; nil bounds mean DurationBuckets.
func NewHistogramVec(name, help string, bounds []float64, keys ...string) *Vec[Histogram] {
	return &Vec[Histogram]{Default.declare(kindHistogram, name, help, bounds, keys)}
}

// escapeLabel escapes a label value for the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatLabels renders {labels}; extra (e.g. the le bound) is appended
// last. Empty input renders as "".
func formatLabels(labels, extra string) string {
	if labels != "" && extra != "" {
		labels += ","
	}
	if labels += extra; labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// shown returns f's series that are shown, in signature order.
func (f *family) shown() []*series {
	var all []*series
	for _, s := range *f.series.Load() {
		if s.live.Load() {
			all = append(all, s)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].sig < all[b].sig })
	return all
}

// sortedFamilies returns r's families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	return fams
}

// WritePrometheus renders every family in the text exposition format,
// families and series in deterministic (sorted) order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		all := f.shown()
		if len(all) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range all {
			var err error
			switch m := s.metric.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels, ""), m.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels, ""), formatFloat(m.Value()))
			case *Histogram:
				err = writeHistogram(w, f.name, s.labels, m)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := fmt.Sprintf(`le="%s"`, formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(labels, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, formatLabels(labels, ""), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(labels, ""), h.Count())
	return err
}

// Snapshot returns every scalar value keyed by name{labels}. Counters
// and gauges appear under their name; histograms contribute name_sum and
// name_count. Tests and incident captures read values through it.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		for _, s := range f.shown() {
			labels := formatLabels(s.labels, "")
			switch m := s.metric.(type) {
			case *Counter:
				out[f.name+labels] = float64(m.Value())
			case *Gauge:
				out[f.name+labels] = m.Value()
			case *Histogram:
				out[f.name+"_sum"+labels] = m.Sum()
				out[f.name+"_count"+labels] = float64(m.Count())
			}
		}
	}
	return out
}
