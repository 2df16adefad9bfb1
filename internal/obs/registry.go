package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric families. A family owns every time series sharing one metric
// name; series within a family differ only by label sets. Counters and
// histograms are monotone; gauges move both ways. All operations are
// safe for concurrent use — counters and gauges are single atomics,
// histograms one atomic per bucket — so hot paths (per-operator timings,
// per-sweep sampler stats) can record without contending on the
// registry lock, which is taken only on first lookup.

// Label is one key/value dimension of a time series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

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

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increases the counter by d; negative deltas are ignored (counters
// are monotone by contract).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a value that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
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
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
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

// family is every series of one metric name. mu guards help, bounds
// and series; kind is settled by the first registrations but may race
// with concurrent lookups otherwise. settled holds kind+1 once the
// family has a series, after which the kind can no longer change: a
// lookup whose kind matches it skips the lock-taking check.
type family struct {
	name string

	mu      sync.RWMutex
	help    string
	kind    metricKind
	settled atomic.Int32
	bounds  []float64 // histograms only
	series  map[string]*series
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
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

// Default is the process-wide registry every instrumented package
// records into.
var Default = NewRegistry()

// Help sets the HELP string emitted for a metric name. It may be called
// before or after the first series of that name exists.
func (r *Registry) Help(name, help string) {
	f := r.family(name, kindCounter, nil, false)
	f.mu.Lock()
	f.help = help
	f.mu.Unlock()
}

// family returns the family for name, creating it if absent. With create
// set the call is a real registration: it fixes the family's kind (and,
// first-come, histogram bounds); a name reused with a different kind
// panics — that is a programming error, and silently coercing would
// corrupt the exposition. Without create (Help on a not-yet-registered
// metric) an empty placeholder is made whose kind the first real
// registration settles.
func (r *Registry) family(name string, kind metricKind, bounds []float64, create bool) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]*series)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if create && f.settled.Load() != int32(kind)+1 {
		f.mu.Lock()
		if len(f.series) > 0 && f.kind != kind {
			k := f.kind
			f.mu.Unlock()
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, k, kind))
		}
		f.kind = kind
		if bounds != nil && f.bounds == nil {
			f.bounds = bounds
		}
		f.mu.Unlock()
	}
	return f
}

// maxFastLabels bounds the label sets a lookup can sign on the stack;
// larger ones (none in this repository) take the allocating path.
const maxFastLabels = 8

// appendSignature appends the canonical key of a label set — pairs in
// key order, k=v joined by commas — to dst, without reordering or
// copying labels. It reports false for sets too large to order on the
// stack.
func appendSignature(dst []byte, labels []Label) ([]byte, bool) {
	if len(labels) > maxFastLabels {
		return dst, false
	}
	var order [maxFastLabels]uint8
	for i := range labels {
		j := i
		for ; j > 0 && labels[order[j-1]].Key > labels[i].Key; j-- {
			order[j] = order[j-1]
		}
		order[j] = uint8(i)
	}
	for i, o := range order[:len(labels)] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[o].Key...)
		dst = append(dst, '=')
		dst = append(dst, labels[o].Value...)
	}
	return dst, true
}

// signature renders a label set as a canonical key, sorting labels in
// place; only get's miss path calls it, on its own copy.
func signature(labels []Label) string {
	sort.SliceStable(labels, func(a, b int) bool { return labels[a].Key < labels[b].Key })
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// get returns the series for labels. A hit signs the label set into a
// stack buffer and looks it up under the read lock, allocating nothing;
// only a miss copies and sorts the labels and inserts the series.
func (f *family) get(labels []Label) *series {
	var buf [128]byte
	if sig, ok := appendSignature(buf[:0], labels); ok {
		f.mu.RLock()
		s := f.series[string(sig)]
		f.mu.RUnlock()
		if s != nil {
			return s
		}
	}
	owned := append([]Label(nil), labels...)
	sig := signature(owned)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[sig]
	if s == nil {
		s = &series{labels: owned}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			if f.bounds == nil {
				f.bounds = DurationBuckets
			}
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.series[sig] = s
		f.settled.Store(int32(f.kind) + 1)
	}
	return s
}

// Counter returns (creating if needed) the counter for name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.family(name, kindCounter, nil, true).get(labels).c
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.family(name, kindGauge, nil, true).get(labels).g
}

// Histogram returns (creating if needed) the histogram for name and
// labels. buckets fixes the bounds on first creation; nil means
// DurationBuckets. All series of one name share the bounds declared
// first.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return r.family(name, kindHistogram, buckets, true).get(labels).h
}

// escapeLabel escapes a label value for the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatLabels renders {k="v",...}; extra (e.g. the le bound) is
// appended last. Empty input renders as "".
func formatLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in the text exposition format,
// families and series in deterministic (sorted) order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		f.mu.Lock()
		help, kind := f.help, f.kind
		sigs := make([]string, 0, len(f.series))
		for s := range f.series {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		all := make([]*series, 0, len(sigs))
		for _, s := range sigs {
			all = append(all, f.series[s])
		}
		f.mu.Unlock()
		if len(all) == 0 {
			continue
		}

		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, kind); err != nil {
			return err
		}
		for _, s := range all {
			var err error
			switch kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels, ""), s.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels, ""), formatFloat(s.g.Value()))
			case kindHistogram:
				err = writeHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	var cum int64
	for i, bound := range s.h.bounds {
		cum += s.h.counts[i].Load()
		le := fmt.Sprintf(`le="%s"`, formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(s.labels, le), cum); err != nil {
			return err
		}
	}
	cum += s.h.counts[len(s.h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(s.labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, formatLabels(s.labels, ""), s.h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(s.labels, ""), s.h.Count())
	return err
}

// Sum returns the total over every series of one counter or gauge
// family (0 when the name is unknown). Watchdog detectors use it to
// read label-split counters as one number.
func (r *Registry) Sum(name string) float64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return 0
	}
	var total float64
	f.mu.Lock()
	for _, s := range f.series {
		switch f.kind {
		case kindCounter:
			total += float64(s.c.Value())
		case kindGauge:
			total += s.g.Value()
		}
	}
	f.mu.Unlock()
	return total
}

// Snapshot returns every scalar value keyed by name{labels}. Counters
// and gauges appear under their name; histograms contribute name_sum and
// name_count. Tests assert against this instead of parsing exposition
// text.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		for _, s := range f.series {
			key := f.name + formatLabels(s.labels, "")
			switch f.kind {
			case kindCounter:
				out[key] = float64(s.c.Value())
			case kindGauge:
				out[key] = s.g.Value()
			case kindHistogram:
				out[f.name+"_sum"+formatLabels(s.labels, "")] = s.h.Sum()
				out[f.name+"_count"+formatLabels(s.labels, "")] = float64(s.h.Count())
			}
		}
		f.mu.Unlock()
	}
	return out
}
