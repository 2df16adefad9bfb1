package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started. Parent is the id of the span
// that was open when this one began (-1 for a workload operation's root
// span); Op numbers the workload operation the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. Calls are made from one goroutine, so
// the open-span stack gives each span its parent. A nil *tracer is the
// tracing-off pass: do still times the call and only skips the span.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span called name and returns f's wall time.
func (t *tracer) do(name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.op++
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, id)
	start := time.Now()
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// selfTimes derives each span's self time — its duration minus the part
// of that interval its child spans cover — summed by span name.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerOf names the module a span belongs to: the part before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// TimedNS is the wall time of the traced pass; LayerSelfNS splits it
	// by layer ("bench" is the benchmark's own glue between calls), so
	// the values sum to TimedNS less whatever ran outside any span.
	TimedNS     int64            `json:"timed_ns"`
	LayerSelfNS map[string]int64 `json:"layer_self_ns"`
	SpanSelfNS  map[string]int64 `json:"span_self_ns"`
	Spans       []span           `json:"spans"`
}

// write stores the spans and their self times (self, from selfTimes)
// under dir.
func (t *tracer) write(dir, workload string, seed int64, timed time.Duration, self map[string]time.Duration) (string, error) {
	f := traceFile{
		Workload: workload, Seed: seed, TimedNS: timed.Nanoseconds(),
		LayerSelfNS: map[string]int64{}, SpanSelfNS: map[string]int64{}, Spans: t.spans,
	}
	for name, d := range self {
		f.SpanSelfNS[name] = d.Nanoseconds()
		f.LayerSelfNS[layerOf(name)] += d.Nanoseconds()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
