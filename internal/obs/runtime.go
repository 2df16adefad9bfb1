package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Go runtime health metrics: goroutine count, heap size, GC pause
// distribution, and a build-info series, refreshed on demand — the
// server calls UpdateRuntimeMetrics at every /metrics scrape, so the
// gauges are current without a background poller.

var runtimeMu sync.Mutex
var lastNumGC uint32

var (
	goroutines = NewGauge("probkb_go_goroutines", "Number of live goroutines.")
	heapBytes  = NewGauge("probkb_go_heap_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).")
	// Keyless, so that each scrape asks for its one series and it shows
	// from the first scrape on, before any pause is observed.
	gcPauses  = NewHistogramVec("probkb_go_gc_pause_seconds", "Stop-the-world GC pause durations.", DurationBuckets)
	buildInfo = NewGaugeVec("probkb_build_info", "Build metadata; the value is always 1.", "goversion", "version")
)

// UpdateRuntimeMetrics refreshes the runtime gauges in the default
// registry and feeds GC pauses observed since the previous call into
// the pause histogram.
func UpdateRuntimeMetrics() {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()

	goroutines.Set(float64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBytes.Set(float64(ms.HeapAlloc))

	// MemStats keeps the last 256 pause durations in a ring indexed by
	// NumGC; replay the ones that happened since the previous scrape.
	h := gcPauses.With()
	n := ms.NumGC
	missed := n - lastNumGC
	if missed > uint32(len(ms.PauseNs)) {
		missed = uint32(len(ms.PauseNs))
	}
	for i := uint32(0); i < missed; i++ {
		h.Observe(float64(ms.PauseNs[(n-1-i)%uint32(len(ms.PauseNs))]) / 1e9)
	}
	lastNumGC = n

	buildInfo.With(runtime.Version(), buildVersion()).Set(1)
}

// buildVersion extracts the main module version from the embedded build
// info ("(devel)" for plain `go build`, "unknown" when no info exists).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}
