package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"time"

	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

var (
	httpRequests = obs.NewCounterVec("probkb_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "path", "code")
	httpLatency = obs.NewHistogramVec("probkb_http_request_seconds",
		"HTTP request latency, by endpoint.", obs.DurationBuckets, "path")
	httpInFlight = obs.NewGauge("probkb_http_in_flight", "HTTP requests currently being served.")
	httpPanics   = obs.NewCounterVec("probkb_http_panics_total",
		"Handler panics recovered by the server middleware.", "path")
	httpRejected = obs.NewCounterVec("probkb_http_rejected_total",
		"Data-plane requests shed by admission control (429), by endpoint.", "path")
	epochGeneration = obs.NewGauge("probkb_epoch_generation",
		"Current published serving-tier generation number.")
	epochLive = obs.NewGauge("probkb_epoch_generations_live",
		"Generations published but not yet reclaimed (current + still-pinned).")
	epochPins      = obs.NewGauge("probkb_epoch_pins", "Outstanding reader pins across all generations.")
	epochReclaimed = obs.NewGauge("probkb_epoch_generations_reclaimed",
		"Generations reclaimed since startup (monotonic).")
)

// statusRecorder captures the status code a handler writes so the
// middleware can label its metrics and decide whether a recovered panic
// still owns the response.
type statusRecorder struct {
	http.ResponseWriter
	code    int
	written bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.written {
		r.code = code
		r.written = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.written {
		r.code = http.StatusOK
		r.written = true
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers
// (POST /facts?stream=1) can push each ack line to the client as soon
// as its batch is published.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, which
// the streaming ingest handler uses to enable full-duplex HTTP/1.1
// (respond while the chunked request body is still open).
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}

// instrument wraps a handler with the server's observability middleware:
// a request span, per-endpoint latency histogram and request counter, an
// in-flight gauge, panic recovery, and structured request logging. The
// path label is passed statically (not taken from the URL) so metric
// cardinality stays bounded.
func instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	latency := httpLatency.With(path)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		httpInFlight.Add(1)
		defer httpInFlight.Add(-1)

		ctx, span := obs.StartSpan(r.Context(), "http "+path)
		defer span.End()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}

		defer func() {
			if p := recover(); p != nil {
				httpPanics.With(path).Inc()
				obs.Log(ctx).Error("handler panic",
					"path", path, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !rec.written {
					writeError(rec, http.StatusInternalServerError,
						fmt.Errorf("internal error: %v", p))
				}
				rec.code = http.StatusInternalServerError
			}
			elapsed := time.Since(start)
			latency.Observe(elapsed.Seconds())
			httpRequests.With(path, strconv.Itoa(rec.code)).Inc()
			span.SetAttr("code", rec.code)
			obs.Log(ctx).Info("request",
				"method", r.Method, "path", path, "query", r.URL.RawQuery,
				"code", rec.code, "elapsed", elapsed)
		}()

		h(rec, r.WithContext(ctx))
	}
}

// handleMetrics serves the registry in Prometheus text exposition
// format. Go runtime health (goroutines, heap, GC pauses, build info)
// refreshes at scrape time, so no background poller is needed.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	obs.UpdateRuntimeMetrics()
	// Epoch state refreshes at scrape time, like the runtime gauges.
	epochGeneration.Set(float64(s.snaps.Current()))
	epochLive.Set(float64(s.snaps.Live()))
	epochPins.Set(float64(s.snaps.Pins()))
	epochReclaimed.Set(float64(s.snaps.Reclaimed()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// handleTraces dumps the recent span trees, most recent first.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	traces := obs.DefaultTracer.Traces()
	if len(traces) == 0 {
		fmt.Fprintln(w, "no traces recorded yet")
		return
	}
	for i, tr := range traces {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, tr.Render())
	}
}

// handleJournal serves the served expansion's run journal as JSON: the
// raw typed event stream (the same record `probkb expand -journal`
// writes as JSONL).
func (s *Server) handleJournal(w http.ResponseWriter, _ *http.Request, snap *snapshot, _ uint64) {
	jr := snap.exp.Journal()
	if jr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("expansion has no run journal"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  jr.Events(),
		"dropped": jr.Dropped(),
	})
}

// handleProfile serves the analyzed workload profile of the served
// expansion's journal: phase breakdown, operator costs, per-segment
// skew rows, motion volumes, and the Gibbs convergence timeline — the
// JSON twin of `probkb report`.
func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request, snap *snapshot, _ uint64) {
	jr := snap.exp.Journal()
	if jr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("expansion has no run journal"))
		return
	}
	run, err := journal.FromEvents(jr.Events())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, journal.Analyze(run))
}

// registerDebug wires the pprof handlers onto the mux. They are grouped
// under one static metrics label so profile names don't blow up
// cardinality.
func (s *Server) registerDebug() {
	s.mux.HandleFunc("GET /debug/pprof/", instrument("/debug/pprof", pprof.Index))
	s.mux.HandleFunc("GET /debug/pprof/cmdline", instrument("/debug/pprof", pprof.Cmdline))
	s.mux.HandleFunc("GET /debug/pprof/profile", instrument("/debug/pprof", pprof.Profile))
	s.mux.HandleFunc("GET /debug/pprof/symbol", instrument("/debug/pprof", pprof.Symbol))
	s.mux.HandleFunc("GET /debug/pprof/trace", instrument("/debug/pprof", pprof.Trace))
}
