// Package journal records one knowledge-expansion run as a stream of
// typed JSONL events — the durable, post-hoc complement to the live
// registry and tracer of internal/obs. A run journal captures what the
// paper's evaluation sections reconstruct by hand: per-phase time
// breakdowns, per-partition query profiles with full operator trees
// (Figure 4), MPP motion volumes and per-segment skew (Figure 6), and
// the Gibbs convergence trajectory inference-quality claims rest on.
//
// Events append to a bounded in-memory ring and, optionally, a JSONL
// file; analyzers (analyze.go) and the `probkb report` subcommand read
// either back. The journal is deterministic modulo timing: all wall
// times live in dedicated fields that Canonicalize strips, so two runs
// with the same seed and config hash produce byte-identical canonical
// journals.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"probkb/internal/obs"
)

// Event types, in the order a run emits them. segment_fault and
// segment_retry interleave with query_profile events whenever a
// FaultPlan is active.
const (
	TypeRunStart         = "run_start"
	TypeIteration        = "iteration"
	TypeQueryProfile     = "query_profile"
	TypeMotion           = "motion"
	TypeConstraintRepair = "constraint_repair"
	TypeInference        = "inference"
	TypeGibbsCheckpoint  = "gibbs_checkpoint"
	TypeSegmentFault     = "segment_fault"
	TypeSegmentRetry     = "segment_retry"
	TypeSnapshotWritten  = "snapshot_written"
	TypeWALReplayed      = "wal_replayed"
	TypeRunEnd           = "run_end"
	// TypeQueryAnalyzed and TypeSlowQuery come from the server's ad-hoc
	// SQL path rather than an expansion run; like faults, their presence
	// depends on external requests, so Canonicalize drops them.
	TypeQueryAnalyzed = "query_analyzed"
	TypeSlowQuery     = "slow_query"
	// TypeIncident is a watchdog-captured anomaly report (obs.Incident);
	// anomalies depend on load and wall time, so Canonicalize drops it.
	TypeIncident = "incident"
	// TypeQueryLocal records a point query answered by the local
	// grounding path. The answer is a deterministic function of the
	// evidence, the query, and the seed, so Canonicalize keeps it
	// (stripping only the timing field).
	TypeQueryLocal = "query_local"
	// TypeIngestBatch and TypeIngestRefresh come from the streaming
	// ingest pipeline: one event per absorbed batch and per marginal
	// refresh pass. Both payloads are deterministic for a fixed stream
	// and batch split (timing lives in "seconds" fields Canonicalize
	// strips), so Canonicalize keeps them.
	TypeIngestBatch   = "ingest_batch"
	TypeIngestRefresh = "ingest_refresh"
)

// Event is the JSONL envelope: one line per event.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// ElapsedS is seconds since the run started (a timing field;
	// Canonicalize zeroes it).
	ElapsedS float64         `json:"elapsed_s"`
	Data     json.RawMessage `json:"data"`
}

// Header is the run_start payload. Seed and ConfigHash make same-seed
// runs diffable: identical inputs yield identical canonical journals.
type Header struct {
	Engine     string `json:"engine"`
	Segments   int    `json:"segments,omitempty"`
	Seed       int64  `json:"seed"`
	ConfigHash string `json:"config_hash"`
	// Start is the wall-clock start time (RFC 3339); a timing field.
	Start string `json:"start,omitempty"`
}

// Iteration is one grounding closure iteration.
type Iteration struct {
	Phase     string  `json:"phase"` // "ground" or "extend"
	Iteration int     `json:"iteration"`
	NewFacts  int     `json:"new_facts"`
	Deleted   int     `json:"deleted,omitempty"`
	Queries   int     `json:"queries"`
	Seconds   float64 `json:"seconds"`
}

// PlanNode is one operator of a captured plan tree: a NodeStats snapshot
// plus children. SegRows/SegSeconds are nil on single-node plans.
type PlanNode struct {
	Label string `json:"label"`
	Rows  int    `json:"rows"`
	// EstRows is the optimizer's cardinality estimate (0 = the planner
	// recorded none); next to Rows it exposes per-operator estimation
	// error in journals the way ExplainAnalyze does live.
	EstRows    float64   `json:"est_rows,omitempty"`
	Seconds    float64   `json:"seconds"`
	Extra      string    `json:"extra,omitempty"`
	Bytes      int64     `json:"bytes,omitempty"` // materialized output bytes
	SegRows    []int     `json:"seg_rows,omitempty"`
	SegSeconds []float64 `json:"seg_seconds,omitempty"`
	MovedRows  int       `json:"moved_rows,omitempty"`
	MovedBytes int64     `json:"moved_bytes,omitempty"`
	// Retries counts segment-task re-executions under an active fault
	// plan; Canonicalize strips it (faultKeys) so faulted and fault-free
	// runs stay byte-comparable.
	Retries int `json:"retries,omitempty"`
	// Workers/Morsels mirror NodeStats: Morsels is a deterministic
	// function of the data, while Workers tracks the configured pool and
	// is stripped by Canonicalize (schedulingKeys).
	Workers  int        `json:"workers,omitempty"`
	Morsels  int        `json:"morsels,omitempty"`
	Children []PlanNode `json:"children,omitempty"`
}

// QueryProfile is one executed grounding query's full operator tree,
// labeled by query site (e.g. "ground-atoms"), MLN partition, and
// iteration.
type QueryProfile struct {
	Query     string   `json:"query"`
	Partition int      `json:"partition"`
	Iteration int      `json:"iteration"`
	Plan      PlanNode `json:"plan"`
}

// AnalyzedQuery is the query_analyzed payload: one ad-hoc SQL request
// the server executed with plan profiling, identified by the active-
// query registry's ID. The same shape backs slow_query events, which
// the slow-query log emits for requests over its threshold.
type AnalyzedQuery struct {
	ID      string   `json:"id"`
	Kind    string   `json:"kind"` // "sql" or "dist-sql"
	Query   string   `json:"query"`
	Seconds float64  `json:"seconds"`
	Plan    PlanNode `json:"plan"`
}

// QueryLocal is one point query served by the local grounding path: the
// atom, the resolved bounds, the shape of the local computation, and
// the answer. Probability is nil when the marginal is NaN (unknown
// atom, underivable within bounds, or skipped inference) — json.Marshal
// rejects NaN, and Emit panics on a marshal failure.
type QueryLocal struct {
	Rel          string   `json:"rel"`
	X            string   `json:"x"`
	Y            string   `json:"y"`
	Depth        int      `json:"depth"`
	Radius       int      `json:"radius"`
	Found        bool     `json:"found"`
	Observed     bool     `json:"observed"`
	SeedFacts    int      `json:"seed_facts"`
	LocalFacts   int      `json:"local_facts"`
	LocalVars    int      `json:"local_vars"`
	LocalFactors int      `json:"local_factors"`
	Rules        int      `json:"rules"`
	Collected    int      `json:"collected"`
	Probability  *float64 `json:"probability"`
	Seconds      float64  `json:"seconds"`
}

// Motion is one motion operator's shipped volume, extracted from a
// profile so motion bottlenecks are queryable without walking trees.
type Motion struct {
	Kind      string `json:"kind"` // "redistribute" or "broadcast"
	Query     string `json:"query"`
	Partition int    `json:"partition"`
	Iteration int    `json:"iteration"`
	Rows      int    `json:"rows"`
	Bytes     int64  `json:"bytes"`
}

// Repair is one constraint-repair action (a Query 3 pass that found
// violations during grounding).
type Repair struct {
	Iteration  int `json:"iteration"`
	Violations int `json:"violations"`
	Deleted    int `json:"deleted"`
}

// VarDiagnostic is one tracked query atom's convergence state at a
// checkpoint.
type VarDiagnostic struct {
	Var    int     `json:"var"`
	FactID int32   `json:"fact_id"`
	Mean   float64 `json:"mean"`
	RHat   float64 `json:"rhat"`
	ESS    float64 `json:"ess"`
}

// Inference is how one whole-graph inference pass split the ground
// graph's connected components: Exact of them solved by enumeration, the
// SampledVars variables of the rest swept by one Gibbs chain. Only a
// pass with SampledVars > 0 is followed by gibbs_checkpoint events.
type Inference struct {
	Components   int `json:"components"`
	Exact        int `json:"exact"`
	SampledVars  int `json:"sampled_vars"`
	MaxComponent int `json:"max_component"`
}

// GibbsCheckpoint is a periodic snapshot of the sampling run: mixing
// signals (flips), throughput, and — once enough post-burn-in samples
// exist — split-half R-hat and effective sample size over the tracked
// variables.
type GibbsCheckpoint struct {
	Sweep         int     `json:"sweep"`
	Burnin        bool    `json:"burnin,omitempty"`
	Vars          int     `json:"vars"`
	Flips         int     `json:"flips"`
	Seconds       float64 `json:"seconds"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// RHatMax/ESSMin are zero while diagnostics have too few samples.
	RHatMax float64         `json:"rhat_max,omitempty"`
	ESSMin  float64         `json:"ess_min,omitempty"`
	Tracked []VarDiagnostic `json:"tracked,omitempty"`
}

// SegmentFault is one fault injected by the active mpp.FaultPlan into a
// segment task attempt. Fault events are emitted from concurrent
// per-segment goroutines, so their interleaving with other events is
// scheduling-dependent; Canonicalize drops them.
type SegmentFault struct {
	Task    int64  `json:"task"`
	Segment int    `json:"segment"`
	Attempt int    `json:"attempt"`
	Kind    string `json:"kind"` // "fail", "panic" or "straggle"
}

// SegmentRetry is one re-execution of a failed segment task attempt.
// Like SegmentFault, Canonicalize drops it.
type SegmentRetry struct {
	Task    int64  `json:"task"`
	Segment int    `json:"segment"`
	Attempt int    `json:"attempt"`
	Cause   string `json:"cause,omitempty"`
}

// SnapshotWritten is one durable checkpoint by the storage engine: the
// whole KB rewritten as a columnar snapshot and the WAL rotated to a
// fresh generation. The payload is a function of the KB state, so
// Canonicalize keeps the event (only Seconds is stripped) — persisted
// and replayed runs stay byte-diffable.
type SnapshotWritten struct {
	Gen     uint32  `json:"gen"`
	Bytes   int64   `json:"bytes"`
	Facts   int     `json:"facts"`
	Seconds float64 `json:"seconds"`
}

// WALReplayed is one recovery: a snapshot load plus the replay of its
// WAL generation's durable record prefix. Canonicalize keeps it, like
// SnapshotWritten.
type WALReplayed struct {
	Gen     uint32 `json:"gen"`
	Records int64  `json:"records"`
	// TruncatedBytes counts torn tail bytes dropped at the end of the
	// WAL (zero after a clean shutdown).
	TruncatedBytes int64   `json:"truncated_bytes,omitempty"`
	Facts          int     `json:"facts"`
	Seconds        float64 `json:"seconds"`
}

// IngestBatch is one absorbed streaming-ingest batch: stream position,
// what delta grounding did with it, and the marginal staleness it left
// behind. For a fixed fact stream and batch split the payload is a
// deterministic function of the inputs, so Canonicalize keeps it.
type IngestBatch struct {
	Batch        int     `json:"batch"`
	Facts        int     `json:"facts"`
	Added        int     `json:"added"`
	Derived      int     `json:"derived"`
	StaleBatches int     `json:"stale_batches"`
	Seconds      float64 `json:"seconds"`
}

// IngestRefresh is one marginal refresh pass paying down ingest
// staleness, keyed by the batch it ran after.
type IngestRefresh struct {
	Batch   int     `json:"batch"`
	Seconds float64 `json:"seconds"`
}

// RunEnd is the run_end payload: the expansion summary plus journal
// accounting.
type RunEnd struct {
	Iterations    int     `json:"iterations"`
	Converged     bool    `json:"converged"`
	BaseFacts     int     `json:"base_facts"`
	InferredFacts int     `json:"inferred_facts"`
	TotalFacts    int     `json:"total_facts"`
	Factors       int     `json:"factors,omitempty"`
	LoadSeconds   float64 `json:"load_seconds"`
	GroundSeconds float64 `json:"ground_seconds"`
	FactorSeconds float64 `json:"factor_seconds"`
	InferSeconds  float64 `json:"infer_seconds"`
	DroppedEvents int     `json:"dropped_events,omitempty"`
}

// DefaultMaxEvents bounds the journal: a run emitting more than this
// drops the excess (run_end is always kept) and records the drop count.
const DefaultMaxEvents = 4096

// Writer accumulates a run's events in memory and, when a sink is
// attached, appends each as one JSON line. All methods are safe on a
// nil receiver (no-ops), so instrumented code does not guard call
// sites, and safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	start   time.Time
	seq     int
	max     int
	events  []Event
	dropped int
	f       *os.File
	bw      *bufio.Writer
}

// New returns an in-memory journal writer.
func New() *Writer {
	return &Writer{start: time.Now(), max: DefaultMaxEvents}
}

// SinkTo attaches a JSONL file sink, truncating any existing file.
// Events emitted so far are written out first, so SinkTo may follow New
// at any point before the run starts emitting.
func (w *Writer) SinkTo(path string) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	enc := json.NewEncoder(w.bw)
	for _, ev := range w.events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Emit appends one event. The payload marshals into the event's Data;
// a payload that fails to marshal is a programming error and panics.
// An event the bound drops is counted without being marshaled.
func (w *Writer) Emit(typ string, payload any) {
	if w == nil {
		return
	}
	w.mu.Lock()
	full := w.dropLocked(typ)
	w.mu.Unlock()
	if full {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("journal: marshaling %s payload: %v", typ, err))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dropLocked(typ) { // filled by other emitters while this one marshaled
		return
	}
	// Events the bound keeps also land on the flight-recorder timeline.
	obs.DefaultFlight.Note("journal", typ, "")
	w.seq++
	ev := Event{Seq: w.seq, Type: typ, ElapsedS: time.Since(w.start).Seconds(), Data: data}
	w.events = append(w.events, ev)
	if w.bw != nil {
		enc := json.NewEncoder(w.bw)
		if err := enc.Encode(ev); err != nil {
			// A full disk should not kill the run the journal observes;
			// detach the sink and keep the in-memory copy.
			w.bw = nil
		}
	}
}

// dropLocked counts a drop and reports true when the bound leaves no
// room for an event of type typ (run_end is always kept). w.mu is held.
func (w *Writer) dropLocked(typ string) bool {
	if len(w.events) >= w.max && typ != TypeRunEnd {
		w.dropped++
		return true
	}
	return false
}

// Events returns a copy of the in-memory event ring.
func (w *Writer) Events() []Event {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Event(nil), w.events...)
}

// Dropped returns how many events the bound discarded.
func (w *Writer) Dropped() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// Close flushes and closes the file sink, if any; the in-memory events
// stay readable. Close is idempotent.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.bw != nil {
		err = w.bw.Flush()
		w.bw = nil
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// timingKeys are the payload fields that carry wall-clock measurements;
// Canonicalize removes them (recursively, so plan trees are covered) to
// make same-seed journals byte-comparable.
var timingKeys = map[string]bool{
	"seconds":         true,
	"seg_seconds":     true,
	"samples_per_sec": true,
	"start":           true,
	"load_seconds":    true,
	"ground_seconds":  true,
	"factor_seconds":  true,
	"infer_seconds":   true,
}

// schedulingKeys carry execution-resource choices (worker-pool sizes)
// that don't affect results; Canonicalize removes them so runs at
// different worker counts produce identical canonical journals. Morsel
// counts are NOT here: they depend only on the data and stay.
var schedulingKeys = map[string]bool{
	"workers": true,
}

// nondeterministicTypes are event types whose presence or ordering
// depends on goroutine scheduling or on the active fault plan, not on
// the run's inputs; Canonicalize drops them (and renumbers Seq) so a
// faulted run's canonical journal is byte-identical to a fault-free
// run's.
var nondeterministicTypes = map[string]bool{
	TypeSegmentFault:  true,
	TypeSegmentRetry:  true,
	TypeQueryAnalyzed: true,
	TypeSlowQuery:     true,
	TypeIncident:      true,
}

// faultKeys carry fault-plan artifacts inside otherwise-deterministic
// payloads (retry counts on plan nodes); Canonicalize removes them so a
// faulted run's canonical journal matches a fault-free run's.
var faultKeys = map[string]bool{
	"retries": true,
}

// Canonicalize strips every timing field from the events — the envelope
// elapsed_s and the recursive timingKeys of each payload — drops
// scheduling-dependent event types (injected faults, retries), renumbers
// Seq over what remains, and re-marshals payloads with sorted keys. Two
// runs of the same KB with the same seed and config produce identical
// canonical journals — with or without an active FaultPlan; the
// determinism tests diff exactly this.
func Canonicalize(events []Event) []Event {
	out := make([]Event, 0, len(events))
	seq := 0
	for _, ev := range events {
		if nondeterministicTypes[ev.Type] {
			continue
		}
		var v any
		if err := json.Unmarshal(ev.Data, &v); err == nil {
			stripTiming(v)
			if data, err := json.Marshal(v); err == nil {
				ev.Data = data
			}
		}
		ev.ElapsedS = 0
		seq++
		ev.Seq = seq
		out = append(out, ev)
	}
	return out
}

func stripTiming(v any) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			if timingKeys[k] || schedulingKeys[k] || faultKeys[k] {
				delete(t, k)
				continue
			}
			stripTiming(child)
		}
	case []any:
		for _, child := range t {
			stripTiming(child)
		}
	}
}
