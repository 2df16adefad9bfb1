package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Active-query registry: every SQL / explain / expand request a server
// handles registers here for its lifetime, so an operator can list what
// is running right now (GET /debug/queries) and cancel a runaway
// request (DELETE /debug/queries/{id}) without restarting the process.
// Cancellation rides the request context — the same plumbing client
// disconnects use — so a canceled query unwinds through the engine's
// operator-boundary checks and surfaces as a PartialError.

// ActiveQuery is one in-flight request. The query ID is also attached
// to the request's root span and journal events, so traces, logs, and
// the registry cross-reference.
type ActiveQuery struct {
	id    string
	kind  string // "sql", "dist-sql", "explain", "expand"
	text  string
	start time.Time

	phase  atomic.Value // string: coarse progress ("plan", "run", "ground", ...)
	rows   atomic.Int64 // rows produced so far (operator materializations)
	cancel context.CancelFunc
}

// ID returns the registry-assigned query identifier ("q1", "q2", ...).
func (q *ActiveQuery) ID() string { return q.id }

// Kind returns the request kind the query registered as.
func (q *ActiveQuery) Kind() string { return q.kind }

// Text returns the query text (or a request description for expand).
func (q *ActiveQuery) Text() string { return q.text }

// Start returns when the query began.
func (q *ActiveQuery) Start() time.Time { return q.start }

// SetPhase records coarse progress; safe from any goroutine. Only
// actual transitions reach the flight recorder — callers invoke this
// per iteration/sweep, and a recorder full of repeats would evict the
// history an incident wants.
func (q *ActiveQuery) SetPhase(p string) {
	if q == nil {
		return
	}
	if old := q.phase.Swap(p); old != p {
		DefaultFlight.Record(FlightEvent{Kind: "query", Name: "phase " + p, QueryID: q.id})
	}
}

// Phase returns the last recorded phase.
func (q *ActiveQuery) Phase() string {
	if q == nil {
		return ""
	}
	if p, ok := q.phase.Load().(string); ok {
		return p
	}
	return ""
}

// AddRows accumulates rows produced; engine.Opts.OnRows feeds it.
func (q *ActiveQuery) AddRows(n int) {
	if q != nil {
		q.rows.Add(int64(n))
	}
}

// Rows returns the rows produced so far.
func (q *ActiveQuery) Rows() int64 {
	if q == nil {
		return 0
	}
	return q.rows.Load()
}

// QueryInfo is the listing view of one in-flight query.
type QueryInfo struct {
	ID      string        `json:"id"`
	Kind    string        `json:"kind"`
	Text    string        `json:"query"`
	Phase   string        `json:"phase"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Rows    int64         `json:"rows"`
}

// QueryRegistry tracks in-flight queries. The zero value is ready; a
// nil registry is a no-op (Begin returns the context unchanged).
type QueryRegistry struct {
	mu     sync.Mutex
	seq    int64
	active map[string]*ActiveQuery
}

// Queries is the process-wide registry the server uses.
var Queries = &QueryRegistry{}

var queriesInFlight = NewGauge("probkb_queries_in_flight",
	"Queries currently registered as in-flight (SQL, explain, expand).")

type queryCtxKey struct{}

// Begin registers an in-flight query and returns a derived, cancelable
// context carrying it (retrieve with QueryFrom). The caller must call
// Finish when the request ends, whatever the outcome.
func (r *QueryRegistry) Begin(ctx context.Context, kind, text string) (context.Context, *ActiveQuery) {
	if r == nil {
		return ctx, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	q := &ActiveQuery{kind: kind, text: text, start: time.Now(), cancel: cancel}
	q.phase.Store("start")
	r.mu.Lock()
	r.seq++
	q.id = "q" + strconv.FormatInt(r.seq, 10)
	if r.active == nil {
		r.active = make(map[string]*ActiveQuery)
	}
	r.active[q.id] = q
	// Set under the lock: a Set after Unlock could land after a later
	// call's and leave a stale count.
	queriesInFlight.Set(float64(len(r.active)))
	r.mu.Unlock()
	DefaultFlight.Record(FlightEvent{Kind: "query", Name: "begin " + kind, Detail: text, QueryID: q.id})
	if sp := SpanFrom(ctx); sp != nil {
		sp.SetAttr("query_id", q.id)
	}
	return context.WithValue(ctx, queryCtxKey{}, q), q
}

// Finish deregisters a query and releases its context resources.
func (r *QueryRegistry) Finish(q *ActiveQuery) {
	if r == nil || q == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, q.id)
	queriesInFlight.Set(float64(len(r.active)))
	r.mu.Unlock()
	q.cancel()
	DefaultFlight.Record(FlightEvent{
		Kind: "query", Name: "finish " + q.kind, QueryID: q.id, Dur: time.Since(q.start),
	})
}

// Cancel cancels the in-flight query with the given ID; it reports
// whether the ID was found. The query stays listed until its handler
// unwinds and calls Finish.
func (r *QueryRegistry) Cancel(id string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	q, ok := r.active[id]
	r.mu.Unlock()
	if ok {
		q.cancel()
	}
	return ok
}

// List returns the in-flight queries ordered by start (oldest first).
func (r *QueryRegistry) List() []QueryInfo {
	return r.Snapshot(time.Now())
}

// Snapshot is List with elapsed times computed against an explicit
// clock, so watchdog detectors (and their tests) can evaluate "how
// long has this query been running" deterministically.
func (r *QueryRegistry) Snapshot(now time.Time) []QueryInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	qs := make([]*ActiveQuery, 0, len(r.active))
	for _, q := range r.active {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].start.Equal(qs[j].start) {
			return qs[i].id < qs[j].id
		}
		return qs[i].start.Before(qs[j].start)
	})
	out := make([]QueryInfo, len(qs))
	for i, q := range qs {
		out[i] = QueryInfo{
			ID: q.id, Kind: q.kind, Text: q.text,
			Phase: q.Phase(), Elapsed: now.Sub(q.start), Rows: q.Rows(),
		}
	}
	return out
}

// QueryFrom returns the active query riding the context, or nil.
func QueryFrom(ctx context.Context) *ActiveQuery {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(queryCtxKey{}).(*ActiveQuery)
	return q
}
