package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic time source advancing one second
// per call, for recorders that stamp their own events.
func fakeClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	f := NewFlightRecorder(3)
	f.setClock(fakeClock())
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		f.Note("span", name, "")
	}
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, want := range []string{"c", "d", "e"} {
		if evs[i].Name != want {
			t.Errorf("event %d = %q, want %q (oldest-first order)", i, evs[i].Name, want)
		}
	}
	if !evs[0].Time.Before(evs[1].Time) || !evs[1].Time.Before(evs[2].Time) {
		t.Error("event times not monotone oldest-first")
	}
	if got := f.Slice(2); len(got) != 2 || got[0].Name != "d" || got[1].Name != "e" {
		t.Errorf("Slice(2) = %v", got)
	}
	if got := f.Slice(0); len(got) != 3 {
		t.Errorf("Slice(0) = %d events, want all 3", len(got))
	}
}

// TestFlightRecorderDisabled: Reset drops every retained event.
func TestFlightRecorderDisabled(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Note("log", "kept", "")
	f.Reset()
	if evs := f.Events(); len(evs) != 0 {
		t.Fatalf("Reset left events: %v", evs)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Note("span", "x", "") // must not panic
	if f.Events() != nil {
		t.Fatal("nil recorder misbehaves")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Note("query", "phase run", "")
				f.Events()
			}
		}()
	}
	wg.Wait()
	if len(f.Events()) != 64 {
		t.Fatalf("ring not full after 800 writes: %d", len(f.Events()))
	}
}

// TestFlightRecorderCorrelatedTimeline drives the real hooks — a span
// tree, a context-stamped log line, and a query lifecycle — and asserts
// they land in DefaultFlight as one correlated, renderable timeline.
func TestFlightRecorderCorrelatedTimeline(t *testing.T) {
	DefaultFlight.Reset()
	defer DefaultFlight.Reset()

	ctx, span := StartSpan(t.Context(), "flight-root")
	ctx, q := Queries.Begin(ctx, "sql", "SELECT 1")
	q.SetPhase("run")
	Log(ctx).Info("flight hello")
	Queries.Finish(q)
	span.End()

	evs := DefaultFlight.Events()
	var haveSpan, haveLog, haveBegin, havePhase, haveFinish bool
	for _, ev := range evs {
		switch {
		case ev.Kind == "span" && ev.Name == "flight-root":
			haveSpan = true
			if ev.TraceID != span.TraceID() {
				t.Errorf("span event trace id = %d, want %d", ev.TraceID, span.TraceID())
			}
		case ev.Kind == "log" && strings.Contains(ev.Detail, "flight hello"):
			haveLog = true
			if ev.QueryID != q.ID() {
				t.Errorf("log event query id = %q, want %q", ev.QueryID, q.ID())
			}
			if ev.TraceID != span.TraceID() {
				t.Errorf("log event trace id = %d, want %d", ev.TraceID, span.TraceID())
			}
		case ev.Kind == "query" && ev.Name == "begin sql":
			haveBegin = true
			if ev.Detail != "SELECT 1" {
				t.Errorf("begin event detail = %q", ev.Detail)
			}
		case ev.Kind == "query" && ev.Name == "phase run":
			havePhase = true
		case ev.Kind == "query" && ev.Name == "finish sql":
			haveFinish = true
		}
	}
	if !haveSpan || !haveLog || !haveBegin || !havePhase || !haveFinish {
		t.Fatalf("timeline missing hooks (span=%v log=%v begin=%v phase=%v finish=%v):\n%s",
			haveSpan, haveLog, haveBegin, havePhase, haveFinish, Timeline(evs))
	}

	text := Timeline(evs)
	for _, want := range []string{"begin sql", "phase run", "flight hello", "finish sql", q.ID()} {
		if !strings.Contains(text, want) {
			t.Errorf("Timeline missing %q:\n%s", want, text)
		}
	}
}

// The acceptance criterion: recording must be cheap enough that the
// always-on recorder is within noise of a disabled one. Compare
// BenchmarkFlightRecordOn and BenchmarkFlightRecordOff.
func BenchmarkFlightRecordOn(b *testing.B) {
	f := NewFlightRecorder(2048)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f.Record(FlightEvent{Time: time.Unix(0, 1), Kind: "span", Name: "bench"})
		}
	})
}
