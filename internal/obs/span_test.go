package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := startSpan(context.Background(), tr, "expand")
	cctx, ground := startSpan(ctx, tr, "ground")
	_, iter1 := startSpan(cctx, tr, "iteration")
	iter1.SetAttr("iter", 1)
	iter1.End()
	_, iter2 := startSpan(cctx, tr, "iteration")
	iter2.SetAttr("iter", 2)
	iter2.End()
	ground.End()
	_, inf := startSpan(ctx, tr, "infer")
	inf.End()
	root.End()

	if root.TraceID() != ground.TraceID() || root.TraceID() != iter1.TraceID() {
		t.Error("children do not share the root's trace id")
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0] != ground || kids[1] != inf {
		t.Fatalf("root children = %v, want [ground, infer] in start order", kids)
	}
	gkids := ground.Children()
	if len(gkids) != 2 || gkids[0] != iter1 || gkids[1] != iter2 {
		t.Fatalf("ground children out of order")
	}
	if tr.Last() != root {
		t.Error("root span not published to tracer on End")
	}
	// Only roots enter the ring.
	if n := len(tr.Traces()); n != 1 {
		t.Errorf("ring holds %d traces, want 1", n)
	}
}

func TestSpanRender(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := startSpan(context.Background(), tr, "expand")
	root.SetAttr("engine", "ProbKB")
	_, child := startSpan(ctx, tr, "ground")
	time.Sleep(time.Millisecond)
	child.SetAttr("facts", 42)
	child.End()
	root.End()

	out := root.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render = %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "-> expand ") || !strings.Contains(lines[0], "engine=ProbKB") {
		t.Errorf("bad root line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  -> ground ") || !strings.Contains(lines[1], "facts=42") {
		t.Errorf("bad child line %q", lines[1])
	}
	if !strings.Contains(lines[0], "self=") || !strings.Contains(lines[0], "time=") {
		t.Errorf("missing time/self annotations in %q", lines[0])
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := startSpan(context.Background(), tr, "root")
	_, child := startSpan(ctx, tr, "child")
	time.Sleep(5 * time.Millisecond)
	child.End()
	root.End()

	if root.Duration() < child.Duration() {
		t.Error("root shorter than its child")
	}
	if self := root.SelfTime(); self >= root.Duration() {
		t.Errorf("self time %v not reduced by child %v", self, child.Duration())
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(3)
	var last *Span
	for i := 0; i < 10; i++ {
		_, s := startSpan(context.Background(), tr, "run")
		s.SetAttr("i", i)
		s.End()
		last = s
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d, want 3", len(traces))
	}
	if traces[0] != last {
		t.Error("most recent trace is not first")
	}
}

func TestEndTwiceKeepsFirst(t *testing.T) {
	tr := NewTracer(2)
	_, s := startSpan(context.Background(), tr, "once")
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Error("second End moved the end time")
	}
	if len(tr.Traces()) != 1 {
		t.Error("double End published the span twice")
	}
}

func TestSpanFromContext(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Error("empty context has a span")
	}
	ctx, s := startSpan(context.Background(), NewTracer(1), "x")
	if SpanFrom(ctx) != s {
		t.Error("SpanFrom did not return the started span")
	}
	s.End()
}
