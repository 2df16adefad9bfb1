package obs

import (
	"context"
	"io"
	"sync"
	"testing"
)

// TestConcurrentRegistryAndSpans exercises counters, gauges, histograms,
// span starts, and exposition rendering from many goroutines at once; it
// exists to fail under -race if any path loses its synchronization.
func TestConcurrentRegistryAndSpans(t *testing.T) {
	r := NewRegistry()
	ops := &Vec[Counter]{r.declare(kindCounter, "probkb_race_ops_total", "ops", nil, []string{"worker"})}
	depth := only[Gauge](r.declare(kindGauge, "probkb_race_depth", "depth", nil, nil))
	latency := only[Histogram](r.declare(kindHistogram, "probkb_race_seconds", "latency", nil, nil))
	tr := NewTracer(16)
	const workers, iters = 8, 500

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, root := StartSpanIn(context.Background(), tr, "worker")
			for i := 0; i < iters; i++ {
				ops.With("w").Inc()
				depth.Add(1)
				latency.Observe(float64(i) * 1e-6)
				_, child := StartSpanIn(ctx, tr, "op")
				child.SetAttr("i", i)
				child.End()
			}
			root.End()
		}(w)
	}
	// Render concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(io.Discard)
			for _, s := range tr.Traces() {
				_ = s.Render()
			}
		}
	}()
	wg.Wait()

	if got := ops.With("w").Value(); got != workers*iters {
		t.Fatalf("lost increments: %d, want %d", got, workers*iters)
	}
	if got := latency.Count(); got != workers*iters {
		t.Fatalf("lost observations: %d, want %d", got, workers*iters)
	}
}
