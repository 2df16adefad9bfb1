package obs

import (
	"context"
	"sync"
	"testing"
)

// TestQueriesInFlightSettlesAtZero: once every query has finished, the
// in-flight gauge reads 0. Begin and Finish race on one registry; a
// gauge set after the registry lock is released can land out of order
// and leave a stale count. The race needs high contention to show:
// 20,000 rounds of 32 goroutines.
func TestQueriesInFlightSettlesAtZero(t *testing.T) {
	const rounds, workers = 20000, 32
	r := &QueryRegistry{}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, q := r.Begin(context.Background(), "sql", "SELECT 1")
				r.Finish(q)
			}()
		}
		wg.Wait()
		if n := Default.Snapshot()["probkb_queries_in_flight"]; n != 0 {
			t.Fatalf("round %d: probkb_queries_in_flight = %v with nothing in flight", round, n)
		}
	}
}
