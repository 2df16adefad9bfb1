package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Morsel-driven parallel execution (Leis et al., adapted to this
// materialize-per-operator engine): operators split their input into
// fixed-size row ranges — morsels — and a small worker pool processes
// them, merging per-morsel results in morsel-index order. Because the
// morsel boundaries depend only on the input row count and the morsel
// size, never on the worker count, every operator produces bit-identical
// output (row order included) for every Workers setting — the property
// the differential harness in internal/proptest asserts.

// DefaultMorselSize is the fixed number of rows per morsel. It is a
// constant of the execution model, not a tuning knob derived from the
// worker count: floating-point aggregates sum per morsel and then merge
// in morsel order, so keeping the boundaries fixed is what makes results
// identical across worker counts.
const DefaultMorselSize = 4096

// Opts configures parallel plan execution.
type Opts struct {
	// Workers is the number of worker goroutines an operator's parallel
	// regions may use. 0 means runtime.NumCPU(); 1 preserves serial
	// execution.
	Workers int
	// MorselSize overrides DefaultMorselSize; 0 keeps the default. Runs
	// that must produce identical float aggregates must use the same
	// morsel size (the worker count never matters). Tests shrink it to
	// exercise parallel merges on small inputs.
	MorselSize int

	// Cancel, when set, is consulted at every operator boundary: a
	// non-nil return aborts the plan with that error before the next
	// operator runs. Queries wire it to their context so DELETE
	// /debug/queries/{id} (and client disconnects) stop a running plan.
	Cancel func() error
	// OnRows, when set, receives each operator's output row count as it
	// materializes — the "rows produced so far" feed of the active-query
	// registry. It may be called from the plan's driving goroutine only.
	OnRows func(rows int)
}

func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Opts) morsel() int {
	if o.MorselSize > 0 {
		return o.MorselSize
	}
	return DefaultMorselSize
}

// execNode is the optional interface Configure uses to install execution
// options; every operator embedding base implements it.
type execNode interface{ setExec(Opts) }

func (b *base) setExec(o Opts) { b.exec = o }

// Configure installs the execution options on every node of a plan tree.
// Call it after building a plan and before Run; an unconfigured plan runs
// with the package defaults.
func Configure(root Node, o Opts) {
	if root == nil {
		return
	}
	if n, ok := root.(execNode); ok {
		n.setExec(o)
	}
	for _, k := range root.Children() {
		Configure(k, o)
	}
}

// morselCount returns how many morsels cover rows at the given size.
func morselCount(rows, size int) int {
	if rows <= 0 {
		return 0
	}
	return (rows + size - 1) / size
}

// runMorsels processes the half-open ranges covering [0, rows) on the
// worker pool: f(m, lo, hi) handles morsel m. Morsels are handed out by
// an atomic counter (work stealing); f must write only morsel-local
// state, and callers merge per-morsel results in morsel-index order to
// keep output deterministic. Worker and morsel counts accumulate into st
// (which timeRun resets per Run), and the morsel/utilization metrics
// feed the obs registry under the op label.
//
// A panic inside f is re-raised on the calling goroutine, so spawning
// workers does not change the engine's panic behavior (the MPP segment
// runner's recover still sees it).
func runMorsels(op string, rows int, o Opts, st *NodeStats, f func(m, lo, hi int)) {
	sz := o.morsel()
	nm := morselCount(rows, sz)
	if nm == 0 {
		return
	}
	w := o.workers()
	if w > nm {
		w = nm
	}
	if st != nil {
		if w > st.Workers {
			st.Workers = w
		}
		st.Morsels += nm
	}
	morsels.With(op).Add(int64(nm))
	if w <= 1 {
		for m := 0; m < nm; m++ {
			f(m, m*sz, min((m+1)*sz, rows))
		}
		return
	}
	start := time.Now()
	var next atomic.Int64
	var busy atomic.Int64
	var panicOnce sync.Once
	var panicVal any
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			defer func() {
				busy.Add(int64(time.Since(t0)))
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				m := int(next.Add(1)) - 1
				if m >= nm {
					return
				}
				f(m, m*sz, min((m+1)*sz, rows))
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	if el := time.Since(start); el > 0 {
		utilization.With(op).Observe(float64(busy.Load()) / (float64(el) * float64(w)))
	}
}

// forMorsels is runMorsels for a kernel that also has a serial path: with
// parallel unset it visits the same morsels in a plain loop that reports
// no workers, morsels or metrics — a serial kernel's EXPLAIN stays bare.
func forMorsels(parallel bool, op string, rows int, o Opts, st *NodeStats, f func(m, lo, hi int)) {
	if parallel {
		runMorsels(op, rows, o, st, f)
		return
	}
	sz := o.morsel()
	for m := 0; m*sz < rows; m++ {
		f(m, m*sz, min((m+1)*sz, rows))
	}
}
