package engine

import (
	"fmt"
	"strings"
	"time"
)

// Node is one operator of a physical query plan. Plans are trees; Run
// materializes the node's full output, timing itself and recording row
// counts so Explain can annotate the tree the way Figure 4 of the paper
// annotates Greenplum plans.
type Node interface {
	// OutSchema returns the schema of the node's output.
	OutSchema() Schema
	// Children returns the input operators.
	Children() []Node
	// Label returns a one-line description, e.g. "Hash Join (T.R = M1.R2)".
	Label() string
	// OpKind returns the operator's bounded-cardinality kind ("Hash
	// Join", "Seq Scan"): the op label of its metric series.
	OpKind() string
	// Run executes the subtree rooted at the node and returns its output.
	Run() (*Table, error)
	// Stats returns the row count and wall time of the most recent Run.
	Stats() *NodeStats
}

// NodeStats records what the most recent Run of a node did.
type NodeStats struct {
	Rows    int
	Elapsed time.Duration
	// Extra carries operator-specific annotations (e.g. bytes moved by an
	// MPP motion) that Explain appends to the label.
	Extra string

	// EstRows is the optimizer's cardinality estimate for this operator,
	// set at plan time by SetEstRows; 0 means no estimate was recorded.
	// ExplainAnalyze renders it next to the actual row count so the
	// estimation error of every operator is visible.
	EstRows float64
	// OutBytes is the byte size of the operator's materialized output —
	// the peak batch memory the operator pinned. Table.ByteSize is a pure
	// function of the data, so the value is deterministic across worker
	// counts and safe to pin in golden EXPLAIN ANALYZE files.
	OutBytes int64
	// Retries counts segment-task re-executions a distributed operator
	// needed during its most recent Run (always 0 single-node). It
	// depends on the active fault plan, so the journal strips it when
	// canonicalizing.
	Retries int

	// Per-segment breakdowns, filled only by distributed (mpp) operators
	// and nil on single-node plans. SegRows is the output row count per
	// segment; SegSeconds the per-segment task wall time — the raw
	// material of skew/straggler analysis. MovedRows/MovedBytes record the
	// volume a motion operator shipped across segments.
	SegRows    []int
	SegSeconds []float64
	MovedRows  int
	MovedBytes int64

	// Workers and Morsels record the most recent Run's parallel footprint:
	// the worker-goroutine count of the operator's widest parallel region
	// and the total number of fixed-size morsels it processed (summed over
	// regions; distributed operators sum over segments). Both stay zero
	// for operators without parallel regions (scans, sorts, motions).
	// Morsels is deterministic — a pure function of row counts and the
	// morsel size — while Workers depends on the configured pool, so the
	// journal strips only the latter when canonicalizing.
	Workers int
	Morsels int
}

// ExecNote renders the worker/morsel annotation Explain appends after
// Extra, or "" for operators that ran no parallel region.
func (st *NodeStats) ExecNote() string {
	if st.Morsels == 0 {
		return ""
	}
	return fmt.Sprintf(" workers=%d morsels=%d", st.Workers, st.Morsels)
}

// base carries the bookkeeping shared by every operator.
type base struct {
	schema Schema
	stats  NodeStats
	// exec holds the parallel-execution options installed by Configure;
	// the zero value means package defaults (see Opts).
	exec Opts
}

func (b *base) OutSchema() Schema { return b.schema }
func (b *base) Stats() *NodeStats { return &b.stats }

// timeRun wraps an operator body with timing and row accounting. The
// elapsed time recorded is *self* time only (children timed separately),
// matching the per-operator durations in Figure 4. The execution options
// carry the per-query hooks: Cancel is checked before the body runs, so
// a cancelled query stops at the next operator boundary, and OnRows
// reports the rows this operator produced to the active-query registry.
func timeRun(st *NodeStats, o Opts, body func() (*Table, error)) (*Table, error) {
	if o.Cancel != nil {
		if err := o.Cancel(); err != nil {
			return nil, err
		}
	}
	st.Workers, st.Morsels, st.Retries = 0, 0, 0
	start := time.Now()
	out, err := body()
	st.Elapsed = time.Since(start)
	if out != nil {
		st.Rows = out.NumRows()
		st.OutBytes = out.ByteSize()
	}
	if o.OnRows != nil && err == nil {
		o.OnRows(st.Rows)
	}
	return out, err
}

// runChildren executes all children first and returns their outputs. Child
// execution time is excluded from the parent's self time.
func runChildren(n Node) ([]*Table, error) {
	kids := n.Children()
	outs := make([]*Table, len(kids))
	for i, k := range kids {
		t, err := k.Run()
		if err != nil {
			return nil, err
		}
		outs[i] = t
	}
	return outs, nil
}

// Explain renders the plan tree with per-node row counts and self times
// from the most recent Run. Call Run first for an EXPLAIN ANALYZE view;
// without a prior Run the annotations are zero.
func Explain(root Node) string {
	var b strings.Builder
	explainNode(&b, root, 0)
	return b.String()
}

func explainNode(b *strings.Builder, n Node, depth int) {
	st := n.Stats()
	fmt.Fprintf(b, "%s-> %s  (rows=%d time=%s%s%s)\n",
		strings.Repeat("  ", depth), n.Label(), st.Rows, st.Elapsed.Round(time.Microsecond), st.Extra, st.ExecNote())
	for _, k := range n.Children() {
		explainNode(b, k, depth+1)
	}
}

// TotalTimeOf sums the self time of every node of a plan-shaped tree —
// single-node or distributed (mpp) plans — recursing through the entire
// tree; the obs metrics bridge uses it for both.
func TotalTimeOf[N PlanLike[N]](root N) time.Duration {
	total := root.Stats().Elapsed
	for _, k := range root.Children() {
		total += TotalTimeOf(k)
	}
	return total
}
