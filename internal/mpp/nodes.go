package mpp

import (
	"fmt"
	"strings"
	"time"

	"probkb/internal/engine"
)

// Node is one operator of a distributed query plan. As in the single-node
// engine, Run fully materializes the operator's output — here a DistTable
// — and records self time and row counts for Explain.
type Node interface {
	// OutSchema returns the output schema.
	OutSchema() engine.Schema
	// OutDist returns the output's distribution.
	OutDist() Distribution
	// Children returns the input operators.
	Children() []Node
	// Label describes the operator for Explain.
	Label() string
	// OpKind returns the operator's bounded-cardinality kind ("Gather
	// Motion"; a segment-local operator's engine kind).
	OpKind() string
	// Run executes the subtree and returns the distributed output.
	Run() (*DistTable, error)
	// Stats returns row count, self time, and motion annotations from the
	// most recent Run.
	Stats() *engine.NodeStats
}

type dbase struct {
	cluster *Cluster
	schema  engine.Schema
	dist    Distribution
	stats   engine.NodeStats
	// err defers construction-time violations (collocation mistakes,
	// invalid clusters, non-scan leaves) to Run, so building a malformed
	// plan never panics: the error surfaces when the plan executes.
	err error
}

func (b *dbase) OutSchema() engine.Schema { return b.schema }
func (b *dbase) OutDist() Distribution    { return b.dist }
func (b *dbase) Stats() *engine.NodeStats { return &b.stats }

func (b *dbase) deferred() error { return b.err }

// childBase builds a dbase for an operator over child, inheriting the
// cluster from the plan's leaves and any deferred error from child, so
// a Run reports the most specific violation in the plan.
func childBase(child Node, schema engine.Schema, dist Distribution) dbase {
	b := dbase{schema: schema, dist: dist}
	b.cluster = clusterOf(child)
	d, _ := child.(interface{ deferred() error })
	switch {
	case d != nil && d.deferred() != nil:
		b.err = d.deferred()
	case b.cluster == nil:
		b.err = fmt.Errorf("mpp: plan has a leaf that is not a scan")
	case b.cluster.err != nil:
		b.err = b.cluster.err
	}
	return b
}

func timeRunD(st *engine.NodeStats, body func() (*DistTable, error)) (*DistTable, error) {
	st.Workers, st.Morsels, st.Retries = 0, 0, 0
	start := time.Now()
	out, err := body()
	st.Elapsed = time.Since(start)
	if out != nil {
		st.Rows = out.NumRows()
		st.OutBytes = out.ByteSize()
		st.SegRows = make([]int, len(out.segs))
		for i, s := range out.segs {
			st.SegRows[i] = s.NumRows()
		}
	}
	return out, err
}

// mergeExecStats folds the per-segment kernel stats into a distributed
// operator's stats: Workers is the widest parallel region on any segment,
// Morsels sums over segments (still deterministic — segment partition
// sizes are a pure function of the data and the hash).
func mergeExecStats(dst *engine.NodeStats, segs []engine.NodeStats) {
	for _, s := range segs {
		if s.Workers > dst.Workers {
			dst.Workers = s.Workers
		}
		dst.Morsels += s.Morsels
	}
}

func runChildrenD(n Node) ([]*DistTable, error) {
	kids := n.Children()
	outs := make([]*DistTable, len(kids))
	for i, k := range kids {
		t, err := k.Run()
		if err != nil {
			return nil, err
		}
		outs[i] = t
	}
	return outs, nil
}

// Explain renders a distributed plan with per-node row counts, self times,
// and motion annotations, in the style of Figure 4.
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

// ExplainAnalyze renders a distributed plan with actuals next to the
// optimizer's estimates — per-segment row counts, motion volumes, output
// bytes, and segment-task retries included. See engine.ExplainAnalyze
// for the single-node twin; the classic Explain stays unchanged.
func ExplainAnalyze(root Node) string { return engine.ExplainAnalyzeOf[Node](root) }

// CountMotions returns how many motion operators (redistribute or
// broadcast) the plan contains; tests and the Figure 4 harness use it to
// characterize plan shapes.
func CountMotions(root Node) (redistribute, broadcast int) {
	switch root.(type) {
	case *RedistributeNode:
		redistribute++
	case *BroadcastNode:
		broadcast++
	}
	for _, k := range root.Children() {
		r, b := CountMotions(k)
		redistribute += r
		broadcast += b
	}
	return
}

// MotionBytes sums the bytes shipped by every motion in the plan during
// the most recent Run.
func MotionBytes(root Node) int64 {
	var total int64
	switch n := root.(type) {
	case *RedistributeNode:
		total += n.movedBytes
	case *BroadcastNode:
		total += n.movedBytes
	}
	for _, k := range root.Children() {
		total += MotionBytes(k)
	}
	return total
}

// ---------------------------------------------------------------------------
// Scan

// ScanNode produces an existing distributed table.
type ScanNode struct {
	dbase
	d *DistTable
}

// NewScan returns a scan over d; a table with a deferred error makes the
// scan (and any plan built on it) fail at Run.
func NewScan(d *DistTable) *ScanNode {
	return &ScanNode{dbase: dbase{cluster: d.cluster, schema: d.schema, dist: d.dist, err: d.err}, d: d}
}

func (n *ScanNode) Children() []Node { return nil }

func (n *ScanNode) Label() string {
	return fmt.Sprintf("Seq Scan on %s [%s]", n.d.name, n.d.dist)
}

func (n *ScanNode) OpKind() string { return "Seq Scan" }

// Run returns the scanned table.
func (n *ScanNode) Run() (*DistTable, error) {
	if n.err != nil {
		return nil, n.err
	}
	return timeRunD(&n.stats, func() (*DistTable, error) { return n.d, nil })
}

// ---------------------------------------------------------------------------
// Motions

// RedistributeNode reshuffles its input so the output is hash-distributed
// by the given key columns. Rows already on their target segment are not
// shipped; the stats record how many rows and bytes crossed segments.
type RedistributeNode struct {
	dbase
	child      Node
	key        []int
	movedBytes int64
}

// NewRedistribute returns a redistribute motion to the given key.
func NewRedistribute(child Node, key []int) *RedistributeNode {
	return &RedistributeNode{
		dbase: childBase(child, child.OutSchema(), HashedBy(append([]int(nil), key...)...)),
		child: child,
		key:   key,
	}
}

func (n *RedistributeNode) Children() []Node { return []Node{n.child} }
func (n *RedistributeNode) Label() string    { return fmt.Sprintf("Redistribute Motion [by %v]", n.key) }
func (n *RedistributeNode) OpKind() string   { return "Redistribute Motion" }

// Run reshuffles the child output.
func (n *RedistributeNode) Run() (*DistTable, error) {
	if n.err != nil {
		return nil, n.err
	}
	ins, err := runChildrenD(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRunD(&n.stats, func() (*DistTable, error) {
		out := n.cluster.newDistTable("redist", n.schema, n.dist)
		var movedRows int
		n.movedBytes = 0
		recv := make([]int, n.cluster.nseg)
		// A replicated input only needs one copy's worth of rows, taken
		// from segment 0 (in a real system each segment would hash its
		// slice; the result is the same placement).
		if in.Replicated() {
			perSeg := scatterInto(in.segs[0], 0, out.segs, n.key)
			for dst, rows := range perSeg {
				movedRows += len(rows)
				recv[dst] = len(rows)
			}
			n.movedBytes = in.segs[0].ByteSize()
		} else {
			for src := 0; src < n.cluster.nseg; src++ {
				seg := in.segs[src]
				perSeg := scatterInto(seg, 0, out.segs, n.key)
				for dst, rows := range perSeg {
					if dst != src {
						movedRows += len(rows)
						recv[dst] += len(rows)
						if seg.NumRows() > 0 {
							n.movedBytes += int64(len(rows)) * (seg.ByteSize() / int64(seg.NumRows()))
						}
					}
				}
			}
		}
		n.stats.MovedRows = movedRows
		n.stats.MovedBytes = n.movedBytes
		n.stats.Extra = fmt.Sprintf(" moved=%d rows (%dB) recv=%v", movedRows, n.movedBytes, recv)
		observeMotion("redistribute", movedRows, n.movedBytes)
		return out, nil
	})
}

// observeMotion accumulates one motion's shipped volume into the
// registry (rows/bytes counters plus a byte-volume histogram).
func observeMotion(kind string, rows int, bytes int64) {
	motionRows.With(kind).Add(int64(rows))
	motionBytesTotal.With(kind).Add(bytes)
	motionBytes.With(kind).Observe(float64(bytes))
}

// BroadcastNode replicates its input onto every segment. All rows ship to
// all other segments, which is why the paper's unoptimized plan in
// Figure 4 is slow.
type BroadcastNode struct {
	dbase
	child      Node
	movedBytes int64
}

// NewBroadcast returns a broadcast motion.
func NewBroadcast(child Node) *BroadcastNode {
	return &BroadcastNode{
		dbase: childBase(child, child.OutSchema(), ReplicatedDist()),
		child: child,
	}
}

func (n *BroadcastNode) Children() []Node { return []Node{n.child} }
func (n *BroadcastNode) Label() string    { return "Broadcast Motion" }
func (n *BroadcastNode) OpKind() string   { return n.Label() }

// Run replicates the child output.
func (n *BroadcastNode) Run() (*DistTable, error) {
	if n.err != nil {
		return nil, n.err
	}
	ins, err := runChildrenD(n)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	return timeRunD(&n.stats, func() (*DistTable, error) {
		out := n.cluster.newDistTable("broadcast", n.schema, ReplicatedDist())
		if in.Replicated() {
			// Already everywhere; nothing moves.
			for i := range out.segs {
				out.segs[i].AppendTable(in.segs[0])
			}
			n.movedBytes = 0
			n.stats.MovedRows = 0
			n.stats.MovedBytes = 0
			n.stats.Extra = " moved=0 rows (0B)"
			return out, nil
		}
		full := Gather(in)
		for i := range out.segs {
			out.segs[i].AppendTable(full)
		}
		// Every row is shipped to every segment but its own.
		moved := full.NumRows() * (n.cluster.nseg - 1)
		n.movedBytes = full.ByteSize() * int64(n.cluster.nseg-1)
		recv := make([]int, n.cluster.nseg)
		for i := range recv {
			recv[i] = full.NumRows() - in.segs[i].NumRows()
		}
		n.stats.MovedRows = moved
		n.stats.MovedBytes = n.movedBytes
		n.stats.Extra = fmt.Sprintf(" moved=%d rows (%dB) recv=%v", moved, n.movedBytes, recv)
		observeMotion("broadcast", moved, n.movedBytes)
		return out, nil
	})
}

// clusterOf extracts the cluster a plan runs on, or nil when the plan
// has a leaf that is not a scan (recorded as a deferred error by
// childBase).
func clusterOf(n Node) *Cluster {
	for {
		kids := n.Children()
		if len(kids) == 0 {
			if s, ok := n.(*ScanNode); ok {
				return s.d.cluster
			}
			return nil
		}
		n = kids[0]
	}
}
