package engine

import (
	"strings"
	"testing"
	"time"
)

// stubNode is a plan node with preset stats, for tree-walk tests.
type stubNode struct {
	base
	label string
	kids  []Node
}

func newStub(label string, elapsed time.Duration, rows int, kids ...Node) *stubNode {
	n := &stubNode{label: label, kids: kids}
	n.stats.Elapsed = elapsed
	n.stats.Rows = rows
	return n
}

func (n *stubNode) Children() []Node     { return n.kids }
func (n *stubNode) Label() string        { return n.label }
func (n *stubNode) OpKind() string       { return opKind(n.label) }
func (n *stubNode) Run() (*Table, error) { return nil, nil }

// TestTotalTimeFullTree pins TotalTime to summing *every* level of the
// plan, not just the root and its immediate children: a 3-level tree
// with distinct per-node self times must sum to their exact total.
func TestTotalTimeFullTree(t *testing.T) {
	//        root (1ms)
	//        /        \
	//   mid1 (2ms)   mid2 (4ms)
	//    /    \          \
	// leaf1   leaf2     leaf3
	// (8ms)  (16ms)    (32ms)
	leaf1 := newStub("leaf1", 8*time.Millisecond, 1)
	leaf2 := newStub("leaf2", 16*time.Millisecond, 2)
	leaf3 := newStub("leaf3", 32*time.Millisecond, 3)
	mid1 := newStub("mid1", 2*time.Millisecond, 4, leaf1, leaf2)
	mid2 := newStub("mid2", 4*time.Millisecond, 5, leaf3)
	root := newStub("root", 1*time.Millisecond, 6, mid1, mid2)

	want := 63 * time.Millisecond // 1+2+4+8+16+32: every node exactly once
	if got := TotalTime(root); got != want {
		t.Fatalf("TotalTime = %v, want %v (grandchildren missing or double-counted)", got, want)
	}

	// A deeper chain exercises recursion past depth 3.
	chain := newStub("a", time.Millisecond, 0,
		newStub("b", time.Millisecond, 0,
			newStub("c", time.Millisecond, 0,
				newStub("d", time.Millisecond, 0))))
	if got := TotalTime(chain); got != 4*time.Millisecond {
		t.Fatalf("TotalTime(chain) = %v, want 4ms", got)
	}
}

// opKind reduces an operator label like "Hash Join (T.R = M1.R2)" to its
// kind ("Hash Join"): the by-label derivation metric labels used before
// every node reported its OpKind, kept as the oracle OpKind must match.
func opKind(label string) string {
	if i := strings.IndexAny(label, "(["); i > 0 {
		label = label[:i]
	}
	if i := strings.Index(label, " on "); i > 0 {
		label = label[:i]
	}
	return strings.TrimSpace(label)
}

func TestOpKind(t *testing.T) {
	cases := map[string]string{
		"Hash Join (T.R = M1.R2)":    "Hash Join",
		"Seq Scan on TPi [hashed]":   "Seq Scan",
		"Redistribute Motion [by 1]": "Redistribute Motion",
		"Distinct":                   "Distinct",
	}
	for in, want := range cases {
		if got := opKind(in); got != want {
			t.Errorf("opKind(%q) = %q, want %q", in, got, want)
		}
	}
}
