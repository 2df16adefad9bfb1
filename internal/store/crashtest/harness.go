package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"probkb/internal/kb"
	"probkb/internal/store"
)

// An Op is one storage-engine operation of a crash script.
type Op struct {
	// Kind is store.RecFacts/RecDeletes/RecMarginals for appends, or
	// OpCheckpoint.
	Kind  byte
	Facts []store.FactRec
}

// OpCheckpoint rewrites the snapshot and rotates the WAL.
const OpCheckpoint = 0

func (o Op) String() string {
	switch o.Kind {
	case OpCheckpoint:
		return "checkpoint"
	case store.RecFacts:
		return fmt.Sprintf("facts×%d", len(o.Facts))
	case store.RecDeletes:
		return fmt.Sprintf("deletes×%d", len(o.Facts))
	case store.RecMarginals:
		return fmt.Sprintf("marginals×%d", len(o.Facts))
	}
	return fmt.Sprintf("op(%d)", o.Kind)
}

// Script is one crash-test case: a base KB and a sequence of durable
// operations against its store.
type Script struct {
	Base *kb.KB
	Ops  []Op
}

// storeDir is the directory every harness run uses inside its MemFS.
const storeDir = "kb"

// Point is one armed crash: byte-budget, op-budget (≤0 disables each),
// and the survival mode.
type Point struct {
	Bytes int64
	OpN   int64
	Mode  CrashMode
}

func (p Point) String() string {
	if p.OpN > 0 {
		return fmt.Sprintf("crash[op=%d,%s]", p.OpN, p.Mode)
	}
	return fmt.Sprintf("crash[byte=%d,%s]", p.Bytes, p.Mode)
}

// disabled encodes "no budget" for Arm.
func (p Point) arm(fs *MemFS) {
	b, o := p.Bytes, p.OpN
	if b <= 0 {
		b = -1
	}
	if o <= 0 {
		o = -1
	}
	fs.Arm(b, o, p.Mode)
}

// execute runs the script against fs, stopping at the first crashed
// operation. It returns the per-append log (the op's WAL generation at
// append time, its encoded length, and whether it succeeded) and the
// number of ops that completed.
type appendLog struct {
	gen    uint32
	length int64
	ok     bool
}

func execute(fs store.FS, script Script) (log []appendLog, completed int, err error) {
	st, err := store.Create(fs, storeDir, script.Base)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	for _, op := range script.Ops {
		if op.Kind == OpCheckpoint {
			if err := st.Checkpoint(); err != nil {
				return log, completed, err
			}
			completed++
			continue
		}
		entry := appendLog{
			gen:    st.Gen(),
			length: int64(len(store.EncodeRecord(store.Record{Type: op.Kind, Facts: op.Facts}))),
		}
		var aerr error
		switch op.Kind {
		case store.RecFacts:
			aerr = st.AppendFacts(op.Facts)
		case store.RecDeletes:
			aerr = st.AppendDeletes(op.Facts)
		case store.RecMarginals:
			aerr = st.AppendMarginals(op.Facts)
		default:
			return log, completed, fmt.Errorf("crashtest: bad op kind %d", op.Kind)
		}
		entry.ok = aerr == nil
		log = append(log, entry)
		if aerr != nil {
			return log, completed, aerr
		}
		completed++
	}
	return log, completed, nil
}

// Boundaries runs the script crash-free and returns the cumulative
// write-byte offset right after each append op's record write — the
// record boundaries the crash matrix targets — plus the total ops.
func Boundaries(script Script) (boundaries []int64, totalOps int64, err error) {
	fs := NewMemFS()
	st, err := store.Create(fs, storeDir, script.Base)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	for _, op := range script.Ops {
		var oerr error
		switch op.Kind {
		case OpCheckpoint:
			oerr = st.Checkpoint()
		case store.RecFacts:
			oerr = st.AppendFacts(op.Facts)
		case store.RecDeletes:
			oerr = st.AppendDeletes(op.Facts)
		case store.RecMarginals:
			oerr = st.AppendMarginals(op.Facts)
		default:
			oerr = fmt.Errorf("crashtest: bad op kind %d", op.Kind)
		}
		if oerr != nil {
			return nil, 0, oerr
		}
		if op.Kind != OpCheckpoint {
			boundaries = append(boundaries, fs.BytesWritten())
		}
	}
	return boundaries, fs.Ops(), nil
}

// RunPoint executes the script with the crash point armed, recovers
// from the durable view, and differentially checks the result against
// the oracle. A nil return means the invariants held at this point.
//
// The oracle never consults the recovery code path: the expected state
// is the durable snapshot plus the first j in-memory records of its
// generation, where j is computed from the harness's own record-length
// log and the durable byte length of the WAL file.
func RunPoint(script Script, p Point) error {
	fs := NewMemFS()
	p.arm(fs)
	log, _, execErr := execute(fs, script)
	if execErr != nil && !errors.Is(execErr, ErrCrashed) {
		return fmt.Errorf("%s: unexpected execution error: %w", p, execErr)
	}

	view := fs.DurableView()

	// Oracle part 1: the durable snapshot must always be complete —
	// that is the atomic-replace guarantee. Before the very first
	// snapshot lands there is nothing to recover, and Open must say so
	// cleanly.
	base, gen, snapErr := store.ReadSnapshot(view, storeDir)
	if snapErr != nil {
		if fs.DurableLen(storeDir+"/snapshot.pks") > 0 {
			return fmt.Errorf("%s: durable snapshot unreadable: %v (files: %s)", p, snapErr, fs.DurableFiles())
		}
		if _, openErr := store.Open(view, storeDir); openErr == nil {
			return fmt.Errorf("%s: Open succeeded with no durable snapshot", p)
		}
		return nil
	}

	// Oracle part 2: expected = snapshot + the first j records of its
	// generation, j = complete records within the durable WAL bytes.
	walBytes := fs.DurableLen(storeDir + "/" + store.WALName(gen))
	var cum int64
	j := 0
	okAppends := 0
	for _, e := range log {
		if e.gen != gen {
			continue
		}
		if cum+e.length <= walBytes {
			cum += e.length
			j++
		} else {
			break
		}
	}
	for _, e := range log {
		if e.gen == gen && e.ok {
			okAppends++
		}
	}
	// Durability guarantee: every append that reported success before
	// the crash must be among the recovered records.
	if j < okAppends {
		return fmt.Errorf("%s: %d appends acknowledged but only %d durable (wal=%dB)", p, okAppends, j, walBytes)
	}
	expected := base
	n := 0
	for _, op := range script.Ops {
		if op.Kind == OpCheckpoint {
			continue
		}
		// The k-th append of generation `gen` is the k-th log entry
		// with that gen, in order; apply the first j of them.
		if logGenOf(log, n) == gen {
			if n2 := genIndexOf(log, n); n2 < j {
				if err := store.ApplyRecord(expected, store.Record{Type: op.Kind, Facts: op.Facts}); err != nil {
					return fmt.Errorf("%s: oracle apply: %v", p, err)
				}
			}
		}
		n++
	}
	wantDump := expected.Dump()

	// Recover and compare bit-wise.
	rec, err := store.Open(view, storeDir)
	if err != nil {
		return fmt.Errorf("%s: recovery failed: %v (files: %s)", p, err, fs.DurableFiles())
	}
	defer rec.Close()
	if !bytes.Equal(wantDump, rec.KB().Dump()) {
		return fmt.Errorf("%s: recovered KB differs from oracle (gen=%d j=%d wal=%dB, files: %s)",
			p, gen, j, walBytes, fs.DurableFiles())
	}
	if rec.Gen() != gen || rec.WALRecords() != int64(j) {
		return fmt.Errorf("%s: recovered gen=%d records=%d, oracle says gen=%d records=%d",
			p, rec.Gen(), rec.WALRecords(), gen, j)
	}

	// Resume check: the recovered store must accept appends and survive
	// a second (clean) recovery — i.e. torn tails really were cut.
	if err := rec.AppendFacts([]store.FactRec{{Rel: "resumed", X: "after", XClass: "Crash", Y: "point", YClass: "Crash", W: 0.5}}); err != nil {
		return fmt.Errorf("%s: resume append: %v", p, err)
	}
	resumedDump := rec.KB().Dump()
	rec.Close()
	again, err := store.Open(view, storeDir)
	if err != nil {
		return fmt.Errorf("%s: second recovery: %v", p, err)
	}
	defer again.Close()
	if !bytes.Equal(resumedDump, again.KB().Dump()) {
		return fmt.Errorf("%s: resumed state lost on second recovery", p)
	}
	return nil
}

// logGenOf returns the generation of append-log entry n (entries past
// the crash never made it into the log; treat them as a generation
// that never recovers so the oracle skips them).
func logGenOf(log []appendLog, n int) uint32 {
	if n >= len(log) {
		return ^uint32(0)
	}
	return log[n].gen
}

// genIndexOf returns entry n's ordinal among entries sharing its gen.
func genIndexOf(log []appendLog, n int) int {
	idx := 0
	for i := 0; i < n; i++ {
		if log[i].gen == log[n].gen {
			idx++
		}
	}
	return idx
}

// Points enumerates the crash matrix for a script: a crash exactly at
// every record boundary, `intra` deterministic pseudo-random offsets
// inside every record, and a crash before every filesystem operation
// (covering the checkpoint protocol's windows) — each in both survival
// modes.
func Points(script Script, intra int, rng *rand.Rand) ([]Point, error) {
	boundaries, totalOps, err := Boundaries(script)
	if err != nil {
		return nil, err
	}
	var pts []Point
	modes := []CrashMode{KeepTorn, SyncedOnly}
	prev := int64(0)
	for _, b := range boundaries {
		for _, m := range modes {
			pts = append(pts, Point{Bytes: b, Mode: m})
			width := b - prev
			for t := 0; t < intra && width > 1; t++ {
				off := prev + 1 + rng.Int63n(width-1)
				pts = append(pts, Point{Bytes: off, Mode: m})
			}
		}
		prev = b
	}
	for n := int64(1); n <= totalOps; n++ {
		for _, m := range modes {
			pts = append(pts, Point{OpN: n, Mode: m})
		}
	}
	return pts, nil
}

// RunMatrix runs the whole crash matrix and returns the first failing
// point's error (nil if the script survives everything).
func RunMatrix(script Script, intra int, rng *rand.Rand) error {
	pts, err := Points(script, intra, rng)
	if err != nil {
		return err
	}
	for _, p := range pts {
		if err := RunPoint(script, p); err != nil {
			return err
		}
	}
	return nil
}

// Shrink greedily reduces a failing script — dropping ops, then
// halving fact batches — while the full matrix still fails, in the
// spirit of internal/proptest's shrinker. It returns the smallest
// still-failing script and its failure.
func Shrink(script Script, intra int, seed int64) (Script, error) {
	fails := func(s Script) error {
		return RunMatrix(s, intra, rand.New(rand.NewSource(seed)))
	}
	err := fails(script)
	if err == nil {
		return script, nil
	}
	for reduced := true; reduced; {
		reduced = false
		for i := 0; i < len(script.Ops); i++ {
			cand := Script{Base: script.Base, Ops: append(append([]Op(nil), script.Ops[:i]...), script.Ops[i+1:]...)}
			if cerr := fails(cand); cerr != nil {
				script, err, reduced = cand, cerr, true
				break
			}
		}
		if reduced {
			continue
		}
		for i, op := range script.Ops {
			if len(op.Facts) < 2 {
				continue
			}
			half := append([]store.FactRec(nil), op.Facts[:len(op.Facts)/2]...)
			ops := append([]Op(nil), script.Ops...)
			ops[i] = Op{Kind: op.Kind, Facts: half}
			cand := Script{Base: script.Base, Ops: ops}
			if cerr := fails(cand); cerr != nil {
				script, err, reduced = cand, cerr, true
				break
			}
		}
	}
	return script, err
}
