package probkb

import (
	"fmt"
	"math"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/store"
)

// Store is a durable KB directory: a columnar snapshot plus an
// append-only WAL of everything since (fact inserts from grounding,
// constraint-repair deletes, marginal-probability updates). Attach one
// to Config.Persist and Expand makes the run durable as it goes: after
// a crash, OpenStore recovers the KB exactly as of the last completed
// grounding iteration — bit-identical to the in-memory state, which
// the crash harness in internal/store/crashtest verifies byte by byte.
//
// Only the knowledge itself is persisted. Derived artifacts — ground
// factor graphs, query plans, journals — are rebuilt by re-running
// Expand on the recovered KB, and rule-cleaning (RuleCleanTheta) never
// rewrites the durable rule set: the store always keeps the rules it
// was created with.
//
// A Store is single-writer: expansion runs, Checkpoint, KB and Facts
// must be serialized by the caller (the server does so under its writer
// mutex). Gen, WALRecords and SnapshotBytes alone may be polled from
// any goroutine.
type Store struct {
	inner *store.Store
	// err latches the first persistence failure signalled from inside a
	// grounding observer (which cannot return errors); every round
	// checks it after each phase and fails loudly.
	err error
	// step keeps sync in step with the last table it made durable.
	step inStep
	// deltaSyncs and fullSyncs count which way each sync went; the tests
	// read them to pin down when the store must fall back.
	deltaSyncs, fullSyncs int
}

// CreateStore initializes dir as a durable copy of k: a generation-1
// snapshot plus an empty WAL. It refuses to overwrite an existing
// store — recover those with OpenStore instead. The store keeps its
// own mirror of k; later mutations of the caller's KB are not seen.
func CreateStore(dir string, k *KB) (*Store, error) {
	fs := store.OSFS{}
	if ok, err := store.Exists(fs, dir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("probkb: %s already holds a store (use OpenStore)", dir)
	}
	inner, err := store.Create(fs, dir, k.inner)
	if err != nil {
		return nil, err
	}
	return &Store{inner: inner}, nil
}

// OpenOrCreateStore recovers the store at dir when dir already holds
// one, and otherwise creates one from the KB load returns; load runs
// only then. k is the KB a run continues from — the recovered one, or
// load's — and created reports which of the two happened.
func OpenOrCreateStore(dir string, load func() (*KB, error)) (st *Store, k *KB, created bool, err error) {
	if ok, err := store.Exists(store.OSFS{}, dir); err != nil {
		return nil, nil, false, err
	} else if ok {
		if st, err = OpenStore(dir); err != nil {
			return nil, nil, false, err
		}
		return st, st.KB(), false, nil
	}
	if k, err = load(); err != nil {
		return nil, nil, false, err
	}
	if st, err = CreateStore(dir, k); err != nil {
		return nil, nil, false, err
	}
	return st, k, true, nil
}

// OpenStore recovers the store at dir: snapshot load, WAL replay,
// torn-tail truncation. The recovered KB is ready for further
// expansion; appends resume where the last durable record left off.
func OpenStore(dir string) (*Store, error) {
	inner, err := store.Open(store.OSFS{}, dir)
	if err != nil {
		return nil, err
	}
	return &Store{inner: inner}, nil
}

// KB returns a copy of the durable KB — the recovered state after
// OpenStore, or the live mirror of everything appended so far.
func (s *Store) KB() *KB { return &KB{inner: s.inner.KB().Clone()} }

// Checkpoint folds the WAL into a fresh snapshot: the next recovery
// loads one file instead of replaying the log. Crash-safe at every
// point; the old snapshot stays authoritative until the new one lands.
func (s *Store) Checkpoint() error { return s.inner.Checkpoint() }

// Gen returns the current snapshot/WAL generation.
func (s *Store) Gen() uint32 { return s.inner.Gen() }

// WALRecords returns how many records the current WAL generation holds.
func (s *Store) WALRecords() int64 { return s.inner.WALRecords() }

// SnapshotBytes returns the size of the last snapshot this store wrote.
func (s *Store) SnapshotBytes() int64 { return s.inner.SnapshotBytes() }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.inner.Dir() }

// Facts returns how many facts the durable KB currently holds.
func (s *Store) Facts() int { return len(s.inner.KB().Facts) }

// Close releases the WAL handle. The directory stays recoverable.
func (s *Store) Close() error { return s.inner.Close() }

// Err returns the first persistence failure recorded during an
// expansion run, if any.
func (s *Store) Err() error { return s.err }

// inStep is what the store remembers of the table it last made durable:
// enough to tell, in O(1), that the next table it is handed still holds
// that table's rows untouched as a prefix, and so to log only what was
// appended or re-weighted instead of diffing every row against the
// mirror. The zero value means "out of step": the next sync diffs in
// full.
type inStep struct {
	// tpi is the synced table; the mirror held exactly its rows when
	// sync returned.
	tpi *engine.Table
	// lastID is the fact ID of tpi's last row at that moment. Fact IDs
	// grow strictly with the row index, and rows only ever leave a facts
	// table by order-preserving deletion, so a later table (tpi itself,
	// or a Clone of it that was then appended to) whose row len(w)-1
	// still carries lastID has lost and reordered nothing below it.
	lastID int32
	// w is the weight column as logged, row for row: the mirror's
	// weights, kept so re-weighted rows are found without the mirror.
	// It costs 8 bytes a fact; its length is the synced row count.
	w []float64
}

// covers reports whether tpi — the synced table itself, or a table
// grown from a Clone of it when from names the synced table — still
// holds the synced rows as its prefix.
func (st *inStep) covers(tpi, from *engine.Table) bool {
	if st.tpi == nil || (tpi != st.tpi && from != st.tpi) {
		return false
	}
	n := len(st.w)
	if tpi.NumRows() < n {
		return false
	}
	return n == 0 || tpi.Int32Col(kb.TPiI)[n-1] == st.lastID
}

// sync makes the store hold exactly the facts of tpi, rendered through
// src's dictionaries, by appending what differs: deletes for mirror
// facts the table dropped (constraint repairs), inserts in row order
// for rows the mirror lacks, and marginal updates in row order where
// only the weight bits changed (inference). Calling it again with an
// unchanged table appends nothing — which is what makes the
// per-iteration observer plus the final post-inference sync safe to
// combine.
//
// from, when non-nil, declares that tpi began as a Clone of that table
// (ground.Extend's first step). When the store is in step with tpi or
// with from and the synced prefix is provably untouched, the difference
// is read off the table alone — the appended rows and the prefix rows
// whose weight bits moved — at a cost proportional to the batch.
// Anything else (a run's first table, a resumed store, an iteration
// whose hook deleted synced rows) takes the full diff, which yields the
// same records in the same order.
func (s *Store) sync(src *kb.KB, tpi, from *engine.Table) error {
	if s.err != nil {
		return s.err
	}
	var dels, adds, margs []store.FactRec
	delta := s.step.covers(tpi, from)
	if delta {
		adds, margs = s.step.diff(src, tpi)
		s.deltaSyncs++
	} else {
		dels, adds, margs = s.fullDiff(src, tpi)
		s.fullSyncs++
	}
	// A failed append leaves the mirror between two tables; only a
	// completed sync puts the store back in step.
	step := s.step
	s.step = inStep{}
	if err := s.inner.AppendDeletes(dels); err != nil {
		return err
	}
	if err := s.inner.AppendFacts(adds); err != nil {
		return err
	}
	if err := s.inner.AppendMarginals(margs); err != nil {
		return err
	}
	ws := tpi.Float64Col(kb.TPiW)
	if delta {
		// diff already folded the re-weighted rows into the shadow.
		step.w = append(step.w, ws[len(step.w):]...)
	} else {
		step.w = append(step.w[:0], ws...)
	}
	step.tpi = tpi
	if n := tpi.NumRows(); n > 0 {
		step.lastID = tpi.Int32Col(kb.TPiI)[n-1]
	}
	s.step = step
	return nil
}

// diff is the in-step difference between tpi and the synced prefix it
// extends: inserts for the rows past the prefix, marginal updates for
// the prefix rows whose weight bits differ from the logged ones (which
// it brings up to date as it goes).
func (st *inStep) diff(src *kb.KB, tpi *engine.Table) (adds, margs []store.FactRec) {
	// The one pass over the table the delta path makes: a sequential
	// compare of two float columns, about a nanosecond a row.
	ws := tpi.Float64Col(kb.TPiW)[:len(st.w)]
	for r, w := range st.w {
		if math.Float64bits(w) != math.Float64bits(ws[r]) {
			margs = append(margs, store.FactRecOf(src, kb.FactAtRow(tpi, r)))
			st.w[r] = ws[r]
		}
	}
	for r := len(st.w); r < tpi.NumRows(); r++ {
		adds = append(adds, store.FactRecOf(src, kb.FactAtRow(tpi, r)))
	}
	return adds, margs
}

// fullDiff compares every row of tpi with the store's mirror. The
// mirror's dictionaries can assign different IDs than src's (src may
// have interned symbols the store never saw), so membership goes
// through symbols, not raw keys.
func (s *Store) fullDiff(src *kb.KB, tpi *engine.Table) (dels, adds, margs []store.FactRec) {
	mirror := s.inner.KB()
	seen := make([]bool, len(mirror.Facts))
	for r := 0; r < tpi.NumRows(); r++ {
		f := kb.FactAtRow(tpi, r)
		rec := store.FactRecOf(src, f)
		key, known := store.KeyOf(mirror, rec)
		i, ok := mirror.FactIndex(key)
		if !known || !ok {
			adds = append(adds, rec)
			continue
		}
		seen[i] = true
		if math.Float64bits(mirror.Facts[i].W) != math.Float64bits(f.W) {
			margs = append(margs, rec)
		}
	}
	for i, f := range mirror.Facts {
		if !seen[i] {
			dels = append(dels, store.FactRecOf(mirror, f))
		}
	}
	return dels, adds, margs
}

// persistFinal runs the end-of-phase sync (grounding result or
// inference marginals) and reports the first error the run hit.
func persistFinal(p *Store, src *kb.KB, tpi, from *engine.Table) error {
	if p == nil {
		return nil
	}
	if err := p.sync(src, tpi, from); err != nil {
		return fmt.Errorf("probkb: persisting expansion: %w", err)
	}
	return nil
}
