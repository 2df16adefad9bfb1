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
// OpenStore, or the live mirror of everything appended so far — as a
// Fork of the mirror: neither side's later writes reach the other.
func (s *Store) KB() *KB { return &KB{inner: s.inner.KB().Fork()} }

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
func (s *Store) Facts() int { return s.inner.KB().NumFacts() }

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
	// tpi is the synced table; the mirror held exactly its first n rows
	// when sync returned.
	tpi *engine.Table
	n   int
	// lastID is the fact ID of tpi's row n-1 at that moment. Fact IDs
	// grow strictly with the row index, and rows only ever leave a facts
	// table by order-preserving deletion, so a later table (tpi itself,
	// or a Fork of it that was then appended to) whose row n-1 still
	// carries lastID has lost and reordered nothing below it.
	lastID int32
}

// covers reports whether tpi — the synced table itself, or a table
// grown from a Fork of it when from names the synced table — still
// holds the synced rows as its prefix.
func (st *inStep) covers(tpi, from *engine.Table) bool {
	if st.tpi == nil || (tpi != st.tpi && from != st.tpi) {
		return false
	}
	if tpi.NumRows() < st.n {
		return false
	}
	return st.n == 0 || tpi.Int32Col(kb.TPiI)[st.n-1] == st.lastID
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
// from, when non-nil, declares that tpi began as a Fork of that table
// (ground.Extend's first step); wrote lists, ascending, the rows whose
// weights the caller wrote since the last sync (inference's pending
// rows; grounding writes no weight of a row it did not append). When
// the store is in step with tpi or with from and the synced prefix is
// provably untouched, the difference is read off those alone — inserts
// for the rows past the prefix, marginal updates for the written prefix
// rows whose weight bits differ from the mirror's — at a cost
// proportional to the batch. Anything else (a run's first table, a
// resumed store, an iteration whose hook deleted synced rows) takes the
// full diff, which yields the same records in the same order.
func (s *Store) sync(src *kb.KB, tpi, from *engine.Table, wrote []int32) error {
	if s.err != nil {
		return s.err
	}
	var dels, adds, margs []store.FactRec
	if s.step.covers(tpi, from) {
		adds, margs = s.diff(src, tpi, wrote)
		s.deltaSyncs++
	} else {
		dels, adds, margs = s.fullDiff(src, tpi)
		s.fullSyncs++
	}
	// A failed append leaves the mirror between two tables; only a
	// completed sync puts the store back in step.
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
	s.step = inStep{tpi: tpi, n: tpi.NumRows()}
	if s.step.n > 0 {
		s.step.lastID = tpi.Int32Col(kb.TPiI)[s.step.n-1]
	}
	return nil
}

// diff is the in-step difference between tpi and the synced prefix it
// extends: inserts for the rows past the prefix, marginal updates for
// the rows of wrote inside it whose weight bits differ from the
// mirror's.
func (s *Store) diff(src *kb.KB, tpi *engine.Table, wrote []int32) (adds, margs []store.FactRec) {
	mirror := s.inner.KB()
	n := s.step.n
	for _, r := range wrote {
		if int(r) >= n {
			break
		}
		f := kb.FactAtRow(tpi, int(r))
		rec := store.FactRecOf(src, f)
		key, known := store.KeyOf(mirror, rec)
		i, ok := mirror.FactIndex(key)
		if !known || !ok {
			panic(fmt.Sprintf("probkb: row %d of a table the store is in step with is not in its mirror", r))
		}
		if math.Float64bits(mirror.FactAt(i).W) != math.Float64bits(f.W) {
			margs = append(margs, rec)
		}
	}
	for r := n; r < tpi.NumRows(); r++ {
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
	seen := make([]bool, mirror.NumFacts())
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
		if math.Float64bits(mirror.FactAt(i).W) != math.Float64bits(f.W) {
			margs = append(margs, rec)
		}
	}
	for i, kept := range seen {
		if !kept {
			dels = append(dels, store.FactRecOf(mirror, mirror.FactAt(i)))
		}
	}
	return dels, adds, margs
}

// persistFinal runs the end-of-phase sync (grounding result or
// inference marginals, with the rows inference wrote) and reports the
// first error the run hit.
func persistFinal(p *Store, src *kb.KB, tpi, from *engine.Table, wrote []int32) error {
	if p == nil {
		return nil
	}
	if err := p.sync(src, tpi, from, wrote); err != nil {
		return fmt.Errorf("probkb: persisting expansion: %w", err)
	}
	return nil
}
