package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"probkb/internal/kb"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

func init() {
	obs.Default.Help("probkb_store_snapshot_bytes", "Size of the last columnar KB snapshot written, in bytes.")
	obs.Default.Help("probkb_store_wal_records_total", "WAL records appended by the storage engine.")
	obs.Default.Help("probkb_store_recovery_seconds", "Duration of the last snapshot-load + WAL-replay recovery.")
}

// Store is a durable KB: a columnar snapshot plus an append-only WAL
// for everything after it. It owns a live in-memory mirror that every
// append is applied to through the same ApplyRecord used at replay
// time, so Open always reconstructs exactly the mirror as of the last
// durable record — the crash harness checks that equality bit-wise.
//
// Generations make checkpoints crash-safe without truncating in place:
// the snapshot's meta table names the WAL generation it supersedes
// everything before, and a checkpoint atomically publishes snapshot
// gen+1 before retiring wal.<gen>. At every crash point the directory
// holds one complete snapshot and (at most) the WAL it points to.
//
// A Store is not safe for concurrent use; callers serialize, as the
// expansion pipeline already does for the KB itself. The one exception
// is the three counters Gen, WALRecords and SnapshotBytes: they are
// atomics, because handlers and the WAL-growth watchdog poll them from
// goroutines that do not hold the writer's lock.
type Store struct {
	fs        FS
	dir       string
	k         *kb.KB
	gen       atomic.Uint32
	wal       File
	nrec      atomic.Int64 // records in the current WAL generation
	snapBytes atomic.Int64 // size of the last snapshot written

	jr *journal.Writer
}

// Create initializes dir (created if missing) with a snapshot of k at
// generation 1 and an empty WAL. The store clones k: later mutations
// of the caller's KB do not leak into the mirror.
func Create(fs FS, dir string, k *kb.KB) (*Store, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{fs: fs, dir: dir, k: k.Clone()}
	s.gen.Store(1)
	if err := s.writeSnapshotAndRotate(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// SetJournal attaches a run journal; snapshot_written and wal_replayed
// events are emitted to it from now on. A nil writer is fine.
func (s *Store) SetJournal(jr *journal.Writer) { s.jr = jr }

// KB returns the live mirror. Callers must treat it as read-only;
// mutations go through the Append methods.
func (s *Store) KB() *kb.KB { return s.k }

// Gen returns the current WAL generation.
func (s *Store) Gen() uint32 { return s.gen.Load() }

// WALRecords returns how many records the current generation holds.
func (s *Store) WALRecords() int64 { return s.nrec.Load() }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// SnapshotBytes returns the size of the last snapshot this Store wrote
// (zero for a store opened and not yet checkpointed).
func (s *Store) SnapshotBytes() int64 { return s.snapBytes.Load() }

// Open recovers a Store from dir: load the snapshot, replay the
// durable prefix of its WAL generation, truncate any torn tail, and
// resume appending after it.
func Open(fs FS, dir string) (*Store, error) {
	return OpenContext(context.Background(), fs, dir, nil)
}

// OpenContext is Open with a tracing context and an optional journal
// for the wal_replayed event.
func OpenContext(ctx context.Context, fs FS, dir string, jr *journal.Writer) (*Store, error) {
	_, span := obs.StartSpan(ctx, "store.recover")
	defer span.End()
	start := time.Now()

	k, gen, err := ReadSnapshot(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	s := &Store{fs: fs, dir: dir, k: k, jr: jr}
	s.gen.Store(gen)

	// A crash between "write tmp" and "rename" can leave the temp file
	// behind; it is dead weight either way.
	if ok, _ := fs.Exists(join(dir, snapTmpFile)); ok {
		_ = fs.Remove(join(dir, snapTmpFile))
		_ = fs.SyncDir(dir)
	}

	walPath := join(dir, WALName(gen))
	var truncated int64
	if ok, err := fs.Exists(walPath); err != nil {
		return nil, err
	} else if ok {
		data, err := fs.ReadFile(walPath)
		if err != nil {
			return nil, err
		}
		recs, validLen, err := DecodeWAL(data)
		if err != nil {
			return nil, fmt.Errorf("store: replaying %s: %w", WALName(gen), err)
		}
		for _, rec := range recs {
			if err := ApplyRecord(s.k, rec); err != nil {
				return nil, err
			}
		}
		s.nrec.Store(int64(len(recs)))
		if validLen < len(data) {
			truncated = int64(len(data) - validLen)
			if err := fs.Truncate(walPath, int64(validLen)); err != nil {
				return nil, err
			}
		}
	}
	// A missing WAL file is an empty one: a checkpoint crash can
	// publish the new snapshot before the new WAL file exists.
	wal, err := fs.Append(walPath)
	if err != nil {
		return nil, err
	}
	s.wal = wal

	elapsed := obs.Since(start)
	span.SetAttr("gen", int(gen))
	span.SetAttr("records", int(s.nrec.Load()))
	obs.Default.Gauge("probkb_store_recovery_seconds").Set(elapsed)
	jr.Emit(journal.TypeWALReplayed, journal.WALReplayed{
		Gen: gen, Records: s.nrec.Load(), TruncatedBytes: truncated,
		Facts: len(s.k.Facts), Seconds: elapsed,
	})
	return s, nil
}

// AppendFacts logs weighted fact inserts. Durable when it returns.
func (s *Store) AppendFacts(facts []FactRec) error {
	return s.append(Record{Type: RecFacts, Facts: facts})
}

// AppendDeletes logs fact deletions by key.
func (s *Store) AppendDeletes(facts []FactRec) error {
	return s.append(Record{Type: RecDeletes, Facts: facts})
}

// AppendMarginals logs inferred marginal probabilities as weight
// assignments.
func (s *Store) AppendMarginals(facts []FactRec) error {
	return s.append(Record{Type: RecMarginals, Facts: facts})
}

func (s *Store) append(rec Record) error {
	if len(rec.Facts) == 0 {
		return nil
	}
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.wal.Write(EncodeRecord(rec)); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	// The record is durable; now mirror it. Apply cannot fail for
	// records we just built (only unknown types error).
	if err := ApplyRecord(s.k, rec); err != nil {
		return err
	}
	s.nrec.Add(1)
	obs.Default.Counter("probkb_store_wal_records_total").Inc()
	return nil
}

// Checkpoint rewrites the snapshot at generation+1 and starts a fresh
// WAL, retiring the old one. Crash-safe at every step: until the
// rename lands the old snapshot+WAL pair stays authoritative, and
// after it the new snapshot ignores the old WAL entirely.
func (s *Store) Checkpoint() error {
	return s.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint with a tracing context.
func (s *Store) CheckpointContext(ctx context.Context) error {
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	_, span := obs.StartSpan(ctx, "store.snapshot")
	defer span.End()
	start := time.Now()

	if err := s.writeSnapshotAndRotate(s.wal); err != nil {
		return err
	}
	gen := s.gen.Add(1)
	s.nrec.Store(0)

	elapsed := obs.Since(start)
	span.SetAttr("gen", int(gen))
	span.SetAttr("facts", len(s.k.Facts))
	s.jr.Emit(journal.TypeSnapshotWritten, journal.SnapshotWritten{
		Gen: gen, Bytes: s.snapBytes.Load(), Facts: len(s.k.Facts), Seconds: elapsed,
	})
	return nil
}

// writeSnapshotAndRotate publishes a snapshot and its fresh WAL: for
// Create (oldWAL nil) it writes generation s.gen; for Checkpoint it
// writes s.gen+1, swaps WAL handles, and retires the old file.
func (s *Store) writeSnapshotAndRotate(oldWAL File) error {
	gen := s.gen.Load()
	newGen := gen
	if oldWAL != nil {
		newGen = gen + 1
	}
	n, err := WriteSnapshot(s.fs, s.dir, s.k, newGen)
	if err != nil {
		return err
	}
	obs.Default.Gauge("probkb_store_snapshot_bytes").Set(float64(n))
	s.snapBytes.Store(n)

	// The new snapshot is durable and names wal.<newGen>; create it
	// empty. If we crash before this lands, recovery treats the
	// missing file as empty — same state.
	w, err := s.fs.Create(join(s.dir, WALName(newGen)))
	if err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	if oldWAL != nil {
		oldWAL.Close()
		if ok, _ := s.fs.Exists(join(s.dir, WALName(gen))); ok {
			_ = s.fs.Remove(join(s.dir, WALName(gen)))
			_ = s.fs.SyncDir(s.dir)
		}
	}
	wal, err := s.fs.Append(join(s.dir, WALName(newGen)))
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// Close releases the WAL handle. The store stays recoverable: the last
// durable state is whatever the last synced append left.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
