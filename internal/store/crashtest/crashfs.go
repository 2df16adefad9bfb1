// Package crashtest proves the storage engine crash-safe: an in-memory
// filesystem with injectable crash points (torn writes, lost unsynced
// bytes, interrupted renames) drives internal/store through every
// reachable failure offset, and a differential oracle asserts that
// recovery lands bit-identically on the last durable state — the same
// shrink-on-failure style as internal/proptest, aimed at durability
// instead of query plans.
package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"probkb/internal/store"
)

// ErrCrashed is returned by every MemFS operation after the injected
// crash fires, modeling a dead process: nothing else reaches the disk.
var ErrCrashed = errors.New("crashtest: simulated crash")

// CrashMode selects what survives of bytes written but never fsynced.
type CrashMode int

const (
	// KeepTorn keeps every byte physically written before the crash,
	// including the torn prefix of the in-flight write — the disk
	// absorbed appends in order, the cut lands mid-record.
	KeepTorn CrashMode = iota
	// SyncedOnly drops everything after the last successful Sync — the
	// adversarial page-cache model, which also catches code that
	// reports durability without having called Sync at all.
	SyncedOnly
)

func (m CrashMode) String() string {
	if m == SyncedOnly {
		return "synced-only"
	}
	return "keep-torn"
}

// inode is one file's content. The namespace maps (current vs durable)
// share inodes; data is what the application sees, syncedLen what Sync
// has pinned.
type inode struct {
	data      []byte
	syncedLen int
}

// MemFS is a crash-injecting in-memory store.FS.
//
// Durability model, matching the contract documented on store.FS:
// bytes survive a crash per the CrashMode; namespace operations
// (Create, Rename, Remove) apply to the current view immediately but
// reach the durable view only when SyncDir covers their directory.
//
// Crash injection: ByteBudget kills the writer after that many bytes
// across all Write calls (mid-call writes keep their torn prefix);
// OpBudget kills it before the Nth filesystem operation, covering the
// windows between the steps of the checkpoint protocol. Whichever
// fires first wins; zero budgets never fire.
type MemFS struct {
	mu      sync.Mutex
	mode    CrashMode
	crashed bool

	byteBudget int64 // remaining write bytes; <0 = unlimited
	opBudget   int64 // remaining ops; <0 = unlimited

	cur  map[string]*inode // application-visible namespace
	dur  map[string]*inode // namespace as of the covering SyncDir
	dirs map[string]bool

	bytesWritten int64
	ops          int64
}

// NewMemFS returns a MemFS with no crash armed.
func NewMemFS() *MemFS {
	return &MemFS{
		mode:       KeepTorn,
		byteBudget: -1, opBudget: -1,
		cur:  map[string]*inode{},
		dur:  map[string]*inode{},
		dirs: map[string]bool{},
	}
}

// Arm schedules the crash: after byteBudget written bytes or before
// the opBudget-th operation, whichever comes first (negative budgets
// never fire), with the given survival mode.
func (m *MemFS) Arm(byteBudget, opBudget int64, mode CrashMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byteBudget, m.opBudget, m.mode = byteBudget, opBudget, mode
}

// BytesWritten returns the total bytes passed to Write so far; the
// harness reads it after a clean run to enumerate crash offsets.
func (m *MemFS) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesWritten
}

// Ops returns the total operation count, the op-crash analogue of
// BytesWritten.
func (m *MemFS) Ops() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// DurableView returns a fresh, un-armed MemFS holding exactly what
// survived the crash: the durable namespace, and per CrashMode either
// all physically written bytes or only the synced prefix. Recovery
// runs against the view, never against the crashed instance.
func (m *MemFS) DurableView() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := NewMemFS()
	for d := range m.dirs {
		v.dirs[d] = true
	}
	for path, ino := range m.dur {
		data := ino.data
		if m.mode == SyncedOnly {
			data = data[:ino.syncedLen]
		}
		n := &inode{data: append([]byte(nil), data...)}
		n.syncedLen = len(n.data)
		v.cur[path] = n
		v.dur[path] = n
	}
	return v
}

// DurableLen returns the surviving byte length of path in the durable
// view (0 if absent) — the oracle uses it to count durable WAL records
// without re-running recovery.
func (m *MemFS) DurableLen(path string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.dur[path]
	if !ok {
		return 0
	}
	if m.mode == SyncedOnly {
		return int64(ino.syncedLen)
	}
	return int64(len(ino.data))
}

// DurableFiles lists the durable namespace, for debugging failed cases.
func (m *MemFS) DurableFiles() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path, ino := range m.dur {
		n := len(ino.data)
		if m.mode == SyncedOnly {
			n = ino.syncedLen
		}
		names = append(names, fmt.Sprintf("%s[%d]", path, n))
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// step charges one operation against the op budget. Callers hold mu.
func (m *MemFS) step() error {
	if m.crashed {
		return ErrCrashed
	}
	if m.opBudget == 0 {
		m.crashed = true
		return ErrCrashed
	}
	if m.opBudget > 0 {
		m.opBudget--
	}
	m.ops++
	return nil
}

// MkdirAll implements store.FS.
func (m *MemFS) MkdirAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	m.dirs[path] = true
	return nil
}

// Create implements store.FS: a fresh inode in the current namespace
// (the durable view keeps the old one until SyncDir).
func (m *MemFS) Create(path string) (store.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	ino := &inode{}
	m.cur[path] = ino
	return &memFile{fs: m, ino: ino}, nil
}

// Append implements store.FS.
func (m *MemFS) Append(path string) (store.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	ino, ok := m.cur[path]
	if !ok {
		ino = &inode{}
		m.cur[path] = ino
	}
	return &memFile{fs: m, ino: ino}, nil
}

// Open implements store.FS.
func (m *MemFS) Open(path string) (io.ReadCloser, error) {
	data, err := m.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// ReadFile implements store.FS.
func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	ino, ok := m.cur[path]
	if !ok {
		return nil, fmt.Errorf("crashtest: %s: %w", path, errNotExist)
	}
	return append([]byte(nil), ino.data...), nil
}

var errNotExist = errors.New("file does not exist")

// Rename implements store.FS: atomic in the current namespace; durable
// only after SyncDir.
func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	ino, ok := m.cur[oldPath]
	if !ok {
		return fmt.Errorf("crashtest: rename %s: %w", oldPath, errNotExist)
	}
	delete(m.cur, oldPath)
	m.cur[newPath] = ino
	return nil
}

// Remove implements store.FS.
func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	if _, ok := m.cur[path]; !ok {
		return fmt.Errorf("crashtest: remove %s: %w", path, errNotExist)
	}
	delete(m.cur, path)
	return nil
}

// Truncate implements store.FS. Content changes act on the inode both
// views share — recovery's torn-tail truncation is idempotent, so
// modeling it as immediately durable loses no coverage.
func (m *MemFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	ino, ok := m.cur[path]
	if !ok {
		return fmt.Errorf("crashtest: truncate %s: %w", path, errNotExist)
	}
	if size < 0 || size > int64(len(ino.data)) {
		return fmt.Errorf("crashtest: truncate %s to %d of %d", path, size, len(ino.data))
	}
	ino.data = ino.data[:size]
	if ino.syncedLen > int(size) {
		ino.syncedLen = int(size)
	}
	return nil
}

// Exists implements store.FS.
func (m *MemFS) Exists(path string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return false, err
	}
	_, ok := m.cur[path]
	return ok, nil
}

// SyncDir implements store.FS: the durable namespace under dir catches
// up with the current one.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	prefix := dir + "/"
	for path := range m.dur {
		if strings.HasPrefix(path, prefix) {
			if _, ok := m.cur[path]; !ok {
				delete(m.dur, path)
			}
		}
	}
	for path, ino := range m.cur {
		if strings.HasPrefix(path, prefix) {
			m.dur[path] = ino
		}
	}
	return nil
}

// memFile is a handle on an inode.
type memFile struct {
	fs     *MemFS
	ino    *inode
	closed bool
}

// Write appends, charging the byte budget; a mid-call exhaustion keeps
// the torn prefix and fires the crash.
func (f *memFile) Write(b []byte) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return 0, err
	}
	if f.closed {
		return 0, errors.New("crashtest: write to closed file")
	}
	n := len(b)
	if m.byteBudget >= 0 && int64(n) > m.byteBudget {
		n = int(m.byteBudget)
		f.ino.data = append(f.ino.data, b[:n]...)
		m.bytesWritten += int64(n)
		m.byteBudget = 0
		m.crashed = true
		return n, ErrCrashed
	}
	if m.byteBudget > 0 {
		m.byteBudget -= int64(n)
	}
	f.ino.data = append(f.ino.data, b...)
	m.bytesWritten += int64(n)
	return n, nil
}

// Sync pins the file's current length as surviving SyncedOnly crashes.
func (f *memFile) Sync() error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	if f.closed {
		return errors.New("crashtest: sync of closed file")
	}
	f.ino.syncedLen = len(f.ino.data)
	return nil
}

// Close implements store.File. Closing after a crash is allowed (and
// a no-op): recovery paths close handles unconditionally.
func (f *memFile) Close() error {
	f.closed = true
	return nil
}
