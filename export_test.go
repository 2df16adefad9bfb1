package probkb

import (
	"probkb/internal/engine"
	"probkb/internal/kb"
)

// Doors for the external bench_test.go (package probkb_test), which
// builds its KBs and tables from the internal packages directly.

// WrapKB adopts an internal KB as an API-level one.
func WrapKB(k *kb.KB) *KB { return &KB{inner: k} }

// SyncTable is Store.sync. forget first knocks the store out of step,
// which forces the full diff — the oracle the delta path is measured
// against.
func (s *Store) SyncTable(src *kb.KB, tpi *engine.Table, forget bool) error {
	if forget {
		s.step = inStep{}
	}
	return s.sync(src, tpi, nil, nil)
}

// FactIDs is the ID column of k's facts table, for tests that ask
// whether two KBs share their fact arrays.
func FactIDs(k *KB) []int32 { return k.inner.FactsTable().Int32Col(kb.TPiI) }
