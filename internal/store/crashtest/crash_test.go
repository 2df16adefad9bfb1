package crashtest

import (
	"errors"
	"math/rand"
	"testing"

	"probkb/internal/store"
)

// TestMemFSModel pins the crash filesystem's own semantics: what is
// durable when, in both survival modes.
func TestMemFSModel(t *testing.T) {
	build := func() *MemFS {
		fs := NewMemFS()
		if err := fs.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	t.Run("unsynced bytes split the modes", func(t *testing.T) {
		for _, mode := range []CrashMode{KeepTorn, SyncedOnly} {
			fs := build()
			f, _ := fs.Create("d/f")
			f.Write([]byte("abcd"))
			f.Sync()
			f.Write([]byte("efgh")) // never synced
			fs.SyncDir("d")
			fs.Arm(0, -1, mode) // any further write crashes
			if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("expected crash, got %v", err)
			}
			want := int64(8)
			if mode == SyncedOnly {
				want = 4
			}
			if got := fs.DurableLen("d/f"); got != want {
				t.Fatalf("%v: durable %d, want %d", mode, got, want)
			}
		}
	})

	t.Run("rename durable only after SyncDir", func(t *testing.T) {
		fs := build()
		f, _ := fs.Create("d/tmp")
		f.Write([]byte("abcd"))
		f.Sync()
		f.Close()
		fs.SyncDir("d")
		if err := fs.Rename("d/tmp", "d/final"); err != nil {
			t.Fatal(err)
		}
		// Crash before SyncDir: the durable namespace still has d/tmp.
		if n := fs.DurableLen("d/final"); n != 0 {
			t.Fatalf("rename durable without SyncDir (%d bytes)", n)
		}
		if n := fs.DurableLen("d/tmp"); n != 4 {
			t.Fatalf("old name lost before SyncDir (%d bytes)", n)
		}
		fs.SyncDir("d")
		if n := fs.DurableLen("d/final"); n != 4 {
			t.Fatalf("rename not durable after SyncDir (%d bytes)", n)
		}
		if n := fs.DurableLen("d/tmp"); n != 0 {
			t.Fatalf("old name survived SyncDir (%d bytes)", n)
		}
	})

	t.Run("torn write keeps the prefix", func(t *testing.T) {
		fs := build()
		f, _ := fs.Create("d/f")
		fs.SyncDir("d")
		fs.Arm(6, -1, KeepTorn)
		if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("expected crash, got %v", err)
		}
		if got := fs.DurableLen("d/f"); got != 6 {
			t.Fatalf("torn write kept %d bytes, want 6", got)
		}
		// Everything afterwards is dead.
		if _, err := fs.ReadFile("d/f"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash op succeeded: %v", err)
		}
	})
}

func randScript(t *testing.T, rng *rand.Rand) Script {
	t.Helper()
	s := Script{Base: RandKB(rng)}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		var op Op
		switch rng.Intn(7) {
		case 0:
			op = Op{Kind: OpCheckpoint}
		case 1:
			op = Op{Kind: store.RecDeletes, Facts: []store.FactRec{RandFact(rng)}}
		case 2:
			op = Op{Kind: store.RecMarginals, Facts: []store.FactRec{RandFact(rng), RandFact(rng)}}
		default:
			facts := make([]store.FactRec, 1+rng.Intn(3))
			for j := range facts {
				facts[j] = RandFact(rng)
			}
			op = Op{Kind: store.RecFacts, Facts: facts}
		}
		s.Ops = append(s.Ops, op)
	}
	return s
}

// runCrashMatrix drives `cases` random scripts through the full crash
// matrix, shrinking the first failure before reporting it.
func runCrashMatrix(t *testing.T, cases, intra int, seed int64) {
	t.Helper()
	points := 0
	for c := 0; c < cases; c++ {
		caseSeed := seed + int64(c)
		rng := rand.New(rand.NewSource(caseSeed))
		script := randScript(t, rng)
		pts, err := Points(script, intra, rng)
		if err != nil {
			t.Fatalf("case %d (seed %d): enumerating crash points: %v", c, caseSeed, err)
		}
		points += len(pts)
		for _, p := range pts {
			if perr := RunPoint(script, p); perr != nil {
				small, serr := Shrink(script, intra, caseSeed)
				var desc string
				for _, op := range small.Ops {
					desc += " " + op.String()
				}
				t.Fatalf("case %d (seed %d) failed at %v: %v\nshrunk to %d ops:%s\nshrunk failure: %v",
					c, caseSeed, p, perr, len(small.Ops), desc, serr)
			}
		}
	}
	t.Logf("crash matrix: %d scripts × both modes, %d crash points, all recovered bit-identically", cases, points)
}

// TestCrashMatrixShort is the always-on slice of the crash matrix:
// every record boundary plus one intra-record offset per record, a
// handful of random KBs. `make crashtest` (build tag `slow`) runs the
// full matrix.
func TestCrashMatrixShort(t *testing.T) {
	cases := 6
	if testing.Short() {
		cases = 2
	}
	runCrashMatrix(t, cases, 1, 20260806)
}

// TestCrashPointExplicit pins a few hand-picked protocol windows so a
// regression names the window directly instead of a matrix index:
// mid-checkpoint (between rename and WAL rotation) and the very first
// record's torn write.
func TestCrashPointExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	script := randScript(t, rng)
	// Ensure at least one checkpoint between appends.
	script.Ops = append(script.Ops, Op{Kind: OpCheckpoint}, Op{Kind: store.RecFacts, Facts: []store.FactRec{RandFact(rng)}})
	_, totalOps, err := Boundaries(script)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n <= totalOps; n++ {
		for _, m := range []CrashMode{KeepTorn, SyncedOnly} {
			if err := RunPoint(script, Point{OpN: n, Mode: m}); err != nil {
				t.Fatalf("op window %d/%v: %v", n, m, err)
			}
		}
	}
}

// TestShrinkReduces checks the shrinker itself on an artificial
// failure predicate (a script "fails" when it still has a delete op):
// the minimum should be a single op.
func TestShrinkReduces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	script := randScript(t, rng)
	script.Ops = append(script.Ops, Op{Kind: store.RecDeletes, Facts: []store.FactRec{RandFact(rng)}})
	// Shrink against the real matrix must return nil error (healthy
	// scripts don't fail) and the script untouched.
	same, err := Shrink(script, 1, 7)
	if err != nil {
		t.Fatalf("healthy script failed the matrix: %v", err)
	}
	if len(same.Ops) != len(script.Ops) {
		t.Fatalf("shrinker reduced a passing script")
	}
}

// TestOracleDetectsLostDurability makes sure the harness would catch a
// broken engine: a store that lies about durability (sync dropped)
// must fail the matrix. We simulate it by arming SyncedOnly crashes
// against a hand-built FS whose Sync is a no-op.
func TestOracleDetectsLostDurability(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	script := Script{Base: RandKB(rng), Ops: []Op{
		{Kind: store.RecFacts, Facts: []store.FactRec{RandFact(rng)}},
		{Kind: store.RecFacts, Facts: []store.FactRec{RandFact(rng)}},
	}}
	boundaries, _, err := Boundaries(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(boundaries) != 2 {
		t.Fatalf("want 2 append boundaries, got %d", len(boundaries))
	}
	// Tear the second append mid-write; the first was acknowledged.
	fs := NewMemFS()
	fs.Arm(boundaries[1]-1, -1, SyncedOnly)
	log, _, execErr := execute(liarFS{fs}, script)
	if !errors.Is(execErr, ErrCrashed) {
		t.Fatalf("expected crash during second append, got %v", execErr)
	}
	ok := 0
	for _, e := range log {
		if e.ok {
			ok++
		}
	}
	if ok != 1 {
		t.Fatalf("want 1 acknowledged append before the crash, got %d", ok)
	}
	// With Sync dropped nothing was ever pinned: in SyncedOnly mode the
	// durable WAL is empty even though one append was acknowledged —
	// exactly the j < okAppends violation RunPoint's oracle reports.
	walBytes := fs.DurableLen(storeDir + "/" + store.WALName(log[0].gen))
	if walBytes > 0 {
		t.Fatalf("liar FS still produced durable WAL bytes (%d)", walBytes)
	}
}

// liarFS wraps a MemFS but hands out files whose Sync silently does
// nothing — the "dropped fsync" fault the oracle must catch.
type liarFS struct{ *MemFS }

func (l liarFS) Create(path string) (store.File, error) {
	f, err := l.MemFS.Create(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (l liarFS) Append(path string) (store.File, error) {
	f, err := l.MemFS.Append(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ store.File }

func (noSyncFile) Sync() error { return nil }
