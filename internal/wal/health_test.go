package wal_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"maxoid/internal/fault"
	"maxoid/internal/health"
	"maxoid/internal/metrics"
	"maxoid/internal/testutil"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
)

// openHealthEnv opens a MemStorage-backed env with a tight retry
// budget, no-op retry sleep, and a metrics registry — the standard
// fixture for degradation tests.
func openHealthEnv(t *testing.T) (*testutil.DurableEnv, *wal.MemStorage, *metrics.Registry) {
	t.Helper()
	st := wal.NewMemStorage()
	reg := metrics.NewRegistry()
	env, err := testutil.OpenDurableWith(st, "main", func(cfg *wal.Config) {
		cfg.Metrics = reg
		cfg.MaxRetries = 2
		cfg.RetryBackoff = time.Nanosecond
		cfg.RetrySleep = func(time.Duration) {}
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return env, st, reg
}

func TestTransientAppendRetriesAndRecovers(t *testing.T) {
	env, _, reg := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 2)

	// One transient append fault: absorbed by retry, the write succeeds
	// and the store returns to Healthy via ReportSuccess.
	fault.Enable(1, fault.Spec{Point: "wal.append.transient", Prob: 1, Times: 1, Op: fault.OpTransient})
	defer fault.Disable()
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v3")
	if got := env.Store.Health(); got != health.Healthy {
		t.Fatalf("health after absorbed fault = %v, want healthy", got)
	}
	if reg.Counter("wal.retries").Total() == 0 {
		t.Fatal("wal.retries counter did not move")
	}
	reopen(t, env)
	if rows := kvRows(t, env.DB); len(rows) != 3 {
		t.Fatalf("recovered %d rows, want 3", len(rows))
	}
}

func TestTransientExhaustionDropsToReadOnly(t *testing.T) {
	env, _, reg := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 2)

	fault.Enable(1, fault.Spec{Point: "wal.append.transient", Prob: 1, Op: fault.OpTransient})
	_, err := env.DB.Exec("INSERT INTO kv (v) VALUES (?)", "v3")
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("exhausted insert err = %v, want ErrTransient", err)
	}
	fault.Disable()

	if got := env.Store.Health(); got != health.ReadOnly {
		t.Fatalf("health = %v, want read-only", got)
	}
	if env.Store.Writable() {
		t.Fatal("read-only store reports Writable")
	}
	if g, ok := reg.Gauges()["wal.health"]; !ok || g != int64(health.ReadOnly) {
		t.Fatalf("wal.health gauge = %d, want %d", g, int64(health.ReadOnly))
	}

	// Subsequent DB writes are rejected at the gate: typed ErrReadOnly,
	// and provably pre-mutation — the table is unchanged.
	if _, err := env.DB.Exec("INSERT INTO kv (v) VALUES (?)", "v4"); !errors.Is(err, health.ErrReadOnly) {
		t.Fatalf("gated insert err = %v, want ErrReadOnly", err)
	}
	// The exhausted insert mutated memory (residue, never acked); the
	// gated one must not have.
	if rows := kvRows(t, env.DB); len(rows) != 3 {
		t.Fatalf("in-memory rows = %d, want 3 (residue insert only)", len(rows))
	}

	// FS writes are rejected with the same typed error, also pre-mutation.
	if err := vfs.WriteFile(env.FS, vfs.Root, "/f", []byte("x"), 0o666); !errors.Is(err, health.ErrReadOnly) {
		t.Fatalf("gated fs write err = %v, want ErrReadOnly", err)
	}
	if _, err := vfs.ReadFile(env.FS, vfs.Root, "/f"); err == nil {
		t.Fatal("gated create left the file behind")
	}
	if reg.Counter("wal.degraded.rejects").Total() == 0 {
		t.Fatal("wal.degraded.rejects counter did not move")
	}

	// Reads keep serving throughout.
	if rows := kvRows(t, env.DB); len(rows) != 3 {
		t.Fatalf("reads broken while read-only: %d rows", len(rows))
	}

	// Snapshot while read-only is a durable write: typed rejection.
	if err := env.Store.Snapshot(); !errors.Is(err, health.ErrReadOnly) {
		t.Fatalf("snapshot while read-only = %v, want ErrReadOnly", err)
	}

	// A crash at this point must not surface the residue row: it was
	// never acknowledged, and the durable prefix ends before it.
	reopen(t, env)
	if rows := kvRows(t, env.DB); len(rows) != 2 {
		t.Fatalf("recovered %d rows, want 2 (residue discarded)", len(rows))
	}
	if got := env.Store.Health(); got != health.Healthy {
		t.Fatalf("health after reopen = %v, want healthy", got)
	}
}

func TestHealFoldsResidueAndRestoresService(t *testing.T) {
	env, st, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 2)

	// Exhaust fsync retries: the record is appended (memory mutated) but
	// never acknowledged durable.
	fault.Enable(1, fault.Spec{Point: "wal.fsync.transient", Prob: 1, Op: fault.OpTransient})
	if _, err := env.DB.Exec("INSERT INTO kv (v) VALUES (?)", "v3"); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("fsync-exhausted insert err = %v, want ErrTransient", err)
	}
	fault.Disable()
	if got := env.Store.Health(); got != health.ReadOnly {
		t.Fatalf("health = %v, want read-only", got)
	}

	// The fault cleared: Heal reconciles memory with disk (fresh
	// snapshot + empty WAL) and restores Healthy.
	if err := env.Store.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if got := env.Store.Health(); got != health.Healthy {
		t.Fatalf("health after heal = %v, want healthy", got)
	}

	// Writes flow again and the healed state includes the residue row —
	// it was folded into the snapshot, so memory and disk agree.
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v4")
	reopen(t, env)
	if rows := kvRows(t, env.DB); len(rows) != 4 {
		t.Fatalf("recovered %d rows after heal, want 4", len(rows))
	}
	if _, err := st.ReadFile("snapshot"); err != nil {
		t.Fatalf("heal did not publish a snapshot: %v", err)
	}
}

func TestScrubDetectsLostDurableRecords(t *testing.T) {
	env, st, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 3)

	// Sanity: a clean store scrubs clean.
	if err := env.Store.ScrubOnce(); err != nil {
		t.Fatalf("clean scrub: %v", err)
	}

	// Chop acknowledged frames off the WAL behind the store's back —
	// the disk "losing" synced writes. Scrub must detect the hole and
	// poison the store.
	data := readFile(t, st, "wal")
	rewrite(t, st, "wal", data[:len(data)/2])
	err := env.Store.ScrubOnce()
	if !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("scrub of truncated wal = %v, want ErrBroken", err)
	}
	if got := env.Store.Health(); got != health.Poisoned {
		t.Fatalf("health = %v, want poisoned", got)
	}
	// Poisoned is terminal: heal must refuse.
	if err := env.Store.Heal(); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("heal of poisoned store = %v, want ErrBroken", err)
	}
}

// TestScrubDetectsRemovedLog: the scrub reads the WAL through its
// name, as recovery does, so a WAL removed or replaced behind the
// store's back — one the log's open handle would still read — poisons
// the store.
func TestScrubDetectsRemovedLog(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(t *testing.T, st *wal.MemStorage)
	}{
		{"removed", func(t *testing.T, st *wal.MemStorage) { st.Remove("wal") }},
		{"replaced", func(t *testing.T, st *wal.MemStorage) {
			data := readFile(t, st, "wal")
			rewrite(t, st, "wal.new", data[:len(data)/2])
			if err := st.Rename("wal.new", "wal"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, st, _ := openHealthEnv(t)
			defer env.Close()
			seedKV(t, env, 3)
			tc.lose(t, st)
			if err := env.Store.ScrubOnce(); !errors.Is(err, wal.ErrBroken) {
				t.Fatalf("scrub of a %s wal = %v, want ErrBroken", tc.name, err)
			}
			if got := env.Store.Health(); got != health.Poisoned {
				t.Fatalf("health = %v, want poisoned", got)
			}
		})
	}
}

// walReads wraps a storage and counts the bytes read from the WAL file
// by name.
type walReads struct {
	wal.Storage
	n int
}

func (s *walReads) ReadFile(name string) ([]byte, error) {
	b, err := s.Storage.ReadFile(name)
	if name == "wal" {
		s.n += len(b)
	}
	return b, err
}

func (s *walReads) ReadPrefix(name string, n int64) ([]byte, error) {
	b, err := s.Storage.ReadPrefix(name, n)
	if name == "wal" {
		s.n += len(b)
	}
	return b, err
}

// TestScrubReadsOnlyLiveLog: a checkpoint rewinds the WAL in place, so
// the file keeps its high-water size; a scrub reads only the live log
// before it, not the stale frames past it.
func TestScrubReadsOnlyLiveLog(t *testing.T) {
	st := &walReads{Storage: wal.NewMemStorage()}
	env, err := testutil.OpenDurable(st, "main")
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	mustExec(t, env.DB, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 200; i++ {
		mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", strings.Repeat("x", 200))
	}
	if err := env.Store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "live")
	}
	file := len(readFile(t, st, "wal"))
	_, live, err := wal.LiveTail(st)
	if err != nil {
		t.Fatal(err)
	}
	if live*10 > file {
		t.Fatalf("live log %d bytes of a %d-byte file: no large stale tail", live, file)
	}
	st.n = 0
	if err := env.Store.ScrubOnce(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if st.n != live {
		t.Errorf("scrub read %d bytes of the WAL, want the %d live ones (file: %d bytes)", st.n, live, file)
	}
}

func TestScrubDetectsSnapshotCorruption(t *testing.T) {
	env, st, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 3)
	if err := env.Store.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := env.Store.ScrubOnce(); err != nil {
		t.Fatalf("clean scrub: %v", err)
	}

	// Flip a byte inside the published snapshot: CRC verification must
	// catch it and poison the store.
	snap := readFile(t, st, "snapshot")
	snap[len(snap)/2] ^= 0x01
	rewrite(t, st, "snapshot", snap)
	if err := env.Store.ScrubOnce(); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("scrub of corrupt snapshot = %v, want ErrBroken", err)
	}
	if got := env.Store.Health(); got != health.Poisoned {
		t.Fatalf("health = %v, want poisoned", got)
	}
}

func TestScrubTransientFaultDegrades(t *testing.T) {
	env, _, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 1)

	fault.Enable(1, fault.Spec{Point: "wal.scrub", Prob: 1, Times: 1, Op: fault.OpTransient})
	defer fault.Disable()
	if err := env.Store.ScrubOnce(); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("scrub err = %v, want ErrTransient", err)
	}
	if got := env.Store.Health(); got != health.Degrading {
		t.Fatalf("health = %v, want degrading", got)
	}
	// Degrading still accepts writes (they are being retried, not shed).
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v2")
	// The next clean scrub plus Heal returns the store to Healthy.
	if err := env.Store.ScrubOnce(); err != nil {
		t.Fatalf("clean scrub after fault: %v", err)
	}
	if err := env.Store.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if got := env.Store.Health(); got != health.Healthy {
		t.Fatalf("health = %v, want healthy", got)
	}
}

func TestScrubPermanentFaultPoisons(t *testing.T) {
	env, _, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 1)

	fault.Enable(1, fault.Spec{Point: "wal.scrub", Prob: 1, Times: 1})
	defer fault.Disable()
	if err := env.Store.ScrubOnce(); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("scrub err = %v, want ErrBroken", err)
	}
	if got := env.Store.Health(); got != health.Poisoned {
		t.Fatalf("health = %v, want poisoned", got)
	}
}

// TestPoisonedStoreOperations is the satellite-1 regression: every
// durable entry point on a poisoned store must return ErrBroken
// immediately — in particular Snapshot must never attempt a publish
// over a corrupt tail, and Close must not report a clean shutdown.
func TestPoisonedStoreOperations(t *testing.T) {
	env, st, _ := openHealthEnv(t)
	seedKV(t, env, 2)

	// Poison via an injected permanent append fault (torn frame).
	fault.Enable(1, fault.Spec{Point: "wal.append", Prob: 1, Times: 1, Op: fault.OpPartial, Frac: 0.5})
	if _, err := env.DB.Exec("INSERT INTO kv (v) VALUES (?)", "v3"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn insert err = %v, want injected", err)
	}
	fault.Disable()
	if env.Store.Broken() == nil {
		t.Fatal("store not poisoned after torn append")
	}
	if got := env.Store.Health(); got != health.Poisoned {
		t.Fatalf("health = %v, want poisoned", got)
	}

	snapBefore, snapErrBefore := st.ReadFile("snapshot")
	if err := env.Store.Snapshot(); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("Snapshot on poisoned store = %v, want ErrBroken", err)
	}
	// No publish may have happened: the snapshot file is bit-identical
	// to before (here: still absent).
	snapAfter, snapErrAfter := st.ReadFile("snapshot")
	if string(snapBefore) != string(snapAfter) || (snapErrBefore == nil) != (snapErrAfter == nil) {
		t.Fatal("Snapshot on poisoned store touched the snapshot file")
	}
	if err := env.Store.ScrubOnce(); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("ScrubOnce on poisoned store = %v, want ErrBroken", err)
	}
	if err := env.Store.Close(); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("Close on poisoned store = %v, want ErrBroken", err)
	}

	// Recovery is the way out: reopen recovers the durable prefix.
	reopen(t, env)
	defer env.Close()
	if rows := kvRows(t, env.DB); len(rows) != 2 {
		t.Fatalf("recovered %d rows, want 2", len(rows))
	}
	if err := env.Store.Close(); err != nil {
		t.Fatalf("clean close after recovery: %v", err)
	}
	env.Store = nil
}

func TestRollbackAllowedWhileReadOnly(t *testing.T) {
	env, _, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 2)

	mustExec(t, env.DB, "BEGIN")
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v3")

	// Degrade mid-transaction: the next durable write exhausts retries.
	fault.Enable(1, fault.Spec{Point: "wal.append.transient", Prob: 1, Op: fault.OpTransient})
	if _, err := env.DB.Exec("COMMIT"); err == nil {
		t.Fatal("commit should have failed while faults rage")
	}
	fault.Disable()
	if got := env.Store.Health(); got != health.ReadOnly {
		t.Fatalf("health = %v, want read-only", got)
	}

	// The application must still be able to back out: ROLLBACK is the
	// one mutating batch a read-only store admits.
	if env.DB.InTxn() {
		if _, err := env.DB.Exec("ROLLBACK"); err != nil {
			t.Fatalf("rollback while read-only: %v", err)
		}
	}
	if env.DB.InTxn() {
		t.Fatal("transaction still open after rollback")
	}
	// And recovery agrees with the abort.
	reopen(t, env)
	if rows := kvRows(t, env.DB); len(rows) != 2 {
		t.Fatalf("recovered %d rows, want 2", len(rows))
	}
}

func TestMaintenanceLoopAutoHeals(t *testing.T) {
	env, _, _ := openHealthEnv(t)
	defer env.Close()
	seedKV(t, env, 2)

	fault.Enable(1, fault.Spec{Point: "wal.append.transient", Prob: 1, Op: fault.OpTransient})
	if _, err := env.DB.Exec("INSERT INTO kv (v) VALUES (?)", "v3"); err == nil {
		t.Fatal("insert should have exhausted retries")
	}
	fault.Disable()
	if got := env.Store.Health(); got != health.ReadOnly {
		t.Fatalf("health = %v, want read-only", got)
	}

	stop := env.Store.StartMaintenance(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for env.Store.Health() != health.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("maintenance loop never healed the store (health %v)", env.Store.Health())
		}
		time.Sleep(time.Millisecond)
	}
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v4")
}
