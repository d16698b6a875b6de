package wal_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"maxoid/internal/fault"
	"maxoid/internal/metrics"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
)

// twoDBEnv is a file system and two databases journaled by one store.
type twoDBEnv struct {
	st    wal.Storage
	reg   *metrics.Registry
	fs    *vfs.FS
	dbs   [2]*sqldb.DB
	store *wal.Store
}

// openTwoDB recovers a twoDBEnv from st; reg may be nil.
func openTwoDB(t *testing.T, st wal.Storage, reg *metrics.Registry) *twoDBEnv {
	t.Helper()
	e := &twoDBEnv{st: st, reg: reg}
	e.reopen(t)
	return e
}

// reopen discards the live state and recovers it from the storage.
func (e *twoDBEnv) reopen(t *testing.T) {
	t.Helper()
	e.fs = vfs.New()
	e.dbs = [2]*sqldb.DB{sqldb.Open(), sqldb.Open()}
	st, err := wal.Open(wal.Config{
		Storage: e.st,
		FS:      e.fs,
		DBs:     map[string]*sqldb.DB{"a": e.dbs[0], "b": e.dbs[1]},
		Metrics: e.reg,
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	e.store = st
}

// frameLSNs decodes a storage file's frames and returns their LSNs.
func frameLSNs(t *testing.T, st wal.Storage, name string) []uint64 {
	t.Helper()
	data, err := st.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return decodeLSNs(t, name, data)
}

// liveLSNs returns the LSNs of the live WAL records past the snapshot's
// cut: the records the next recovery would replay.
func liveLSNs(t *testing.T, st wal.Storage) []uint64 {
	t.Helper()
	return decodeLSNs(t, "wal", liveBytes(t, st))
}

// liveBytes returns the frames of the live WAL records past the
// snapshot's cut. A rewound file may hold stale frames of an earlier
// pass after them.
func liveBytes(t *testing.T, st wal.Storage) []byte {
	t.Helper()
	from, to, err := wal.LiveTail(st)
	if err != nil {
		t.Fatalf("live tail: %v", err)
	}
	if from == to {
		return nil
	}
	data, err := st.ReadFile("wal")
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	return data[from:to]
}

// decodeLSNs decodes every frame in data strictly.
func decodeLSNs(t *testing.T, name string, data []byte) []uint64 {
	t.Helper()
	var lsns []uint64
	for len(data) > 0 {
		rec, n, err := wal.DecodeFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lsns = append(lsns, rec.LSN)
		data = data[n:]
	}
	return lsns
}

func maxLSN(lsns []uint64) uint64 {
	var m uint64
	for _, l := range lsns {
		m = max(m, l)
	}
	return m
}

// hookStorage runs hook once, when snapshot.tmp is first synced: the
// image is on disk, the writers run, and the WAL tail is not yet
// carried — the window every concurrent writer can land in.
type hookStorage struct {
	*wal.MemStorage
	hook func()
}

func (s *hookStorage) Create(name string) (wal.File, error) {
	f, err := s.MemStorage.Create(name)
	if err != nil || name != "snapshot.tmp" {
		return f, err
	}
	return &hookFile{File: f, s: s}, nil
}

type hookFile struct {
	wal.File
	s *hookStorage
}

func (f *hookFile) Sync() error {
	if h := f.s.hook; h != nil {
		f.s.hook = nil
		h()
	}
	return f.File.Sync()
}

// TestSnapshotUnderConcurrentWriters: one writer per database runs
// autocommit INSERT/UPDATE/DELETE, with occasional file writes, while
// 50 snapshots are taken. Every snapshot must succeed, the live log
// must end up holding exactly what was appended after the last
// snapshot's carried tail, and a crash must recover exactly the
// acknowledged state.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	st := wal.NewMemStorage()
	env := openTwoDB(t, st, nil)
	for _, db := range env.dbs {
		mustExec(t, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	}
	if err := env.fs.Mkdir(vfs.Root, "/data", 0o755); err != nil {
		t.Fatal(err)
	}

	const minOps, snapshots = 300, 50
	rows := [2]map[int64]string{{}, {}}
	files := [2]map[string]string{{}, {}}
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for w := range env.dbs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			db, model, rng := env.dbs[w], rows[w], rand.New(rand.NewSource(int64(w)))
			var live []int64
			for n := 0; ; n++ {
				if n >= minOps {
					select {
					case <-stop:
						return
					default:
					}
				}
				v := fmt.Sprintf("w%d-%d", w, n)
				switch r := rng.Intn(10); {
				case r < 5 || len(live) == 0:
					res, err := db.Exec("INSERT INTO kv (v) VALUES (?)", v)
					if err != nil {
						errs <- err
						return
					}
					model[res.LastInsertID] = v
					live = append(live, res.LastInsertID)
				case r < 8:
					k := live[rng.Intn(len(live))]
					if _, err := db.Exec("UPDATE kv SET v = ? WHERE k = ?", v, k); err != nil {
						errs <- err
						return
					}
					model[k] = v
				default:
					i := rng.Intn(len(live))
					if _, err := db.Exec("DELETE FROM kv WHERE k = ?", live[i]); err != nil {
						errs <- err
						return
					}
					delete(model, live[i])
					live = append(live[:i], live[i+1:]...)
				}
				if n%25 == 0 {
					name := fmt.Sprintf("/data/w%d-%d", w, n%4)
					if err := vfs.WriteFile(env.fs, vfs.Root, name, []byte(v), 0o644); err != nil {
						errs <- err
						return
					}
					files[w][name] = v
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < snapshots; i++ {
			if err := env.store.Snapshot(); err != nil {
				errs <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The live log holds exactly the records appended after the
	// snapshot's last one, in LSN order with no gap.
	cut := maxLSN(frameLSNs(t, st, "snapshot"))
	live := liveLSNs(t, st)
	for i, lsn := range live {
		if want := cut + 1 + uint64(i); lsn != want {
			t.Fatalf("live wal frame %d has LSN %d, want %d (snapshot ends at %d)", i, lsn, want, cut)
		}
	}
	if end := cut + uint64(len(live)); end != env.store.LastLSN() {
		t.Fatalf("snapshot and live log end at LSN %d, want the last appended %d", end, env.store.LastLSN())
	}

	st.Crash(nil)
	env.reopen(t)
	for w, db := range env.dbs {
		got := map[int64]string{}
		for _, r := range mustQuery(t, db, "SELECT k, v FROM kv").Data {
			got[r[0].(int64)] = r[1].(string)
		}
		if !reflect.DeepEqual(got, rows[w]) {
			t.Fatalf("database %d recovered %d rows, want the %d acknowledged: %v", w, len(got), len(rows[w]), diffRows(got, rows[w]))
		}
		for name, want := range files[w] {
			data, err := vfs.ReadFile(env.fs, vfs.Root, name)
			if err != nil || string(data) != want {
				t.Fatalf("%s = %q, %v after recovery; want %q", name, data, err, want)
			}
		}
	}
}

// diffRows names the first few keys on which two row maps disagree.
func diffRows(got, want map[int64]string) []string {
	var out []string
	for k, v := range want {
		if got[k] != v {
			out = append(out, fmt.Sprintf("k=%d: got %q want %q", k, got[k], v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("k=%d: got %q, never acknowledged", k, v))
		}
	}
	sort.Strings(out)
	return out[:min(len(out), 5)]
}

// tailWrites runs the writes a hook lands between a snapshot's cut and
// its publish, on all three streams, each acknowledged.
func tailWrites(t *testing.T, env *twoDBEnv) {
	t.Helper()
	mustExec(t, env.dbs[0], "INSERT INTO kv (v) VALUES ('tail')")
	mustExec(t, env.dbs[1], "UPDATE kv SET v = 'tail' WHERE k = 1")
	if err := vfs.WriteFile(env.fs, vfs.Root, "/tail", []byte("tail"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkTailState checks the state seedTwo plus tailWrites leave.
func checkTailState(t *testing.T, env *twoDBEnv) {
	t.Helper()
	if got := mustQuery(t, env.dbs[0], "SELECT v FROM kv ORDER BY k").Data; !reflect.DeepEqual(got, [][]sqldb.Value{{"a1"}, {"a2"}, {"tail"}}) {
		t.Fatalf("database a = %v, want a1, a2, tail", got)
	}
	if got := mustQuery(t, env.dbs[1], "SELECT v FROM kv ORDER BY k").Data; !reflect.DeepEqual(got, [][]sqldb.Value{{"tail"}, {"b2"}}) {
		t.Fatalf("database b = %v, want tail, b2", got)
	}
	if data, err := vfs.ReadFile(env.fs, vfs.Root, "/tail"); err != nil || string(data) != "tail" {
		t.Fatalf("/tail = %q, %v; want \"tail\"", data, err)
	}
}

// seedTwo gives both databases a two-row kv table.
func seedTwo(t *testing.T, env *twoDBEnv) {
	t.Helper()
	for i, db := range env.dbs {
		mustExec(t, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
		name := string(rune('a' + i))
		mustExec(t, db, "INSERT INTO kv (v) VALUES (?), (?)", name+"1", name+"2")
	}
}

// TestSnapshotCarriesWALTail: writes landing between the cut and the
// publish travel inside the snapshot, after its image, and the WAL is
// rewound anyway. Recovery must apply them exactly once: the cut is
// the highest LSN the snapshot holds, not its header's.
func TestSnapshotCarriesWALTail(t *testing.T) {
	st := &hookStorage{MemStorage: wal.NewMemStorage()}
	env := openTwoDB(t, st, nil)
	seedTwo(t, env)
	hdrCut := env.store.LastLSN()
	st.hook = func() { tailWrites(t, env) }
	if err := env.store.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	last := env.store.LastLSN()
	if last <= hdrCut+2 {
		t.Fatalf("hook appended %d records, want at least 3", last-hdrCut)
	}
	lsns := frameLSNs(t, st, "snapshot")
	if lsns[0] != hdrCut {
		t.Fatalf("snapshot header cut = %d, want %d", lsns[0], hdrCut)
	}
	tail := lsns[len(lsns)-int(last-hdrCut):]
	for i, lsn := range tail {
		if lsn != hdrCut+1+uint64(i) {
			t.Fatalf("snapshot ends with LSNs %v, want the carried tail %d..%d", tail, hdrCut+1, last)
		}
	}
	if got := liveLSNs(t, st); len(got) != 0 {
		t.Fatalf("wal holds live LSNs %v after the snapshot, want none", got)
	}
	if env.store.LastSynced() != last {
		t.Fatalf("synced = %d, want %d: the snapshot made the tail durable", env.store.LastSynced(), last)
	}
	checkTailState(t, env)

	st.Crash(nil)
	env.reopen(t)
	checkTailState(t, env)
	if got := env.store.RecoveredLSN(); got != last {
		t.Fatalf("RecoveredLSN = %d, want %d", got, last)
	}
}

// TestCrashBetweenRenameAndTruncation: a failure after the snapshot
// rename and before the WAL rewind poisons the log; the crash that
// follows finds a published snapshot whose WAL still holds every
// record it carries, and recovers the same state once.
func TestCrashBetweenRenameAndTruncation(t *testing.T) {
	st := &hookStorage{MemStorage: wal.NewMemStorage()}
	env := openTwoDB(t, st, nil)
	seedTwo(t, env)
	st.hook = func() { tailWrites(t, env) }
	fault.Enable(1, fault.Spec{Point: "wal.truncate", Prob: 1})
	err := env.store.Snapshot()
	fault.Disable()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("snapshot = %v, want the injected truncate fault", err)
	}
	if !errors.Is(env.store.Broken(), wal.ErrBroken) {
		t.Fatal("log not poisoned by a failure after the rename")
	}
	last := env.store.LastLSN()
	if got := maxLSN(frameLSNs(t, st, "snapshot")); got != last {
		t.Fatalf("published snapshot ends at LSN %d, want %d", got, last)
	}
	if got := maxLSN(frameLSNs(t, st, "wal")); got != last {
		t.Fatalf("unrewound wal ends at LSN %d, want %d", got, last)
	}

	st.Crash(nil)
	env.reopen(t)
	checkTailState(t, env)
	if got := env.store.RecoveredLSN(); got != last {
		t.Fatalf("RecoveredLSN = %d, want %d", got, last)
	}
	// The store is live again, and its new records are never skipped.
	mustExec(t, env.dbs[0], "INSERT INTO kv (v) VALUES ('after')")
	st.Crash(nil)
	env.reopen(t)
	if n := len(mustQuery(t, env.dbs[0], "SELECT k FROM kv").Data); n != 4 {
		t.Fatalf("database a has %d rows after the second crash, want 4", n)
	}
}

// TestSnapshotBusyWhileTxnOpen: an open transaction has no consistent
// image, so Snapshot defers with ErrBusy; once it commits, the next
// snapshot succeeds and recovery reproduces the committed rows.
func TestSnapshotBusyWhileTxnOpen(t *testing.T) {
	env, st := openMem(t)
	seedKV(t, env, 2)
	mustExec(t, env.DB, "BEGIN")
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v3")
	if err := env.Store.Snapshot(); !errors.Is(err, wal.ErrBusy) {
		t.Fatalf("snapshot with a transaction open = %v, want ErrBusy", err)
	}
	mustExec(t, env.DB, "COMMIT")
	if err := env.Store.Snapshot(); err != nil {
		t.Fatalf("snapshot after commit: %v", err)
	}
	if got := liveLSNs(t, st); len(got) != 0 {
		t.Fatalf("wal holds live LSNs %v after the snapshot, want none", got)
	}
	st.Crash(nil)
	reopen(t, env)
	if got := kvRows(t, env.DB); !reflect.DeepEqual(got, wantKV(3)) {
		t.Fatalf("recovered rows = %v, want %v", got, wantKV(3))
	}
}

// TestSnapshotMetrics: each successful snapshot records its duration
// and its freeze, and each ErrBusy return is counted.
func TestSnapshotMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	env := openTwoDB(t, wal.NewMemStorage(), reg)
	seedTwo(t, env)
	const n = 5
	for i := 0; i < n; i++ {
		mustExec(t, env.dbs[i%2], "INSERT INTO kv (v) VALUES ('x')")
		if err := env.store.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	mustExec(t, env.dbs[1], "BEGIN")
	if err := env.store.Snapshot(); !errors.Is(err, wal.ErrBusy) {
		t.Fatalf("snapshot with a transaction open = %v, want ErrBusy", err)
	}
	if got := reg.Histogram("wal.snapshot").Snapshot().Count; got != n {
		t.Errorf("wal.snapshot count = %d, want %d", got, n)
	}
	if got := reg.Histogram("wal.snapshot.frozen").Snapshot().Count; got != n {
		t.Errorf("wal.snapshot.frozen count = %d, want %d", got, n)
	}
	if got := reg.Counter("wal.snapshot.busy").Total(); got != 1 {
		t.Errorf("wal.snapshot.busy = %d, want 1", got)
	}
}

// TestSyncRacesSnapshotTruncation: group-commit writers on two streams
// run against a loop of snapshots, each of which rewinds the WAL file
// under them. Under -race nothing may be reported, the log must
// never be poisoned (on a real directory, a failed fsync or rewind
// poisons it permanently), and every write must sync.
func TestSyncRacesSnapshotTruncation(t *testing.T) {
	st, err := wal.NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := openTwoDB(t, st, nil)
	defer env.store.Close()
	for _, db := range env.dbs {
		mustExec(t, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	}
	const writes, snapshots = 150, 20
	errs := make(chan error, 2*len(env.dbs)+1)
	var wg sync.WaitGroup
	for _, db := range env.dbs {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(db *sqldb.DB) {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					if _, err := db.Exec("INSERT INTO kv (v) VALUES (?)", "x"); err != nil {
						errs <- err
						return
					}
				}
			}(db)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snapshots; i++ {
			if err := env.store.Snapshot(); err != nil {
				errs <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := env.store.Broken(); err != nil {
		t.Fatalf("log poisoned: %v", err)
	}
	if env.store.LastSynced() != env.store.LastLSN() {
		t.Fatalf("synced %d of %d appended", env.store.LastSynced(), env.store.LastLSN())
	}
}

func mustQuery(t *testing.T, db *sqldb.DB, sql string, args ...sqldb.Value) *sqldb.Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}
