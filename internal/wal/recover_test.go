package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
)

func mustExec(t *testing.T, db *sqldb.DB, sql string, args ...sqldb.Value) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func kvRows(t *testing.T, db *sqldb.DB) [][]sqldb.Value {
	t.Helper()
	rows, err := db.Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatalf("query kv: %v", err)
	}
	return rows.Data
}

func openMem(t *testing.T) (*testutil.DurableEnv, *wal.MemStorage) {
	t.Helper()
	st := wal.NewMemStorage()
	env, err := testutil.OpenDurable(st, "main")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return env, st
}

func reopen(t *testing.T, env *testutil.DurableEnv) {
	t.Helper()
	if err := env.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
}

// seedKV creates the kv table with n synced rows ("v1".."vn").
func seedKV(t *testing.T, env *testutil.DurableEnv, n int) {
	t.Helper()
	mustExec(t, env.DB, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	for i := 1; i <= n; i++ {
		mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v"+string(rune('0'+i)))
	}
}

func wantKV(n int) [][]sqldb.Value {
	out := make([][]sqldb.Value, n)
	for i := 1; i <= n; i++ {
		out[i-1] = []sqldb.Value{int64(i), "v" + string(rune('0'+i))}
	}
	return out
}

// appendRaw appends raw bytes (no framing) to a storage file, past its
// current end — the hand-crafted torn tail.
func appendRaw(t *testing.T, st *wal.MemStorage, name string, b []byte) {
	t.Helper()
	data, err := st.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	f, err := st.Append(name, int64(len(data)))
	if err != nil {
		t.Fatalf("append %s: %v", name, err)
	}
	f.Write(b)
	f.Sync()
	f.Close()
}

// rewrite replaces a storage file's full contents (durably).
func rewrite(t *testing.T, st *wal.MemStorage, name string, b []byte) {
	t.Helper()
	f, err := st.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	f.Write(b)
	f.Sync()
	f.Close()
}

func readFile(t *testing.T, st wal.Storage, name string) []byte {
	t.Helper()
	data, err := st.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

// TestRecoverEdgeCases drives the recovery edge cases through one
// shared fixture: each case prepares a crashed storage via ops on a
// live env (plus optional byte-level surgery), then the runner crashes,
// reopens, and checks the recovered rows and LSN bookkeeping.
func TestRecoverEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// prepare mutates live state and/or storage; returns expected
		// kv rows after recovery (nil = table must not exist) and the
		// minimum LSN recovery must report.
		prepare func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) (want [][]sqldb.Value, minLSN uint64)
		// keep decides surviving unsynced bytes per file at crash.
		keep func(name string, unsynced int) int
	}{
		{
			name: "empty wal",
			prepare: func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) ([][]sqldb.Value, uint64) {
				// A wal file that exists but holds zero frames.
				rewrite(t, st, "wal", nil)
				return nil, 0
			},
		},
		{
			name: "synced ops replay",
			prepare: func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) ([][]sqldb.Value, uint64) {
				seedKV(t, env, 2)
				return wantKV(2), 3 // CREATE + 2 INSERTs
			},
		},
		{
			name: "torn last record",
			prepare: func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) ([][]sqldb.Value, uint64) {
				seedKV(t, env, 2)
				// A frame header promising 32 bytes of payload that never
				// arrived: recovery truncates it and keeps the prefix.
				appendRaw(t, st, "wal", []byte{32, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3})
				return wantKV(2), 3
			},
		},
		{
			name: "snapshot only",
			prepare: func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) ([][]sqldb.Value, uint64) {
				seedKV(t, env, 3)
				if err := env.Store.Snapshot(); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				if got := liveLSNs(t, st); len(got) != 0 {
					t.Fatalf("wal holds live LSNs %v after a quiescent snapshot, want none", got)
				}
				return wantKV(3), 4
			},
		},
		{
			name: "duplicate replay is idempotent",
			prepare: func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) ([][]sqldb.Value, uint64) {
				seedKV(t, env, 2)
				pre := readFile(t, st, "wal") // frames 1..3
				if err := env.Store.Snapshot(); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v3")
				post := liveBytes(t, st) // frame 4 only
				// Splice the pre-snapshot frames back in front: recovery
				// must skip every record at or below the snapshot's cut
				// LSN instead of double-applying it.
				rewrite(t, st, "wal", append(append([]byte(nil), pre...), post...))
				return wantKV(3), 4
			},
		},
		{
			name: "snapshot newer than wal tail",
			prepare: func(t *testing.T, env *testutil.DurableEnv, st *wal.MemStorage) ([][]sqldb.Value, uint64) {
				seedKV(t, env, 2)
				stale := readFile(t, st, "wal") // frames 1..3
				mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v3")
				if err := env.Store.Snapshot(); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				// The state a crash between the snapshot's rename and the
				// WAL rewind leaves when it loses the last carried frame
				// from the wal: every record sits at or below the cut (4),
				// so recovery applies none of them — and must still resume
				// LSNs from the cut, not the tail. It must also restart the
				// log at offset 0: the runner's next insert (LSN 5)
				// appended after frame 3 would not continue the chain, and
				// the second recovery would lose it.
				rewrite(t, st, "wal", stale)
				return wantKV(3), 4
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, st := openMem(t)
			want, minLSN := tc.prepare(t, env, st)
			st.Crash(tc.keep)
			reopen(t, env)

			if want == nil {
				if _, err := env.DB.Query("SELECT k FROM kv"); err == nil {
					t.Fatal("kv table exists after recovery, want absent")
				}
			} else if got := kvRows(t, env.DB); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered rows = %v, want %v", got, want)
			}
			if got := env.Store.RecoveredLSN(); got < minLSN {
				t.Fatalf("RecoveredLSN = %d, want >= %d", got, minLSN)
			}
			// The recovered store must be live: a new durable write works
			// and survives a second crash, and its LSN is never a reuse.
			before := env.Store.LastLSN()
			if want != nil {
				mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "vZ")
				if env.Store.LastLSN() <= before {
					t.Fatalf("LSN did not advance past %d", before)
				}
				grown := append(want, []sqldb.Value{int64(len(want) + 1), "vZ"})
				st.Crash(nil)
				reopen(t, env)
				if got := kvRows(t, env.DB); !reflect.DeepEqual(got, grown) {
					t.Fatalf("rows after second crash = %v, want %v", got, grown)
				}
			}
		})
	}
}

// splitFrames cuts a run of whole frames into one slice per frame.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(data) > 0 {
		_, n, err := wal.DecodeFrame(data)
		if err != nil {
			t.Fatalf("split frames: %v", err)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// TestRecoverStaleFrameEndsChain: a frame left by an earlier pass over
// the file has a valid CRC, but its LSN is at or below the cut, so it
// ends the live log. Nothing after it is replayed, not even a frame
// whose LSN lies past the cut, and the log resumes after the chain.
func TestRecoverStaleFrameEndsChain(t *testing.T) {
	env, st := openMem(t)
	seedKV(t, env, 2)                               // LSNs 1..3
	stale := splitFrames(t, readFile(t, st, "wal")) // from before the snapshot
	if err := env.Store.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, v := range []string{"v3", "v4", "v5"} { // LSNs 4..6
		mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", v)
	}
	live := splitFrames(t, liveBytes(t, st))
	if len(live) != 3 {
		t.Fatalf("live log holds %d frames, want 3", len(live))
	}
	var img []byte
	for _, f := range [][]byte{live[0], stale[0], live[2]} { // LSNs 4, 1, 6
		img = append(img, f...)
	}
	rewrite(t, st, "wal", img)
	st.Crash(nil)
	reopen(t, env)
	if got := env.Store.RecoveredLSN(); got != 4 {
		t.Fatalf("RecoveredLSN = %d, want 4", got)
	}
	if got := kvRows(t, env.DB); !reflect.DeepEqual(got, wantKV(3)) {
		t.Fatalf("recovered rows = %v, want %v", got, wantKV(3))
	}
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "v4")
	st.Crash(nil)
	reopen(t, env)
	if got := kvRows(t, env.DB); !reflect.DeepEqual(got, wantKV(4)) {
		t.Fatalf("rows after a write and a second crash = %v, want %v", got, wantKV(4))
	}
}

// TestRewindOverDirStorage: over a real directory, each of three
// checkpoints between runs of writes rewinds the WAL in place. The file
// never shrinks, the next frame starts at offset 0, and a reopen
// replays exactly the records past the last cut although the passes
// shrink, so stale frames of the longer ones lie past the live log.
// The scrub, which reads only the live log's bytes by name, finds it
// whole.
func TestRewindOverDirStorage(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	env, err := testutil.OpenDurable(st, "main")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { env.Close() }()
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	mustExec(t, env.DB, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	var size int64
	var cut uint64
	for pass, writes := range []int{30, 20, 10} {
		for i := 0; i < writes; i++ {
			mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("p%d-%d", pass, i))
		}
		if got := walSize(); got < size {
			t.Fatalf("pass %d: wal shrank from %d to %d bytes", pass, size, got)
		}
		size = walSize()
		if err := env.Store.Snapshot(); err != nil {
			t.Fatalf("checkpoint %d: %v", pass, err)
		}
		if got := walSize(); got != size {
			t.Fatalf("checkpoint %d changed the wal from %d to %d bytes", pass, size, got)
		}
		cut = env.Store.LastLSN()
		mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", fmt.Sprintf("after-%d", pass))
		rec, _, err := wal.DecodeFrame(readFile(t, st, "wal"))
		if err != nil || rec.LSN != cut+1 {
			t.Fatalf("checkpoint %d: frame at offset 0 = LSN %d (%v), want %d", pass, rec.LSN, err, cut+1)
		}
	}
	mustExec(t, env.DB, "UPDATE kv SET v = 'last' WHERE k = 1")
	last := env.Store.LastLSN()
	if got, want := liveLSNs(t, st), []uint64{cut + 1, cut + 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live log holds LSNs %v, want %v", got, want)
	}
	if got := frameLSNs(t, st, "snapshot"); maxLSN(got) != cut {
		t.Fatalf("snapshot ends at LSN %d, want %d", maxLSN(got), cut)
	}
	if err := env.Store.ScrubOnce(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	whole := readFile(t, st, "wal")
	if got, err := st.ReadPrefix("wal", int64(len(whole))+64); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("prefix past the end: %d bytes (%v), want the file's %d", len(got), err, len(whole))
	}
	if _, err := st.ReadPrefix("missing", 8); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("prefix of a missing file: %v, want fs.ErrNotExist", err)
	}
	want := kvRows(t, env.DB)
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	reopen(t, env)
	if got := env.Store.RecoveredLSN(); got != last {
		t.Fatalf("RecoveredLSN = %d, want %d", got, last)
	}
	if got := kvRows(t, env.DB); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d rows, want %d: %v", len(got), len(want), got)
	}
}

// TestRecoverAbortsOpenTxn: a transaction whose records reached the
// disk but whose COMMIT never ran is rolled back by recovery.
func TestRecoverAbortsOpenTxn(t *testing.T) {
	env, st := openMem(t)
	seedKV(t, env, 1)
	mustExec(t, env.DB, "BEGIN")
	mustExec(t, env.DB, "INSERT INTO kv (v) VALUES (?)", "uncommitted")
	// Crash keeping every written byte: the BEGIN and INSERT frames
	// survive even though nothing synced them.
	st.Crash(func(name string, unsynced int) int { return unsynced })
	reopen(t, env)
	if got := kvRows(t, env.DB); !reflect.DeepEqual(got, wantKV(1)) {
		t.Fatalf("rows = %v, want only the committed %v", got, wantKV(1))
	}
	if env.DB.InTxn() {
		t.Fatal("transaction still open after recovery")
	}
}

// TestRecoverFS: filesystem mutations of every journaled kind survive
// a crash, including metadata (mode, owner).
func TestRecoverFS(t *testing.T) {
	env, st := openMem(t)
	fsys := env.FS
	if err := fsys.MkdirAll(vfs.Root, "/data/app", 0o750); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fsys, vfs.Root, "/data/app/a.txt", []byte("alpha"), 0o640); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fsys, vfs.Root, "/data/app/b.txt", []byte("beta"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(vfs.Root, "/data/app/b.txt", "/data/app/c.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Chown(vfs.Root, "/data/app/a.txt", 1007); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Chmod(vfs.Root, "/data/app/a.txt", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fsys, vfs.Root, "/data/doomed", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(vfs.Root, "/data/doomed"); err != nil {
		t.Fatal(err)
	}
	want, err := vfs.Tree(fsys, vfs.Root, "/")
	if err != nil {
		t.Fatal(err)
	}

	st.Crash(nil)
	reopen(t, env)

	got, err := vfs.Tree(env.FS, vfs.Root, "/")
	if err != nil {
		t.Fatalf("tree after recovery: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tree = %v, want %v", got, want)
	}
	fi, err := env.FS.Stat(vfs.Root, "/data/app/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode.Perm() != 0o600 || fi.UID != 1007 {
		t.Fatalf("a.txt mode=%v uid=%d, want 0600/1007", fi.Mode.Perm(), fi.UID)
	}
}

// TestRecoverCounters: deleting the highest row leaves an allocator
// high-water mark rows cannot witness; only a snapshot's counter
// record carries it across.
func TestRecoverCounters(t *testing.T) {
	env, st := openMem(t)
	seedKV(t, env, 3)
	mustExec(t, env.DB, "DELETE FROM kv WHERE k = 3")
	if err := env.Store.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	st.Crash(nil)
	reopen(t, env)
	res, err := env.DB.Exec("INSERT INTO kv (v) VALUES (?)", "after")
	if err != nil {
		t.Fatal(err)
	}
	// Without the counter record the allocator would hand out 3 again;
	// the live engine would have handed out 4.
	if res.LastInsertID != 4 {
		t.Fatalf("recovered allocator produced id %d, want 4", res.LastInsertID)
	}
}

// TestDirStorage: the same recovery path over a real directory.
func TestDirStorageReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	env, err := testutil.OpenDurable(st, "main")
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, env, 2)
	if err := vfs.WriteFile(env.FS, vfs.Root, "/hello", []byte("world"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := testutil.OpenDurable(st2, "main")
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()
	if got := kvRows(t, env2.DB); !reflect.DeepEqual(got, wantKV(2)) {
		t.Fatalf("rows = %v, want %v", got, wantKV(2))
	}
	data, err := vfs.ReadFile(env2.FS, vfs.Root, "/hello")
	if err != nil || string(data) != "world" {
		t.Fatalf("/hello = %q, %v; want \"world\"", data, err)
	}
}

// TestSnapshotSchemaAndViews: snapshots carry the full catalog —
// secondary indexes, views, triggers — not just rows.
func TestSnapshotSchemaAndViews(t *testing.T) {
	env, st := openMem(t)
	mustExec(t, env.DB, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT, n INTEGER DEFAULT 0)")
	mustExec(t, env.DB, "CREATE INDEX kv_v ON kv (v)")
	mustExec(t, env.DB, "INSERT INTO kv (v, n) VALUES ('a', 1)")
	mustExec(t, env.DB, "CREATE VIEW big AS SELECT k, v FROM kv WHERE n > 0")
	if err := env.Store.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	st.Crash(nil)
	reopen(t, env)

	rows, err := env.DB.Query("SELECT k, v FROM big")
	if err != nil {
		t.Fatalf("view query after recovery: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][1] != "a" {
		t.Fatalf("view rows = %v, want [[1 a]]", rows.Data)
	}
	// The index must exist again: creating it anew must fail.
	if _, err := env.DB.Exec("CREATE INDEX kv_v ON kv (v)"); err == nil {
		t.Fatal("index kv_v was not recovered (re-create succeeded)")
	}
}
