// Recover-chaos engine: crash recovery beneath vfs and sqldb.
//
// The engine runs a seeded single-goroutine workload of filesystem
// mutations and SQL batches over a durable environment (internal/wal
// over MemStorage), with faults armed on the WAL's append, fsync, and
// snapshot paths. Crashes come from three directions: spontaneous
// seeded kills between operations, forced kills after an injected
// fault poisons the log (fail-stop), and torn tails — the crash model
// keeps a seeded prefix of each file's unsynced bytes, exactly the
// freedom a real kernel has.
//
// After every crash the engine reopens from snapshot+WAL and diffs the
// recovered state row-for-row and file-for-file against a reference
// built by replaying the op tape's surviving prefix. Invariants:
//
//  1. Prefix consistency: the survivors are always a prefix of the op
//     tape in LSN order — recovery reports the LSN it recovered to,
//     and replaying exactly the tape ops at or below it reproduces the
//     recovered state bit for bit (modulo mtimes, which are not
//     durable by design).
//  2. No acked loss: an operation that returned success after a
//     covering sync is never lost by any later crash.
//  3. Fail-stop: once the log is poisoned, no operation acks until the
//     crash-and-recover cycle.
//  4. Monotone recovery: the recovered LSN never regresses across
//     consecutive crashes.
package chaos

import (
	"fmt"
	"io/fs"
	"math/rand"

	"maxoid/internal/fault"
	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
)

// recoverErrors are the expected workload errors rather than bugs:
// injected faults, the poisoned log's fail-stop sentinel, a busy
// snapshot, and ordinary fs errors from the randomized path workload.
var recoverErrors = []error{
	fault.ErrInjected,
	wal.ErrBroken,
	wal.ErrBusy,
	fs.ErrNotExist,
	fs.ErrExist,
}

// tapeOp is one workload operation that appended a WAL record: its
// LSN, whether it was acknowledged durable, and how to replay it onto
// the reference state.
type tapeOp struct {
	lsn   uint64
	acked bool
	apply func(fsys *vfs.FS, db *sqldb.DB)
}

// runRecover performs one seeded recover-chaos run.
func runRecover(seed int64, ops int, r *Report) {
	st := wal.NewMemStorage()
	env, err := testutil.OpenDurable(st, "main")
	if err != nil {
		r.failf("initial open: %v", err)
		return
	}

	// The reference: plain state with no durability layer, advanced only
	// at crash points by replaying the tape's surviving prefix. refBase
	// always corresponds to LSN base.
	refFS := vfs.New()
	refDB := sqldb.Open()
	var base uint64

	// rngOp draws the op tape; rngCrash decides how many unsynced bytes
	// each file keeps at a crash. Separate streams so the tape is a pure
	// function of the seed regardless of crash-point byte counts.
	rngOp := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	rngCrash := rand.New(rand.NewSource(seed*0x9e3779b9 + 1))

	fault.Arm(seed,
		fault.Spec{Point: "wal.append", Prob: 0.004, Op: fault.OpPartial},
		fault.Spec{Point: "wal.fsync", Prob: 0.006},
		fault.Spec{Point: "wal.snapshot", Prob: 0.15},
	)

	var tape []tapeOp
	var maxAcked uint64
	txnOpen := false

	// do runs one workload operation against the live environment and,
	// if it appended a WAL record, pushes it on the tape. Every engine
	// op must append at most one record — that is what makes "surviving
	// prefix of the tape" the same thing as "surviving prefix of the
	// WAL".
	do := func(kind byte, op func(fsys *vfs.FS, db *sqldb.DB) error) {
		r.OpTape = append(r.OpTape, kind)
		r.Ops++
		lsn0 := env.Store.LastLSN()
		poisoned := env.Store.Broken() != nil
		err := op(env.FS, env.DB)
		lsn1 := env.Store.LastLSN()
		if lsn1 > lsn0 {
			if lsn1 != lsn0+1 {
				r.failf("op %d (%c): appended %d records, engine ops must append at most one", r.Ops, kind, lsn1-lsn0)
			}
			acked := err == nil && env.Store.LastSynced() >= lsn1
			tape = append(tape, tapeOp{lsn: lsn1, acked: acked, apply: func(fsys *vfs.FS, db *sqldb.DB) {
				op(fsys, db)
			}})
			if acked && lsn1 > maxAcked {
				maxAcked = lsn1
			}
		}
		if poisoned && err == nil && lsn1 > lsn0 {
			r.failf("op %d (%c): acked on a poisoned log (fail-stop violated)", r.Ops, kind)
		}
		if err != nil && !isOneOf(err, recoverErrors) {
			r.failf("op %d (%c): unexpected error: %v", r.Ops, kind, err)
		}
	}

	crash := func() bool {
		r.Kills++
		txnOpen = false
		st.Crash(func(name string, unsynced int) int {
			return rngCrash.Intn(unsynced + 1)
		})
		if err := env.Reopen(); err != nil {
			r.failf("kill %d: recovery failed: %v", r.Kills, err)
			return false
		}
		recovered := env.Store.RecoveredLSN()
		if recovered < maxAcked {
			r.failf("kill %d: acked LSN %d lost, recovered only to %d", r.Kills, maxAcked, recovered)
			return false
		}
		if recovered < base {
			r.failf("kill %d: recovered LSN regressed %d -> %d", r.Kills, base, recovered)
			return false
		}
		// Advance the reference to the recovered LSN: surviving ops (a
		// prefix, by the log's append-only discipline) replay; everything
		// past the recovery point died with the crash and its LSNs may be
		// reused, so it leaves the tape for good.
		for _, op := range tape {
			if op.lsn <= recovered {
				op.apply(refFS, refDB)
			}
		}
		tape = tape[:0]
		refDB.AbortOpenTxn() // mirrors recovery's open-transaction rollback
		base = recovered
		maxAcked = recovered
		diffRecovered(r, env, refFS, refDB)
		return len(r.Failures) == 0
	}

	// Setup runs through the same tracked path as the workload, so even
	// a crash on the very first operations stays within the model. An
	// early crash can lose the setup records; ensure re-issues whatever
	// is missing after every recovery.
	ensure := func() {
		if !vfs.Exists(env.FS, vfs.Root, "/data") {
			do('d', func(fsys *vfs.FS, db *sqldb.DB) error {
				return fsys.Mkdir(vfs.Root, "/data", 0o755)
			})
		}
		if _, err := env.DB.Query("SELECT _id FROM notes WHERE _id = 0"); err != nil {
			do('Q', func(fsys *vfs.FS, db *sqldb.DB) error {
				_, err := db.Exec("CREATE TABLE notes (_id INTEGER PRIMARY KEY, body TEXT, rank INTEGER DEFAULT 0)")
				return err
			})
		}
		if _, err := env.DB.Query("SELECT _id FROM tags WHERE _id = 0"); err != nil {
			do('Q', func(fsys *vfs.FS, db *sqldb.DB) error {
				_, err := db.Exec("CREATE TABLE tags (_id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
				return err
			})
		}
	}
	ensure()

	path := func(n int) string { return fmt.Sprintf("/data/f%03d", n) }

	for i := 0; i < ops && len(r.Failures) == 0; i++ {
		if env.Store.Broken() != nil {
			// Fail-stop: an injected append/fsync fault poisoned the log.
			// Drive one more op through it — it must fail typed, never
			// ack — then crash and recover.
			do('x', func(fsys *vfs.FS, db *sqldb.DB) error {
				return fsys.Chmod(vfs.Root, "/data", 0o755)
			})
			if !crash() {
				return
			}
			ensure()
			continue
		}
		p := rngOp.Float64()
		switch {
		case p < 0.05: // spontaneous kill between operations
			if !crash() {
				return
			}
			ensure()
		case p < 0.08: // compact: snapshot + WAL reset
			if err := env.Store.Snapshot(); err != nil && !isOneOf(err, recoverErrors) {
				r.failf("op %d: snapshot: %v", r.Ops, err)
			}
		case p < 0.24: // create an empty file (no-op if it exists)
			name := path(rngOp.Intn(240))
			mode := 0o600 + fs.FileMode(rngOp.Intn(8)*8)
			do('c', func(fsys *vfs.FS, db *sqldb.DB) error {
				h, err := fsys.Open(vfs.Root, name, vfs.O_WRONLY|vfs.O_CREATE, mode)
				if err != nil {
					return err
				}
				return h.Close()
			})
		case p < 0.44: // write a slice of bytes at an offset
			name := path(rngOp.Intn(240))
			off := int64(rngOp.Intn(64))
			data := make([]byte, 1+rngOp.Intn(24))
			for j := range data {
				data[j] = byte(rngOp.Intn(256))
			}
			do('w', func(fsys *vfs.FS, db *sqldb.DB) error {
				h, err := fsys.Open(vfs.Root, name, vfs.O_WRONLY, 0)
				if err != nil {
					return err
				}
				defer h.Close()
				_, err = h.WriteAt(data, off)
				return err
			})
		case p < 0.50: // remove
			name := path(rngOp.Intn(240))
			do('r', func(fsys *vfs.FS, db *sqldb.DB) error {
				return fsys.Remove(vfs.Root, name)
			})
		case p < 0.56: // rename
			oldname, newname := path(rngOp.Intn(240)), path(rngOp.Intn(240))
			do('n', func(fsys *vfs.FS, db *sqldb.DB) error {
				if oldname == newname {
					return nil
				}
				return fsys.Rename(vfs.Root, oldname, newname)
			})
		case p < 0.60: // chmod
			name := path(rngOp.Intn(240))
			mode := 0o600 + fs.FileMode(rngOp.Intn(8)*8)
			do('m', func(fsys *vfs.FS, db *sqldb.DB) error {
				return fsys.Chmod(vfs.Root, name, mode)
			})
		case p < 0.64: // chown
			name := path(rngOp.Intn(240))
			uid := 1000 + rngOp.Intn(8)
			do('o', func(fsys *vfs.FS, db *sqldb.DB) error {
				return fsys.Chown(vfs.Root, name, uid)
			})
		case p < 0.78: // insert a note
			body := fmt.Sprintf("note-%d", rngOp.Intn(1_000_000))
			rank := int64(rngOp.Intn(100))
			do('I', func(fsys *vfs.FS, db *sqldb.DB) error {
				_, err := db.Exec("INSERT INTO notes (body, rank) VALUES (?, ?)", body, rank)
				return err
			})
		case p < 0.84: // update by primary key
			id := int64(1 + rngOp.Intn(400))
			rank := int64(rngOp.Intn(100))
			do('U', func(fsys *vfs.FS, db *sqldb.DB) error {
				_, err := db.Exec("UPDATE notes SET rank = ? WHERE _id = ?", rank, id)
				return err
			})
		case p < 0.89: // delete by primary key
			id := int64(1 + rngOp.Intn(400))
			do('D', func(fsys *vfs.FS, db *sqldb.DB) error {
				_, err := db.Exec("DELETE FROM notes WHERE _id = ?", id)
				return err
			})
		default: // transaction steps: BEGIN, inserts inside, COMMIT
			switch {
			case !txnOpen:
				txnOpen = true
				do('B', func(fsys *vfs.FS, db *sqldb.DB) error {
					_, err := db.Exec("BEGIN")
					return err
				})
			case rngOp.Float64() < 0.5:
				name := fmt.Sprintf("tag-%d", rngOp.Intn(1_000_000))
				do('t', func(fsys *vfs.FS, db *sqldb.DB) error {
					_, err := db.Exec("INSERT INTO tags (name) VALUES (?)", name)
					return err
				})
			default:
				txnOpen = false
				do('C', func(fsys *vfs.FS, db *sqldb.DB) error {
					_, err := db.Exec("COMMIT")
					return err
				})
			}
		}
	}

	// Final checkpoint: one last crash-and-verify so the tail of the run
	// is checked too.
	if len(r.Failures) == 0 {
		crash()
	}
}

// diffRecovered compares the recovered environment against the
// reference state: the filesystem file-for-file (path, type, mode,
// owner, content — mtimes are not durable by design) and each table
// row-for-row in primary-key order.
func diffRecovered(r *Report, env *testutil.DurableEnv, refFS *vfs.FS, refDB *sqldb.DB) {
	got, gerr := fsManifest(env.FS)
	want, werr := fsManifest(refFS)
	if gerr != nil || werr != nil {
		r.failf("kill %d: manifest walk: recovered=%v reference=%v", r.Kills, gerr, werr)
		return
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			r.failf("kill %d: fs: %s missing after recovery (want %s)", r.Kills, p, w)
		} else if g != w {
			r.failf("kill %d: fs: %s recovered as %s, want %s", r.Kills, p, g, w)
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			r.failf("kill %d: fs: %s exists after recovery but not in reference", r.Kills, p)
		}
	}

	for _, table := range []string{"notes", "tags"} {
		gotRows, gerr := env.DB.Query("SELECT * FROM " + table + " ORDER BY _id")
		wantRows, werr := refDB.Query("SELECT * FROM " + table + " ORDER BY _id")
		if gerr != nil || werr != nil {
			// Both sides missing the table (the creating record died in a
			// very early crash) is consistent; one side is divergence.
			if gerr == nil || werr == nil {
				r.failf("kill %d: db %s: recovered=%v reference=%v", r.Kills, table, gerr, werr)
			}
			continue
		}
		if len(gotRows.Data) != len(wantRows.Data) {
			r.failf("kill %d: db %s: %d rows recovered, want %d", r.Kills, table, len(gotRows.Data), len(wantRows.Data))
			continue
		}
		for i := range wantRows.Data {
			if g, w := rowRepr(gotRows.Data[i]), rowRepr(wantRows.Data[i]); g != w {
				r.failf("kill %d: db %s row %d: recovered %s, want %s", r.Kills, table, i, g, w)
			}
		}
	}
}

// fsManifest flattens a filesystem into path -> "kind|mode|uid|content".
func fsManifest(fsys *vfs.FS) (map[string]string, error) {
	out := make(map[string]string)
	err := vfs.Walk(fsys, vfs.Root, "/", func(name string, info vfs.FileInfo) error {
		if name == "/" {
			return nil
		}
		if info.IsDir() {
			out[name] = fmt.Sprintf("dir|%o|%d", info.Mode.Perm(), info.UID)
			return nil
		}
		data, err := vfs.ReadFile(fsys, vfs.Root, name)
		if err != nil {
			return err
		}
		out[name] = fmt.Sprintf("file|%o|%d|%x", info.Mode.Perm(), info.UID, data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
