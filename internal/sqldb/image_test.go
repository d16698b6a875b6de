package sqldb

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// imageOf freezes db, copies it and thaws it.
func imageOf(t *testing.T, db *DB) *Image {
	t.Helper()
	if err := db.Freeze(); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	defer db.Thaw()
	return db.Image()
}

// replayImage replays an image into a fresh database.
func replayImage(t *testing.T, im *Image) *DB {
	t.Helper()
	out := Open()
	err := im.Units(func(u JournalUnit) error {
		return out.ReplayUnit(u.SQL, u.Args, u.N, u.Errored)
	})
	if err != nil {
		t.Fatalf("replay image: %v", err)
	}
	out.RestoreCounters(im.Counters())
	return out
}

// TestImageRoundTrip: replaying an image reproduces rows (across
// several INSERT chunks, every value type), indexes, views in
// dependency order, triggers and the ID allocators — and an image
// taken before later writes and DDL does not see them.
func TestImageRoundTrip(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT, f REAL, b BLOB, ok BOOLEAN)")
	mustExec(t, db, "CREATE INDEX kv_v ON kv (v)")
	mustExec(t, db, "CREATE INDEX kv_f ON kv (f) USING HASH")
	for i := 0; i < 2*insertChunk+7; i++ {
		mustExec(t, db, "INSERT INTO kv (v, f, b, ok) VALUES (?, ?, ?, ?)", fmt.Sprintf("v%d", i), float64(i)/4, []byte{byte(i)}, i%2 == 0)
	}
	mustExec(t, db, "INSERT INTO kv (v) VALUES (NULL)")
	mustExec(t, db, "DELETE FROM kv WHERE k >= 260")
	mustExec(t, db, "CREATE VIEW top AS SELECT k, v FROM mid WHERE k > 10")
	mustExec(t, db, "CREATE VIEW mid AS SELECT k, v FROM kv WHERE f > 1")
	mustExec(t, db, "CREATE TRIGGER mid_ins INSTEAD OF INSERT ON mid BEGIN INSERT INTO kv (v, f) VALUES (NEW.v, 2.5); END")

	im := imageOf(t, db)
	want := mustQuery(t, db, "SELECT * FROM kv ORDER BY k").Data
	// Changes after the thaw are not part of the image.
	mustExec(t, db, "UPDATE kv SET v = 'later' WHERE k = 1")
	mustExec(t, db, "DROP INDEX kv_v")
	mustExec(t, db, "DROP VIEW top")

	got := replayImage(t, im)
	if rows := mustQuery(t, got, "SELECT * FROM kv ORDER BY k").Data; !reflect.DeepEqual(rows, want) {
		t.Fatalf("replayed %d rows, want %d as imaged", len(rows), len(want))
	}
	ix, _ := got.TableIndexes("kv")
	if len(ix) != 2 || ix[0].Name != "kv_f" || ix[0].Kind != "HASH" || ix[1].Name != "kv_v" {
		t.Fatalf("replayed indexes = %+v, want kv_f (HASH) and kv_v", ix)
	}
	if n := len(mustQuery(t, got, "SELECT k FROM top").Data); n == 0 {
		t.Fatal("view top over view mid replayed empty")
	}
	mustExec(t, got, "INSERT INTO mid (v) VALUES ('via trigger')")
	res := mustExec(t, got, "INSERT INTO kv (v) VALUES ('next')")
	// Ids 1..264 were handed out and 260..264 deleted; the trigger's
	// row took 265. Without the allocators, replay would restart at 260.
	if res.LastInsertID != 266 {
		t.Fatalf("replayed allocator gave id %d, want 266", res.LastInsertID)
	}
}

// TestFreezeRefusesOpenTxn: a transaction's uncommitted effects have
// no image; Freeze says so with ErrTxnOpen and holds nothing.
func TestFreezeRefusesOpenTxn(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO kv (v) VALUES ('pending')")
	if err := db.Freeze(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("freeze with a transaction open = %v, want ErrTxnOpen", err)
	}
	mustExec(t, db, "COMMIT") // would deadlock had Freeze kept a lock
	if n := len(replayImage(t, imageOf(t, db)).TableNames()); n != 1 {
		t.Fatalf("image after commit has %d tables, want 1", n)
	}
}

// TestImageIsACutUnderWriters: every batch moves one unit from a to b
// on different tables, so any consistent cut keeps the total. Images
// taken while the batches run must never split one.
func TestImageIsACutUnderWriters(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (_id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "CREATE TABLE b (_id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "INSERT INTO a (n) VALUES (1000)")
	mustExec(t, db, "INSERT INTO b (n) VALUES (0)")

	const moves = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < moves; i++ {
			if _, err := db.Exec("UPDATE a SET n = n - 1 WHERE _id = 1; UPDATE b SET n = n + 1 WHERE _id = 1"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		got := replayImage(t, imageOf(t, db))
		a, _ := got.QueryScalar("SELECT n FROM a")
		b, _ := got.QueryScalar("SELECT n FROM b")
		if a.(int64)+b.(int64) != 1000 {
			t.Fatalf("image %d split a batch: a=%v b=%v", i, a, b)
		}
	}
	wg.Wait()
}
