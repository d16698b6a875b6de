package sqldb

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentDisjointTables exercises the per-table locking path:
// writers on disjoint tables plus readers over a view spanning them,
// interleaved with transactions (which force the exclusive fallback).
func TestConcurrentDisjointTables(t *testing.T) {
	db := Open()
	const tables = 4
	for i := 0; i < tables; i++ {
		mustExec(t, db, fmt.Sprintf(
			"CREATE TABLE t%d (_id INTEGER PRIMARY KEY, v INTEGER)", i))
	}
	mustExec(t, db, `CREATE VIEW all_v AS
		SELECT _id, v FROM t0 UNION ALL SELECT _id, v FROM t1
		UNION ALL SELECT _id, v FROM t2 UNION ALL SELECT _id, v FROM t3`)

	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, tables+2)
	for i := 0; i < tables; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tbl := fmt.Sprintf("t%d", i)
			for n := 0; n < perWorker; n++ {
				if _, err := db.Exec("INSERT INTO "+tbl+" (v) VALUES (?)", int64(n)); err != nil {
					errs <- err
					return
				}
				if _, err := db.Exec("UPDATE "+tbl+" SET v = v + 1 WHERE _id = ?", int64(n%10+1)); err != nil {
					errs <- err
					return
				}
				if _, err := db.Query("SELECT COUNT(*) FROM " + tbl); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	// A reader over the union view (read locks on all four tables).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < perWorker; n++ {
			if _, err := db.Query("SELECT COUNT(*) FROM all_v"); err != nil {
				errs <- err
				return
			}
		}
	}()
	// A transactional writer (exclusive fallback) racing everyone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 20; n++ {
			if _, err := db.Exec("BEGIN; INSERT INTO t0 (v) VALUES (-1); ROLLBACK"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := 0; i < tables; i++ {
		n, _ := db.QueryScalar(fmt.Sprintf("SELECT COUNT(*) FROM t%d", i))
		if n != int64(perWorker) {
			t.Errorf("t%d rows = %v, want %d", i, n, perWorker)
		}
	}
	ls := db.LockStats()
	if ls.TableAcquisitions == 0 {
		t.Error("no table-granular acquisitions recorded; fine-grained path never taken")
	}
	if ls.ExclusiveBatches == 0 {
		t.Error("no exclusive batches recorded; transactional fallback never taken")
	}
}

// TestStmtCacheLRUEviction verifies the LRU bound: crossing
// maxCachedStmts raw texts must neither empty the cache nor let it
// grow past the bound — and since every text here normalizes to the
// same shape, the AST cache must stay at a single entry.
func TestStmtCacheLRUEviction(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 0; i <= maxCachedStmts; i++ {
		sql := fmt.Sprintf("SELECT v FROM t WHERE v = %d", i)
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	db.stmtMu.Lock()
	raw := db.rawStmts.len()
	norm := db.normStmts.len()
	db.stmtMu.Unlock()
	if raw < maxCachedStmts/2 {
		t.Errorf("raw cache size after eviction = %d; wholesale reset suspected", raw)
	}
	if raw > maxCachedStmts {
		t.Errorf("raw cache size %d exceeds bound %d", raw, maxCachedStmts)
	}
	// Two shapes total: the CREATE TABLE and the one SELECT shape every
	// literal variant collapses into.
	if norm != 2 {
		t.Errorf("normalized AST cache has %d entries, want 2 (all queries share one shape)", norm)
	}
}

// TestDumpUnitsConcurrentWithViewQueries: DumpUnits walks every view
// definition to emit views in dependency order while queries plan and
// execute the same view ASTs (merged plans share the views' FROM
// references). The dependency walk must only read them; run under
// -race, any write to a shared TableRef is reported.
func TestDumpUnitsConcurrentWithViewQueries(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (_id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE TABLE b (_id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO a (v) VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO b (v) VALUES (4), (5)")
	mustExec(t, db, "CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
	mustExec(t, db, "CREATE VIEW w AS SELECT _id, v FROM u WHERE v > 1")

	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := db.DumpUnits(func(JournalUnit) error { return nil }); err != nil {
				errs <- err
				return
			}
		}
	}()
	for _, q := range []string{"SELECT v FROM u WHERE _id >= ? AND _id < ?", "SELECT v FROM w WHERE _id >= ? AND _id < ?"} {
		go func(q string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Query(q, int64(1), int64(3)); err != nil {
					errs <- err
					return
				}
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
