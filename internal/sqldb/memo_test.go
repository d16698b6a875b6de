package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestMemosFollowCatalogChanges runs a statement until every memo it
// reaches is warm, then changes the catalog one batch at a time,
// running the statement after each. Every outcome, errors included,
// must match a database that reached the same catalog without ever
// running the statement, whether the statement comes back through the
// statement caches or through a PreparedStmt held across the change.
func TestMemosFollowCatalogChanges(t *testing.T) {
	const viewSetup = `CREATE TABLE a (_id INTEGER PRIMARY KEY, x TEXT);
		CREATE TABLE b (_id INTEGER PRIMARY KEY, y TEXT);
		INSERT INTO a VALUES (1, 'from a'), (2, 'a only');
		INSERT INTO b VALUES (1, 'from b');
		CREATE VIEW v AS SELECT _id, x AS val FROM a`
	const triggerSetup = `CREATE TABLE base1 (_id INTEGER PRIMARY KEY, v TEXT);
		CREATE TABLE base2 (_id INTEGER PRIMARY KEY, v TEXT);
		INSERT INTO base1 VALUES (1, 'one');
		INSERT INTO base2 VALUES (1, 'two');
		CREATE VIEW tv AS SELECT _id, v FROM base1;
		CREATE TRIGGER tr INSTEAD OF UPDATE ON tv BEGIN
			UPDATE base1 SET v = NEW.v WHERE _id = OLD._id; END`
	indexSetup := "CREATE TABLE t (_id INTEGER PRIMARY KEY, a INTEGER, b TEXT);" +
		"CREATE VIEW tview AS SELECT _id, a, b FROM t;"
	for i := 1; i <= 50; i++ {
		indexSetup += fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'r%d');", i, i, i)
	}
	cases := []struct {
		name   string
		before string   // set-up, after which the warm runs happen
		after  []string // the catalog change, one batch per step
		stmt   string   // the statement kept warm across the change
		check  string   // query read after stmt runs; "" when stmt is a query
		want   string   // substring of the outcome after the change
		writes string   // a table stmt's batch must lock for writing after the change
	}{
		{
			name:   "view redefined",
			before: viewSetup,
			after: []string{"DROP VIEW v", `CREATE VIEW v AS
				SELECT _id, y AS val FROM b UNION ALL
				SELECT _id, x AS val FROM a WHERE _id NOT IN (SELECT _id FROM b)`},
			stmt: "SELECT val FROM v WHERE _id = 1",
			want: "from b",
		},
		{
			name: "star over a widened table",
			before: `CREATE TABLE s (_id INTEGER PRIMARY KEY, a TEXT);
				INSERT INTO s VALUES (1, 'old')`,
			after: []string{"DROP TABLE s", `CREATE TABLE s (_id INTEGER PRIMARY KEY, a TEXT, b TEXT);
				INSERT INTO s VALUES (1, 'new', 'extra')`},
			stmt: "SELECT * FROM s WHERE _id = 1",
			want: "extra",
		},
		{
			name: "rolled-back view replaced by a table",
			before: `CREATE TABLE src (_id INTEGER PRIMARY KEY, x TEXT);
				INSERT INTO src VALUES (1, 'view row');
				BEGIN; CREATE VIEW thing AS SELECT _id, x FROM src`,
			after: []string{"ROLLBACK", `CREATE TABLE thing (_id INTEGER PRIMARY KEY, x TEXT, y TEXT);
				INSERT INTO thing VALUES (1, 'table row', 'extra')`},
			stmt: "SELECT * FROM thing WHERE _id = 1",
			want: "table row",
		},
		{
			name:   "trigger redirected",
			before: triggerSetup,
			after: []string{"DROP TRIGGER tr", `CREATE TRIGGER tr INSTEAD OF UPDATE ON tv BEGIN
				UPDATE base2 SET v = NEW.v WHERE _id = OLD._id; END`},
			stmt:   "UPDATE tv SET v = 'new' WHERE _id = 1",
			check:  "SELECT v FROM base2 WHERE _id = 1",
			want:   "new",
			writes: "base2",
		},
		{
			name:   "index created",
			before: indexSetup,
			after:  []string{"CREATE INDEX t_a ON t (a)"},
			stmt:   "EXPLAIN SELECT b FROM tview WHERE a = 7",
			want:   "INDEX t_a",
		},
		{
			name:   "index dropped",
			before: indexSetup + "CREATE INDEX t_a ON t (a)",
			after:  []string{"DROP INDEX t_a"},
			stmt:   "EXPLAIN SELECT b FROM tview WHERE a = 7",
			want:   "SCAN t",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// outcome renders what one run of stmt produced: its rows,
			// the check query's rows after an Exec, or the error, plus
			// the plan and lock decisions the run counted.
			outcome := func(db *DB, query func(...Value) (*Rows, error), exec func(...Value) (Result, error)) string {
				s0, l0 := db.Stats(), db.LockStats()
				var rows *Rows
				var err error
				if tc.check == "" {
					rows, err = query()
				} else if _, err = exec(); err == nil {
					rows, err = db.Query(tc.check)
				}
				s, l := db.Stats(), db.LockStats()
				counts := fmt.Sprintf(" flattened=%d materialized=%d seq=%d pk=%d index=%d exclusive=%d tables=%d",
					s.FlattenedQueries-s0.FlattenedQueries, s.MaterializedViews-s0.MaterializedViews,
					s.SeqScans-s0.SeqScans, s.PKProbes-s0.PKProbes, s.IndexProbes-s0.IndexProbes,
					l.ExclusiveBatches-l0.ExclusiveBatches, l.TableAcquisitions-l0.TableAcquisitions)
				if err != nil {
					return "error: " + err.Error() + counts
				}
				return fmt.Sprint(rows.Columns, rows.Data) + counts
			}
			viaCache := func(db *DB) string {
				return outcome(db,
					func(...Value) (*Rows, error) { return db.Query(tc.stmt) },
					func(...Value) (Result, error) { return db.Exec(tc.stmt) })
			}
			// cold reaches the catalog after the first n change steps
			// without running stmt, then runs it once.
			cold := func(n int) string {
				db := Open()
				mustExec(t, db, tc.before)
				for _, step := range tc.after[:n] {
					mustExec(t, db, step)
				}
				return viaCache(db)
			}

			warm := Open()
			mustExec(t, warm, tc.before)
			held := Open()
			mustExec(t, held, tc.before)
			ps, err := held.Prepare(tc.stmt)
			if err != nil {
				t.Fatal(err)
			}
			viaHeld := func() string { return outcome(held, ps.Query, ps.Exec) }
			for range 2 {
				viaCache(warm)
				viaHeld()
			}
			prior := viaCache(warm)
			var got, want string
			for n, step := range tc.after {
				mustExec(t, warm, step)
				mustExec(t, held, step)
				want = cold(n + 1)
				if got = viaCache(warm); got != want {
					t.Errorf("after %q: warm outcome %s, want %s", step, got, want)
				}
				if out := viaHeld(); out != want {
					t.Errorf("after %q: PreparedStmt outcome %s, want %s", step, out, want)
				}
			}
			if !strings.Contains(want, tc.want) {
				t.Errorf("outcome after the change %s lacks %q", want, tc.want)
			}
			if got == prior {
				t.Errorf("outcome %s did not change with the catalog", got)
			}

			if tc.writes != "" {
				writeLocked := func(db *DB, c *compiled) bool {
					db.mu.RLock()
					defer db.mu.RUnlock()
					plan := db.analyze(c)
					return plan != nil && plan.write[tc.writes]
				}
				p, err := warm.prepare(tc.stmt)
				if err != nil {
					t.Fatal(err)
				}
				if !writeLocked(warm, p.compiled) {
					t.Errorf("cached batch does not write-lock %s after the change", tc.writes)
				}
				if !writeLocked(held, ps.p.compiled) {
					t.Errorf("held batch does not write-lock %s after the change", tc.writes)
				}
			}
		})
	}
}

// TestMemosUnderConcurrentDDL runs one normalized shape per statement
// kind with distinct literals from six goroutines — point and 5-row
// range reads on a UNION ALL COW view, and view-target UPDATEs through
// an INSTEAD OF trigger — while a seventh creates and drops indexes on
// both arms' tables, moving the catalog generation under them. Each
// worker owns its rows, so its own model checks every row it reads.
func TestMemosUnderConcurrentDDL(t *testing.T) {
	const workers, rowsPer, iters = 6, 20, 120
	db := Open()
	mustExec(t, db, `CREATE TABLE base (_id INTEGER PRIMARY KEY, owner INTEGER, val TEXT);
		CREATE TABLE delta (_id INTEGER PRIMARY KEY, owner INTEGER, val TEXT);
		CREATE VIEW cow AS
			SELECT _id, owner, val FROM delta UNION ALL
			SELECT _id, owner, val FROM base WHERE _id NOT IN (SELECT _id FROM delta);
		CREATE TRIGGER cow_update INSTEAD OF UPDATE ON cow BEGIN
			INSERT OR REPLACE INTO delta (_id, owner, val) VALUES (OLD._id, OLD.owner, NEW.val); END`)
	for w := 0; w < workers; w++ {
		for r := 0; r < rowsPer; r++ {
			id := w*100 + r
			mustExec(t, db, "INSERT INTO base VALUES (?, ?, ?)", int64(id), int64(w), fmt.Sprintf("base-%d", id))
		}
	}

	done := make(chan struct{})
	ddl := make(chan int)
	go func() {
		rounds := 0
		defer func() { ddl <- rounds }()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, sql := range []string{
				"CREATE INDEX base_owner ON base (owner)",
				"CREATE INDEX delta_owner ON delta (owner) USING HASH",
				"DROP INDEX base_owner",
				"DROP INDEX delta_owner",
			} {
				if _, err := db.Exec(sql); err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
			}
			rounds++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := make(map[int]string, rowsPer)
			for r := 0; r < rowsPer; r++ {
				model[w*100+r] = fmt.Sprintf("base-%d", w*100+r)
			}
			for i := 0; i < iters; i++ {
				id := w*100 + i%rowsPer
				rows, err := db.Query(fmt.Sprintf("SELECT val FROM cow WHERE owner = %d AND _id = %d", w, id))
				if err != nil {
					t.Errorf("point read: %v", err)
					return
				}
				if len(rows.Data) != 1 || rows.Data[0][0] != model[id] {
					t.Errorf("point read of %d = %v, want %q", id, rows.Data, model[id])
					return
				}

				lo := w*100 + i%(rowsPer-4)
				rows, err = db.Query(fmt.Sprintf(
					"SELECT _id, val FROM cow WHERE owner = %d AND _id >= %d AND _id <= %d ORDER BY _id", w, lo, lo+4))
				if err != nil {
					t.Errorf("range read: %v", err)
					return
				}
				if len(rows.Data) != 5 {
					t.Errorf("range read from %d returned %d rows, want 5", lo, len(rows.Data))
					return
				}
				for k, row := range rows.Data {
					if row[0] != int64(lo+k) || row[1] != model[lo+k] {
						t.Errorf("range read row %d = %v, want [%d %s]", k, row, lo+k, model[lo+k])
						return
					}
				}

				val := fmt.Sprintf("w%d-i%d", w, i)
				res, err := db.Exec(fmt.Sprintf("UPDATE cow SET val = '%s' WHERE _id = %d", val, id))
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if res.RowsAffected != 1 {
					t.Errorf("update of %d affected %d rows, want 1", id, res.RowsAffected)
					return
				}
				model[id] = val
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rounds := <-ddl
	if rounds == 0 {
		t.Error("no DDL round ran alongside the workers")
	}
	t.Logf("%d DDL rounds ran alongside the workers", rounds)
}
