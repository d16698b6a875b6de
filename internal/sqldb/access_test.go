package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// pkRangeTable builds t with keys -5..-1 and 1..100, then deletes two
// keys so swap-compaction leaves storage order different from key
// order. mutate, when non-empty, runs last.
func pkRangeTable(t *testing.T, mutate string) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT)")
	for id := int64(-5); id <= 100; id++ {
		if id != 0 {
			mustExec(t, db, "INSERT INTO t (_id, v) VALUES (?, ?)", id, fmt.Sprintf("r%d", id))
		}
	}
	mustExec(t, db, "DELETE FROM t WHERE _id = 10")
	mustExec(t, db, "DELETE FROM t WHERE _id = 20")
	if mutate != "" {
		mustExec(t, db, mutate)
	}
	return db
}

// explainDetail returns the detail column of a single-table EXPLAIN.
func explainDetail(t *testing.T, db *DB, sql string, args ...Value) string {
	t.Helper()
	rows := mustQuery(t, db, "EXPLAIN "+sql, args...)
	if len(rows.Data) != 1 {
		t.Fatalf("EXPLAIN %s: %v", sql, rows.Data)
	}
	return AsString(rows.Data[0][1])
}

// TestPKRangeProbeEdgeCases checks the primary-key range probe against
// the same predicate under NOT NOT, which no probe can use: rows (in
// order, since the probe yields storage order like a scan), UPDATE
// counts, and the access path EXPLAIN reports. (_id+0 would not do as
// the reference: it turns the text key 'abc' into 0.)
func TestPKRangeProbeEdgeCases(t *testing.T) {
	const (
		halfOpen  = "_id >= ? AND _id < ?"
		closed    = "_id >= ? AND _id <= ?"
		open      = "_id > ? AND _id < ?"
		flipped   = "? <= _id AND ? > _id"
		between   = "_id BETWEEN ? AND ?"
		oneSided  = "_id >= ? AND v <> ?"
		probePath = "SEARCH t USING PRIMARY KEY"
		scanPath  = "SCAN t"
	)
	tables := []struct {
		name   string
		mutate string
		exact  bool // byPK still reaches every row
	}{
		{"clean", "", true},
		{"float key", "UPDATE t SET _id = 150.5 WHERE _id = 50", true},
		{"text key", "UPDATE t SET _id = 'abc' WHERE _id = 50", false},
		{"duplicate key", "UPDATE t SET _id = 7 WHERE _id = 8", false},
	}
	cases := []struct {
		name   string
		where  string
		lo, hi Value
		probe  bool // uses the probe on a table whose keys are exact
	}{
		{"half-open", halfOpen, int64(5), int64(25), true},
		{"inclusive", closed, int64(5), int64(25), true},
		{"exclusive", open, int64(5), int64(25), true},
		{"constant on the left", flipped, int64(5), int64(25), true},
		{"between", between, int64(5), int64(25), true},
		{"float bounds", halfOpen, 4.5, 9.5, true},
		{"float bounds exclusive", open, 4.5, 9.5, true},
		{"float key window", closed, 150.2, 150.7, true},
		{"float key integer bounds", halfOpen, int64(150), int64(151), true},
		{"negative", closed, int64(-4), int64(3), true},
		{"inverted", halfOpen, int64(30), int64(10), true},
		{"empty", closed, int64(200), int64(210), true},
		{"wider than the table", halfOpen, int64(-1000), int64(1000), false},
		{"text lower bound", halfOpen, "a", int64(50), false},
		{"text upper bound", halfOpen, int64(5), "z", false},
		{"NULL bound", halfOpen, nil, int64(50), false},
		{"beyond 2^53", closed, int64(1<<53 + 1), int64(1<<53 + 5), false},
		{"one-sided", oneSided, int64(90), "r95", false},
	}
	for _, tb := range tables {
		for _, tc := range cases {
			t.Run(tb.name+"/"+tc.name, func(t *testing.T) {
				db := pkRangeTable(t, tb.mutate)
				ref := "NOT NOT (" + tc.where + ")"

				before := db.Stats()
				got := mustQuery(t, db, "SELECT _id, v FROM t WHERE "+tc.where, tc.lo, tc.hi)
				after := db.Stats()
				want := mustQuery(t, db, "SELECT _id, v FROM t WHERE "+ref, tc.lo, tc.hi)
				if !reflect.DeepEqual(got.Data, want.Data) {
					t.Errorf("rows = %v, want %v", got.Data, want.Data)
				}

				probe := tc.probe && tb.exact
				detail := explainDetail(t, db, "SELECT _id, v FROM t WHERE "+tc.where, tc.lo, tc.hi)
				wantPath, probes := scanPath, int64(0)
				if probe {
					wantPath, probes = probePath, 1
				}
				if !strings.HasPrefix(detail, wantPath) {
					t.Errorf("EXPLAIN = %q, want %s", detail, wantPath)
				}
				if n := after.PKProbes - before.PKProbes; n != probes {
					t.Errorf("PKProbes += %d, want %d", n, probes)
				}

				// UPDATE takes the same access path; v = v leaves the
				// rows as they were, so both forms see the same table.
				gotRes := mustExec(t, db, "UPDATE t SET v = v WHERE "+tc.where, tc.lo, tc.hi)
				wantRes := mustExec(t, db, "UPDATE t SET v = v WHERE "+ref, tc.lo, tc.hi)
				if gotRes.RowsAffected != wantRes.RowsAffected {
					t.Errorf("UPDATE affected %d, want %d", gotRes.RowsAffected, wantRes.RowsAffected)
				}
			})
		}
	}
}

// TestPKRangeProbeExplain pins the EXPLAIN wording of a range probe.
func TestPKRangeProbeExplain(t *testing.T) {
	db := pkRangeTable(t, "")
	// Keys 21..41 are candidates: the probe spans [floor(lo), ceil(hi)]
	// and leaves the exclusive bound to the WHERE.
	got := explainDetail(t, db, "SELECT v FROM t WHERE _id >= ? AND _id < ?", int64(21), int64(41))
	if want := "SEARCH t USING PRIMARY KEY (_id>=? AND _id<?) (~21 rows)"; got != want {
		t.Errorf("EXPLAIN = %q, want %q", got, want)
	}
}

// TestEmptyProbeVisitsNoRows: an UPDATE whose probe finds no candidate
// evaluates its WHERE on no row. The IN subquery is evaluated on the
// first row the WHERE visits, so its scan shows whether any row was.
func TestEmptyProbeVisitsNoRows(t *testing.T) {
	db := pkRangeTable(t, "")
	mustExec(t, db, "CREATE TABLE other (v TEXT)")
	for _, tc := range []struct {
		where string
		args  []Value
	}{
		{"_id = ?", []Value{int64(500)}},
		{"_id >= ? AND _id < ?", []Value{int64(500), int64(505)}},
	} {
		before := db.Stats()
		res := mustExec(t, db, "UPDATE t SET v = 'x' WHERE v IN (SELECT v FROM other) AND "+tc.where, tc.args...)
		after := db.Stats()
		if res.RowsAffected != 0 {
			t.Errorf("%s: affected %d rows", tc.where, res.RowsAffected)
		}
		if after.PKProbes != before.PKProbes+1 || after.SeqScans != before.SeqScans {
			t.Errorf("%s: pk probes +%d, seq scans +%d; want +1, +0",
				tc.where, after.PKProbes-before.PKProbes, after.SeqScans-before.SeqScans)
		}
	}
}

// TestViewMergeColumnGuard: a query over a view may only name the
// view's columns. Merging must not let WHERE, the select list or ORDER
// BY reach a column the view hides; the planner leaves such queries
// unmerged and they fail, whether the view is UNION ALL, single-core,
// or a single-core view over a UNION ALL view. The unknown column
// fails when the statement binds, before any view is read, so the
// planner is asked directly whether it merges.
func TestViewMergeColumnGuard(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (_id INTEGER PRIMARY KEY, v INTEGER, hidden INTEGER)")
	mustExec(t, db, "CREATE TABLE b (_id INTEGER PRIMARY KEY, v INTEGER, hidden INTEGER)")
	mustExec(t, db, "INSERT INTO a (v, hidden) VALUES (1, 1), (2, 0)")
	mustExec(t, db, "INSERT INTO b (v, hidden) VALUES (3, 1)")
	mustExec(t, db, "CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
	mustExec(t, db, "CREATE VIEW s AS SELECT _id, v FROM a WHERE v > 0")
	mustExec(t, db, "CREATE VIEW su AS SELECT _id, v FROM u WHERE v > 0")

	for _, view := range []string{"u", "s", "su"} {
		for _, q := range []string{
			"SELECT v FROM %s WHERE hidden = 1",
			"SELECT v FROM %s WHERE %[1]s.hidden = 1",
			"SELECT hidden FROM %s",
			"SELECT v, hidden + 0 FROM %s",
			"SELECT * FROM %s ORDER BY hidden",
		} {
			sql := fmt.Sprintf(q, view)
			_, err := db.Query(sql)
			if err == nil || !strings.Contains(err.Error(), "no such column") {
				t.Errorf("%s: err = %v, want no such column", sql, err)
			}
			if planMerges(t, db, sql) {
				t.Errorf("%s: view merged", sql)
			}
		}
		// Control: naming only view columns merges.
		sql := fmt.Sprintf("SELECT v FROM %s WHERE %[1]s.v >= 1 AND _id > 0 ORDER BY v", view)
		before := db.Stats()
		rows := mustQuery(t, db, sql)
		after := db.Stats()
		if after.FlattenedQueries != before.FlattenedQueries+1 || after.MaterializedViews != before.MaterializedViews {
			t.Errorf("%s: not merged (%+v -> %+v)", sql, before, after)
		}
		if len(rows.Data) == 0 {
			t.Errorf("%s: no rows", sql)
		}
	}
}

// planMerges reports whether the planner merges a view into the
// select sql.
func planMerges(t *testing.T, db *DB, sql string) bool {
	t.Helper()
	stmts, err := parseAll(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmts[0].(*SelectStmt)
	db.mu.RLock()
	defer db.mu.RUnlock()
	ex := &executor{db: db}
	return ex.mergeViews(sel, nil) != sel
}

// TestViewMergeExplain: a single-core view over a UNION ALL view merges
// level by level down to base tables, and EXPLAIN names each step.
func TestViewMergeExplain(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (_id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE TABLE b (_id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 1; i <= 40; i++ {
		mustExec(t, db, "INSERT INTO a (v) VALUES (?)", int64(i))
		mustExec(t, db, "INSERT INTO b (v) VALUES (?)", int64(i))
	}
	mustExec(t, db, "CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
	mustExec(t, db, "CREATE VIEW su AS SELECT _id, v FROM u WHERE v > 0")

	rows := mustQuery(t, db, "EXPLAIN SELECT _id, v FROM su WHERE _id >= ? AND _id < ? ORDER BY _id", int64(5), int64(15))
	var got []string
	for _, r := range rows.Data {
		got = append(got, AsString(r[1]))
	}
	want := []string{
		"MERGE VIEW su",
		"FLATTEN UNION ALL VIEW u INTO 2 ARMS",
		"SEARCH a USING PRIMARY KEY (_id>=? AND _id<?) (~11 rows)",
		"SEARCH b USING PRIMARY KEY (_id>=? AND _id<?) (~11 rows)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EXPLAIN =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestViewWithDuplicateColumnsNotMerged: in a view whose column names
// repeat, a reference to the name means its first column. Merging
// would substitute the last, so such a view is materialized.
func TestViewWithDuplicateColumnsNotMerged(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (_id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE TABLE b (_id INTEGER PRIMARY KEY, a_id INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO a (_id, v) VALUES (1, 10)")
	mustExec(t, db, "INSERT INTO b (_id, a_id, v) VALUES (1, 1, 20)")
	mustExec(t, db, "CREATE VIEW d AS SELECT a.v, b.v FROM a JOIN b ON b.a_id = a._id")
	rows := mustQuery(t, db, "SELECT v FROM d WHERE v = 10")
	if len(rows.Data) != 1 || rows.Data[0][0] != int64(10) {
		t.Errorf("rows = %v, want [[10]]", rows.Data)
	}
}

// TestPKInListProbeExplain pins the EXPLAIN wording of an IN-list
// probe on the primary key.
func TestPKInListProbeExplain(t *testing.T) {
	db := pkRangeTable(t, "")
	got := explainDetail(t, db, "SELECT v FROM t WHERE _id IN (?, ?, 7)", int64(3), int64(40))
	if want := "SEARCH t USING PRIMARY KEY (_id IN (?,…))"; got != want {
		t.Errorf("EXPLAIN = %q, want %q", got, want)
	}
}
