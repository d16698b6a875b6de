package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	// Keys 21..40 are candidates: over integer keys the probe walks
	// exactly the keys the bounds admit, so _id < 41 stops at 40.
	got := explainDetail(t, db, "SELECT v FROM t WHERE _id >= ? AND _id < ?", int64(21), int64(41))
	if want := "SEARCH t USING PRIMARY KEY (_id>=? AND _id<?) (~20 rows)"; got != want {
		t.Errorf("EXPLAIN = %q, want %q", got, want)
	}
}

// TestResidualFailsWhereWhereFails: the conjuncts a probe leaves over
// are evaluated where the full WHERE would evaluate them. A NULL
// conjunct does not stop the AND, so a failing conjunct after it still
// fails the statement; a FALSE one stops it. The range is answered, so
// only the residual is evaluated.
func TestResidualFailsWhereWhereFails(t *testing.T) {
	db := pkRangeTable(t, "")
	for _, tc := range []struct {
		where string
		fails bool
	}{
		{"_id >= 1 AND _id < 5 AND v = NULL AND -v = 1", true},
		{"_id >= 1 AND _id < 5 AND v = 'none' AND -v = 1", false},
	} {
		for _, where := range []string{tc.where, "NOT NOT (" + tc.where + ")"} {
			if _, err := db.Query("SELECT _id FROM t WHERE " + where); (err != nil) != tc.fails {
				t.Errorf("WHERE %s: err = %v, want failure %v", where, err, tc.fails)
			}
		}
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
// level by level down to base tables, and EXPLAIN names each step; both
// arms walk their keys in order, so the ORDER BY merges them.
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
		"SEARCH a USING PRIMARY KEY (_id>=? AND _id<?) (~10 rows)",
		"SEARCH b USING PRIMARY KEY (_id>=? AND _id<?) (~10 rows)",
		"ORDER BY: MERGE 2 ARMS",
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

// TestPropAccessPathMatchesScan: on random tables, every access path
// returns what a scan returns, in the same order. Each table has gaps
// from deletes, so storage order is not key order; some have a text or
// float key, so not every key is an integer; and each has an ordered
// index on b (alone, or after a) holding NULL, integer, float and text
// values. Each query mixes range, = and BETWEEN conjuncts on _id, a
// and b, with NULL, integer, float and text constants, and residual
// terms no probe uses. It orders by _id, a or b, either way, by an
// expression or not at all, and runs over a base table, over a two-arm
// UNION ALL view of two such tables, and over the same UNION ALL
// written out. The reference is the same query with its WHERE inside
// NOT NOT (…), which the access shape does not see through, so every
// arm scans, filters in full and sorts stably. Results must match row
// for row, except where rows a secondary index finds are left unordered
// or tied (b + 0 is 0 for every text b, and rows of equal a come by b
// from an (a, b) index): those come in index order, so only the rows
// are compared, or each run of equal a as a set.
// UPDATE and DELETE under each WHERE must touch the rows the reference
// touches.
func TestPropAccessPathMatchesScan(t *testing.T) {
	served := map[string]int{} // how the ORDER BYs were served, by EXPLAIN
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := Open()
		for _, name := range []string{"t1", "t2"} {
			propTable(t, db, r, name)
		}
		mustExec(t, db, "CREATE VIEW u AS SELECT _id, a, b, c FROM t1 UNION ALL SELECT _id, a, b, c FROM t2")
		for q := 0; q < 150; q++ {
			where, args := propWhere(r)
			order := []string{"", " ORDER BY _id", " ORDER BY _id DESC", " ORDER BY a", " ORDER BY a DESC", " ORDER BY b", " ORDER BY b DESC", " ORDER BY b + 0"}[r.Intn(8)]
			ref := "NOT NOT (" + where + ")"
			for _, from := range []string{
				"SELECT _id, a, b, c FROM t1 WHERE %[1]s",
				"SELECT _id, a, b, c FROM u WHERE %[1]s",
				"SELECT _id, a, b, c FROM t1 WHERE %[1]s UNION ALL SELECT _id, a, b, c FROM t2 WHERE %[1]s",
			} {
				sql, args := from+order, args
				if strings.Contains(from, "UNION") {
					args = append(args[:len(args):len(args)], args...)
				}
				got := mustQuery(t, db, fmt.Sprintf(sql, where), args...)
				want := mustQuery(t, db, fmt.Sprintf(sql, ref), args...)
				var plan []string
				for _, row := range mustQuery(t, db, "EXPLAIN "+fmt.Sprintf(sql, where), args...).Data {
					plan = append(plan, AsString(row[1]))
				}
				if order != "" {
					served[plan[len(plan)-1]]++
				}
				// Without an ORDER BY, or with one that ties distinct
				// values (b + 0 is 0 for text), rows a secondary index
				// finds come in index order, not storage order.
				if (order == "" || strings.Contains(order, "+")) && strings.Contains(strings.Join(plan, "\n"), " INDEX ") {
					sortRows(got.Data)
					sortRows(want.Data)
				}
				if strings.HasPrefix(order, " ORDER BY a") {
					sortTies(got.Data, 1)
					sortTies(want.Data, 1)
				}
				if !reflect.DeepEqual(got.Data, want.Data) {
					t.Fatalf("seed %d: %s %v\nplan %q\ngot  %v\nwant %v", seed, fmt.Sprintf(sql, where), args, plan, got.Data, want.Data)
				}
			}
			upd := mustExec(t, db, "UPDATE t1 SET c = c WHERE "+where, args...)
			if ref := mustExec(t, db, "UPDATE t1 SET c = c WHERE "+ref, args...); upd.RowsAffected != ref.RowsAffected {
				t.Fatalf("seed %d: UPDATE WHERE %s %v: %d rows, want %d", seed, where, args, upd.RowsAffected, ref.RowsAffected)
			}
			got := propDelete(t, db, where, args)
			if want := propDelete(t, db, ref, args); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: DELETE WHERE %s %v left %v, want %v", seed, where, args, got, want)
			}
		}
	}
	for _, how := range []string{"ORDER BY: PLAN ORDER", "ORDER BY: MERGE 2 ARMS", "ORDER BY: SORT"} {
		if served[how] == 0 {
			t.Errorf("no query was served by %q: %v", how, served)
		}
	}
}

// propTable creates and fills one table of TestPropAccessPathMatchesScan.
func propTable(t *testing.T, db *DB, r *rand.Rand, name string) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE "+name+" (_id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT)")
	if r.Intn(2) == 0 {
		mustExec(t, db, "CREATE INDEX "+name+"_b ON "+name+" (b)")
	} else {
		mustExec(t, db, "CREATE INDEX "+name+"_ab ON "+name+" (a, b)")
	}
	const n = 40
	for id := 1; id <= n; id++ {
		mustExec(t, db, "INSERT INTO "+name+" (_id, a, b, c) VALUES (?, ?, ?, ?)",
			int64(id), propA(r), propB(r), []Value{nil, "x", "y"}[r.Intn(3)])
	}
	for i := 0; i < n/4; i++ {
		mustExec(t, db, "DELETE FROM "+name+" WHERE _id = ?", int64(1+r.Intn(n)))
	}
	// A key byPK still maps to its row, at AsInt(key), though it is not
	// an integer: numeric text, which compare() sorts after every
	// number, or a float between two integer keys.
	switch m := int64(1 + r.Intn(n)); r.Intn(4) {
	case 0:
		mustExec(t, db, "UPDATE "+name+" SET _id = ? WHERE _id = ?", fmt.Sprint(m), m)
	case 1:
		mustExec(t, db, "UPDATE "+name+" SET _id = ? WHERE _id = ?", float64(m)+0.5, m)
	}
}

func propA(r *rand.Rand) Value { return []Value{nil, int64(0), int64(1), int64(2)}[r.Intn(4)] }

// propB draws an index key: NULL, an integer, a float or text.
func propB(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return float64(r.Intn(10)) + 0.5
	case 2:
		return fmt.Sprintf("k%d", r.Intn(4))
	}
	return int64(r.Intn(10))
}

// propWhere draws one to three conjuncts, each a range, = or BETWEEN
// on _id, a or b, or a residual term, with the constants as arguments.
func propWhere(r *rand.Rand) (string, []Value) {
	var terms []string
	var args []Value
	idVal := func() Value {
		switch r.Intn(6) {
		case 0:
			return nil
		case 1:
			return float64(r.Intn(44)) - 1.5
		case 2:
			return []Value{"7", "k1", 7.5}[r.Intn(3)]
		}
		return int64(r.Intn(44) - 2)
	}
	ops := []string{"=", "<", "<=", ">", ">="}
	for range 1 + r.Intn(3) {
		switch r.Intn(8) {
		case 0, 1: // a window on _id, as the range reads send
			lo := int64(r.Intn(40))
			terms = append(terms, "_id "+ops[3+r.Intn(2)]+" ? AND _id "+ops[1+r.Intn(2)]+" ?")
			args = append(args, lo, lo+int64(r.Intn(15)))
		case 2:
			terms = append(terms, "_id "+ops[max(0, r.Intn(9)-4)]+" ?")
			args = append(args, idVal())
		case 3:
			terms = append(terms, []string{"b BETWEEN ? AND ?", "b >= ? AND b < ?", "? < b"}[r.Intn(3)])
			args = append(args, propB(r))
			if !strings.HasPrefix(terms[len(terms)-1], "?") {
				args = append(args, propB(r))
			}
		case 4:
			terms = append(terms, "b "+ops[r.Intn(5)]+" ?")
			args = append(args, propB(r))
		case 5:
			terms = append(terms, "a = ?")
			args = append(args, propA(r))
		case 6: // a range an (a, b) index walks in a order
			term := []string{"a > ?", "a >= ? AND a <= ?", "a BETWEEN ? AND ?"}[r.Intn(3)]
			terms = append(terms, term)
			for range strings.Count(term, "?") {
				args = append(args, []Value{propA(r), propB(r)}[r.Intn(2)])
			}
		default:
			terms = append(terms, []string{"c <> 'x'", "a IS NOT NULL", "(b > 3 OR c = 'y')", "_id BETWEEN 5 AND 30"}[r.Intn(4)])
		}
	}
	return strings.Join(terms, " AND "), args
}

// propDelete deletes the rows of t1 under where inside a transaction it
// rolls back, and returns the count and the rows that were left, sorted.
func propDelete(t *testing.T, db *DB, where string, args []Value) []any {
	t.Helper()
	mustExec(t, db, "BEGIN")
	res := mustExec(t, db, "DELETE FROM t1 WHERE "+where, args...)
	left := mustQuery(t, db, "SELECT _id, a, b, c FROM t1").Data
	mustExec(t, db, "ROLLBACK")
	sortRows(left)
	return []any{res.RowsAffected, left}
}

// sortTies puts each run of rows equal in column col in a canonical
// order.
func sortTies(rows [][]Value, col int) {
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && compare(rows[j][col], rows[i][col]) == 0 {
			j++
		}
		sortRows(rows[i:j])
		i = j
	}
}

// sortRows puts rows in a canonical order.
func sortRows(rows [][]Value) {
	slices.SortStableFunc(rows, compareKeys)
}
