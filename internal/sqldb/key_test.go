package sqldb

import (
	"math"
	"reflect"
	"testing"
)

// Sets, groups and hash buckets key values with rowKey over valueKey.
// These tests pin that key to compare()'s equality: two tuples share a
// key exactly when their values are pairwise equal under compare().

// TestKeyNegativeZero: -0.0 equals 0 under compare, so an IN subquery's
// set, DISTINCT, GROUP BY and every access path must treat them as one
// value, whether -0.0 arrives as a literal or a bound argument.
func TestKeyNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	db := Open()
	mustExec(t, db, "CREATE TABLE z (_id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO z (_id) VALUES (0)")
	for _, q := range []string{
		"SELECT -0.0 IN (SELECT _id FROM z WHERE 1)",
		"SELECT -0.0 IN (0)",
		"SELECT -0.0 = 0",
	} {
		if got := mustQuery(t, db, q).Data[0][0]; got != int64(1) {
			t.Errorf("%s = %v, want 1", q, got)
		}
	}
	if got := mustQuery(t, db, "SELECT ? IN (SELECT _id FROM z WHERE 1)", negZero).Data[0][0]; got != int64(1) {
		t.Errorf("bound -0.0 IN (SELECT _id FROM z WHERE 1) = %v, want 1", got)
	}

	paths := []struct {
		name, ddl string
		probe     bool // the equality must go through the index
	}{
		{"scan", "", false},
		{"ordered index", "CREATE INDEX t_a ON t (a)", true},
		{"hash index", "CREATE INDEX t_a ON t (a) USING HASH", true},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			db := Open()
			mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, a REAL)")
			if p.ddl != "" {
				mustExec(t, db, p.ddl)
			}
			for i := 1; i <= 50; i++ { // enough rows that the planner probes
				mustExec(t, db, "INSERT INTO t (a) VALUES (?)", int64(i))
			}
			mustExec(t, db, "INSERT INTO t (a) VALUES (0)")
			mustExec(t, db, "INSERT INTO t (a) VALUES (?)", negZero)
			for _, arg := range []Value{int64(0), negZero} {
				before := db.Stats().IndexProbes
				if got := mustQuery(t, db, "SELECT count(*) FROM t WHERE a = ?", arg).Data[0][0]; got != int64(2) {
					t.Errorf("count(*) WHERE a = %v: %v, want 2", arg, got)
				}
				if probed := db.Stats().IndexProbes > before; probed != p.probe {
					t.Errorf("WHERE a = %v probed the index: %v, want %v", arg, probed, p.probe)
				}
			}
			if got := mustQuery(t, db, "SELECT count(*) FROM t WHERE a = 0").Data[0][0]; got != int64(2) {
				t.Errorf("count(*) WHERE a = 0: %v, want 2", got)
			}
			if got := mustQuery(t, db, "SELECT DISTINCT a FROM t WHERE a < 1").Data; len(got) != 1 {
				t.Errorf("DISTINCT over 0 and -0.0 = %v, want one row", got)
			}
			if got := mustQuery(t, db, "SELECT count(*) FROM t WHERE a < 1 GROUP BY a").Data; !reflect.DeepEqual(got, [][]Value{{int64(2)}}) {
				t.Errorf("GROUP BY over 0 and -0.0 = %v, want one group of 2", got)
			}
		})
	}
}

// TestKeyTuplesDoNotCollide: a tuple key must not be ambiguous in how
// its components split. The rows below rendered alike under the old
// "%T|%v|" DISTINCT and GROUP BY key, and under the old NUL-separated
// hash key.
func TestKeyTuplesDoNotCollide(t *testing.T) {
	pairs := [][2]Value{
		{"x|string|y", "z"}, {"x", "y|string|z"},
		{"a", "b\x00sc"}, {"a\x00sb", "c"},
	}
	for _, ddl := range []string{"", "CREATE INDEX t_ab ON t (a, b) USING HASH"} {
		db := Open()
		mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, a TEXT, b TEXT)")
		if ddl != "" {
			mustExec(t, db, ddl)
		}
		for _, p := range pairs {
			mustExec(t, db, "INSERT INTO t (a, b) VALUES (?, ?)", p[0], p[1])
		}
		if got := mustQuery(t, db, "SELECT DISTINCT a, b FROM t").Data; len(got) != len(pairs) {
			t.Errorf("%q: DISTINCT a, b = %q, want %d rows", ddl, got, len(pairs))
		}
		for _, row := range mustQuery(t, db, "SELECT count(*) FROM t GROUP BY a, b").Data {
			if row[0] != int64(1) {
				t.Errorf("%q: GROUP BY a, b merged distinct rows: %v", ddl, row)
			}
		}
		for _, p := range pairs {
			if got := mustQuery(t, db, "SELECT count(*) FROM t WHERE a = ? AND b = ?", p[0], p[1]).Data[0][0]; got != int64(1) {
				t.Errorf("%q: count(*) WHERE (a, b) = %q: %v, want 1", ddl, p, got)
			}
		}
	}
}

// TestKeyIntegralFloat: 1 and 1.0 are equal under compare, as "a = 1"
// shows by matching both, so DISTINCT keeps one row and GROUP BY forms
// one group.
func TestKeyIntegralFloat(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, a)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (?), (?)", int64(1), 1.0)
	if got := mustQuery(t, db, "SELECT count(*) FROM t WHERE a = 1").Data[0][0]; got != int64(2) {
		t.Fatalf("count(*) WHERE a = 1: %v, want 2", got)
	}
	if got := mustQuery(t, db, "SELECT DISTINCT a FROM t").Data; len(got) != 1 {
		t.Errorf("DISTINCT over 1 and 1.0 = %v, want one row", got)
	}
	if got := mustQuery(t, db, "SELECT count(*) FROM t GROUP BY a").Data; !reflect.DeepEqual(got, [][]Value{{int64(2)}}) {
		t.Errorf("GROUP BY over 1 and 1.0 = %v, want one group of 2", got)
	}
}

// TestHashIndexLeavesOutNullKeys: a hash index holds no row whose key
// holds a NULL, since no `=` probe can match one. An index over NULL
// keys is empty, an = NULL probe finds no row, and rows moving into and
// out of NULL keys, or swapped into a deleted row's place, keep the
// index consistent with the table.
func TestHashIndexLeavesOutNullKeys(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a) USING HASH")
	mustExec(t, db, "CREATE INDEX t_ab ON t (a, b) USING HASH")
	for i := 1; i <= 20; i++ {
		mustExec(t, db, "INSERT INTO t (b) VALUES (?)", int64(i%3))
	}
	rows := func() map[string]int {
		infos, _ := db.TableIndexes("t")
		out := map[string]int{}
		for _, ix := range infos {
			out[ix.Name] = ix.Rows
		}
		return out
	}
	if got := rows(); got["t_a"] != 0 || got["t_ab"] != 0 {
		t.Errorf("indexed rows over NULL keys = %v, want none", got)
	}
	for _, tc := range []struct {
		where string
		args  []Value
	}{
		{"a = NULL", nil},
		{"a = ?", []Value{nil}},
		{"a = ? AND b = ?", []Value{nil, int64(1)}},
	} {
		before := db.Stats().IndexProbes
		if got := mustQuery(t, db, "SELECT _id FROM t WHERE "+tc.where, tc.args...).Data; len(got) != 0 {
			t.Errorf("WHERE %s %v: %v, want no rows", tc.where, tc.args, got)
		}
		if db.Stats().IndexProbes == before {
			t.Errorf("WHERE %s did not probe the hash index", tc.where)
		}
	}
	mustExec(t, db, "UPDATE t SET a = 1 WHERE _id <= 5")
	mustExec(t, db, "DELETE FROM t WHERE _id = 2") // the last row moves into its place
	mustExec(t, db, "UPDATE t SET a = NULL WHERE _id = 3")
	mustExec(t, db, "UPDATE t SET a = 2 WHERE _id = 20")
	if err := db.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got["t_a"] != 4 || got["t_ab"] != 4 {
		t.Errorf("indexed rows = %v, want 4 in each (ids 1, 4, 5 and 20)", got)
	}
	if got := mustQuery(t, db, "SELECT _id FROM t WHERE a = 1 ORDER BY _id").Data; !reflect.DeepEqual(got, [][]Value{{int64(1)}, {int64(4)}, {int64(5)}}) {
		t.Errorf("WHERE a = 1: %v, want ids 1, 4, 5", got)
	}
}

// TestBindNaNAsNull: a NaN argument binds as NULL, as SQLite stores it,
// so a primary-key probe and a scan of the same WHERE agree (neither
// matches), and NaN compares to nothing.
func TestBindNaNAsNull(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, a INTEGER)")
	for i := 1; i <= 5; i++ {
		mustExec(t, db, "INSERT INTO t (a) VALUES (?)", int64(i))
	}
	probe := len(mustQuery(t, db, "SELECT _id FROM t WHERE _id = ?", math.NaN()).Data)
	scan := len(mustQuery(t, db, "SELECT _id FROM t WHERE NOT NOT (_id = ?)", math.NaN()).Data)
	if probe != 0 || scan != 0 {
		t.Errorf("WHERE _id = NaN: probe %d rows, scan %d, want 0 and 0", probe, scan)
	}
	for _, nan := range []Value{math.NaN(), float32(math.NaN())} {
		if got := mustQuery(t, db, "SELECT ? = 3", nan).Data[0][0]; got != nil {
			t.Errorf("%T NaN = 3 is %v, want NULL", nan, got)
		}
	}
	mustExec(t, db, "INSERT INTO t (_id, a) VALUES (6, ?)", math.NaN())
	if got := mustQuery(t, db, "SELECT a IS NULL FROM t WHERE _id = 6").Data[0][0]; got != int64(1) {
		t.Errorf("a stored NaN IS NULL = %v, want 1", got)
	}
}

// TestExponentLiteral: a numeric literal may carry an exponent, as in
// SQLite; it reads as a float, and the 'e' is not an alias.
func TestExponentLiteral(t *testing.T) {
	db := Open()
	for _, tc := range []struct {
		q    string
		want Value
	}{
		{"SELECT 1e308", 1e308},
		{"SELECT 1e3 * 2", 2000.0},
		{"SELECT 2.5E-1", 0.25},
		{"SELECT .5e+1", 5.0},
		{"SELECT 1e0 = 1", int64(1)},
	} {
		rows := mustQuery(t, db, tc.q)
		if len(rows.Columns) != 1 || rows.Data[0][0] != tc.want {
			t.Errorf("%s = %v %v, want one column %v", tc.q, rows.Columns, rows.Data, tc.want)
		}
	}
	if _, err := db.Query("SELECT 1e309"); err == nil {
		t.Error("SELECT 1e309: no error for a literal out of range")
	}
}
