package sqldb

import (
	"fmt"
	"testing"
)

// TestNameResolution pins how names bind: qualifiers and aliases, case
// folding, the first match among a join's columns, outer references
// from correlated subqueries, NEW and OLD in trigger bodies, ORDER BY's
// output-then-source order, and unknown names on empty tables. Each
// case runs exec (if any) and then query on a fresh database, and
// compares the rows or the error.
func TestNameResolution(t *testing.T) {
	const schema = `CREATE TABLE a (_id INTEGER PRIMARY KEY, x TEXT, n INTEGER);
		CREATE TABLE b (_id INTEGER PRIMARY KEY, a_id INTEGER, y TEXT);
		CREATE TABLE e (_id INTEGER PRIMARY KEY, z TEXT);
		CREATE TABLE log (_id INTEGER PRIMARY KEY, ev TEXT, nv TEXT, ov TEXT);
		INSERT INTO a VALUES (1, 'c', 30), (2, 'b', 10), (3, 'a', 20);
		INSERT INTO b VALUES (1, 2, 'b'), (2, 3, 'zz'), (5, 9, 'q');
		CREATE VIEW av AS SELECT _id, x FROM a;
		CREATE TRIGGER av_ins INSTEAD OF INSERT ON av BEGIN
			INSERT INTO log (ev, nv) VALUES ('ins', NEW.x); END;
		CREATE TRIGGER av_upd INSTEAD OF UPDATE ON av BEGIN
			INSERT INTO log (ev, nv, ov) VALUES ('upd', x, OLD.x); END;
		CREATE TRIGGER av_del INSTEAD OF DELETE ON av BEGIN
			INSERT INTO log (ev, ov) VALUES ('del', old.x); END`
	const logQuery = "SELECT ev, nv, ov FROM log ORDER BY _id"
	cases := []struct {
		name  string
		exec  string // run first when non-empty
		query string
		want  string // fmt.Sprint of the rows, or "error: " + the error
	}{
		{name: "unqualified", query: "SELECT x FROM a WHERE n = 10", want: "[[b]]"},
		{name: "qualified by table name", query: "SELECT a.x FROM a WHERE a._id = 3", want: "[[a]]"},
		{name: "qualified by alias", query: "SELECT t.x FROM a AS t WHERE t._id = 1", want: "[[c]]"},
		{name: "alias hides the table name", query: "SELECT a.x FROM a AS t",
			want: "error: sqldb: no such column: a.x"},
		{name: "case folded", query: "SELECT X FROM A WHERE A._ID = 2 AND N = 10", want: "[[b]]"},
		{name: "ambiguous _id binds to the left table",
			query: "SELECT _id, y FROM a JOIN b ON b.a_id = a._id ORDER BY y", want: "[[2 b] [3 zz]]"},
		// Row a2 is the only match, and it is not the first row read: a
		// set computed once for the first row would select nothing.
		{name: "correlated IN reads an unqualified outer column",
			query: "SELECT x FROM a WHERE _id IN (SELECT a_id FROM b WHERE y = x)", want: "[[b]]"},
		{name: "correlated EXISTS",
			query: "SELECT x FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.a_id = a._id) ORDER BY x", want: "[[a] [b]]"},
		{name: "correlated NOT EXISTS",
			query: "SELECT _id FROM a WHERE NOT EXISTS (SELECT 1 FROM b WHERE a_id = a._id)", want: "[[1]]"},
		{name: "correlated scalar subquery",
			query: "SELECT _id, (SELECT y FROM b WHERE a_id = a._id) FROM a ORDER BY _id", want: "[[1 <nil>] [2 b] [3 zz]]"},
		{name: "innermost scope wins",
			query: "SELECT _id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE _id = 5)", want: "[[1] [2] [3]]"},
		{name: "UPDATE reads qualified and unqualified columns",
			exec: "UPDATE a SET n = a.n + _id WHERE a._id = 1", query: "SELECT n FROM a WHERE _id = 1", want: "[[31]]"},
		{name: "DELETE with a correlated subquery",
			exec:  "DELETE FROM b WHERE NOT EXISTS (SELECT 1 FROM a WHERE a._id = b.a_id)",
			query: "SELECT _id FROM b ORDER BY _id", want: "[[1] [2]]"},
		// av_upd's unqualified x is NEW.x: NEW comes before OLD.
		{name: "NEW and OLD in INSERT, UPDATE and DELETE triggers",
			exec:  "INSERT INTO av (_id, x) VALUES (9, 'nine'); UPDATE av SET x = 'new' WHERE _id = 1; DELETE FROM av WHERE _id = 2",
			query: logQuery, want: "[[ins nine <nil>] [upd new c] [del <nil> b]]"},
		{name: "UPDATE SET through a view reads the view row",
			exec: "UPDATE av SET x = x || '!' WHERE _id = 3", query: logQuery, want: "[[upd a! a]]"},
		{name: "UPDATE SET of a column the view lacks",
			exec: "UPDATE av SET nope = 1", query: logQuery, want: "error: sqldb: view av has no column nope"},
		// The output x is a._id, so rows come back in _id order; the
		// source x would sort them the other way round.
		{name: "ORDER BY prefers an output alias to a source column",
			query: "SELECT x AS _id, _id AS x FROM a ORDER BY x", want: "[[c 1] [b 2] [a 3]]"},
		{name: "ORDER BY a source column that is not projected",
			query: "SELECT x FROM a ORDER BY n", want: "[[b] [a] [c]]"},
		{name: "ORDER BY falls back to the outer query",
			query: "SELECT _id, (SELECT y FROM b ORDER BY n LIMIT 1) FROM a ORDER BY _id", want: "[[1 b] [2 b] [3 b]]"},
		{name: "no such column in the select list of an empty table",
			query: "SELECT bogus FROM e", want: "error: sqldb: no such column: bogus"},
		{name: "no such column in the WHERE of an empty table",
			query: "SELECT z FROM e WHERE bogus = 1", want: "error: sqldb: no such column: bogus"},
		{name: "no such qualified column on an empty table",
			query: "SELECT e.bogus FROM e", want: "error: sqldb: no such column: e.bogus"},
		// A view body binds in its own scope only, as in SQLite: y is
		// not a column of a, and the caller's b row does not supply it.
		// Before bindings existed this read b.y and returned [[1]].
		{name: "view body binds in its own scope",
			exec:  "CREATE VIEW vy AS SELECT _id FROM a WHERE x = y",
			query: "SELECT _id FROM b WHERE EXISTS (SELECT 1 FROM vy)", want: "error: sqldb: no such column: y"},
		// The same rule for a FROM-clause subquery; it, too, returned
		// [[1]] before bindings existed.
		{name: "FROM subquery binds in its own scope",
			query: "SELECT _id FROM b WHERE EXISTS (SELECT 1 FROM (SELECT _id FROM a WHERE x = y))",
			want:  "error: sqldb: no such column: y"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := Open()
			mustExec(t, db, schema)
			got := func() string {
				if tc.exec != "" {
					if _, err := db.Exec(tc.exec); err != nil {
						return "error: " + err.Error()
					}
				}
				rows, err := db.Query(tc.query)
				if err != nil {
					return "error: " + err.Error()
				}
				return fmt.Sprint(rows.Data)
			}()
			if got != tc.want {
				t.Errorf("got %s, want %s", got, tc.want)
			}
		})
	}
}

// TestPKSubqueryShape: only a bare "SELECT pk FROM t" is answered from
// t's primary-key map; with a LIMIT, ORDER BY or WHERE the subquery
// runs. The map used to answer the LIMIT forms too, as if unlimited.
func TestPKSubqueryShape(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT); INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT _id FROM t WHERE _id IN (SELECT _id FROM t)", "[[1] [2] [3]]"},
		{"SELECT _id FROM t WHERE _id IN (SELECT _id FROM t LIMIT 1)", "[[1]]"},
		{"SELECT _id FROM t WHERE _id IN (SELECT _id FROM t ORDER BY _id DESC LIMIT 1)", "[[3]]"},
		{"SELECT _id FROM t WHERE _id NOT IN (SELECT _id FROM t WHERE v = 'b')", "[[1] [3]]"},
	} {
		if got := fmt.Sprint(mustQuery(t, db, tc.sql).Data); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}
