package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropInsertSelectRoundTrip: any set of (id, text) pairs inserted is
// returned exactly by a full SELECT.
func TestPropInsertSelectRoundTrip(t *testing.T) {
	prop := func(vals []int16) bool {
		db := Open()
		if _, err := db.Exec("CREATE TABLE t (_id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := db.Exec("INSERT INTO t (v) VALUES (?)", int64(v)); err != nil {
				return false
			}
		}
		rows, err := db.Query("SELECT v FROM t ORDER BY _id")
		if err != nil || len(rows.Data) != len(vals) {
			return false
		}
		for i, v := range vals {
			if rows.Data[i][0] != int64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropCOWViewInvariant: for random interleavings of primary-table
// and delta-table contents, the COW view always equals
// (primary minus delta'd ids) union (delta rows with _whiteout = 0),
// which is the paper's Figure 6 definition.
func TestPropCOWViewInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := Open()
		mustSetup := []string{
			"CREATE TABLE tab (_id INTEGER PRIMARY KEY, data TEXT)",
			"CREATE TABLE tab_delta (_id INTEGER PRIMARY KEY, data TEXT, _whiteout BOOLEAN)",
			`CREATE VIEW tab_view AS
				SELECT _id, data FROM tab WHERE _id NOT IN (SELECT _id FROM tab_delta)
				UNION ALL
				SELECT _id, data FROM tab_delta WHERE _whiteout = 0`,
		}
		for _, s := range mustSetup {
			if _, err := db.Exec(s); err != nil {
				return false
			}
		}
		primary := map[int64]string{}
		delta := map[int64]struct {
			data     string
			whiteout bool
		}{}
		for i := 0; i < 30; i++ {
			id := int64(r.Intn(10) + 1)
			data := fmt.Sprintf("d%d", r.Intn(100))
			switch r.Intn(3) {
			case 0:
				if _, ok := primary[id]; ok {
					continue
				}
				if _, err := db.Exec("INSERT INTO tab (_id, data) VALUES (?, ?)", id, data); err != nil {
					return false
				}
				primary[id] = data
			case 1:
				if _, err := db.Exec("INSERT OR REPLACE INTO tab_delta (_id, data, _whiteout) VALUES (?, ?, 0)", id, data); err != nil {
					return false
				}
				delta[id] = struct {
					data     string
					whiteout bool
				}{data, false}
			case 2:
				if _, err := db.Exec("INSERT OR REPLACE INTO tab_delta (_id, data, _whiteout) VALUES (?, ?, 1)", id, data); err != nil {
					return false
				}
				delta[id] = struct {
					data     string
					whiteout bool
				}{data, true}
			}
		}
		// Model of the view.
		want := map[int64]string{}
		for id, d := range primary {
			if _, shadowed := delta[id]; !shadowed {
				want[id] = d
			}
		}
		for id, d := range delta {
			if !d.whiteout {
				want[id] = d.data
			}
		}
		rows, err := db.Query("SELECT _id, data FROM tab_view")
		if err != nil || len(rows.Data) != len(want) {
			return false
		}
		for _, row := range rows.Data {
			id, _ := AsInt(row[0])
			if want[id] != AsString(row[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropFlatteningEquivalence: merged and materialized plans return
// the same multiset of rows for random WHERE thresholds, over a UNION
// ALL view (u), a single-core view (s) and a single-core view over the
// UNION ALL view (su).
func TestPropFlatteningEquivalence(t *testing.T) {
	db := Open()
	setup := []string{
		"CREATE TABLE a (_id INTEGER PRIMARY KEY, v INTEGER, w INTEGER)",
		"CREATE TABLE b (_id INTEGER PRIMARY KEY, v INTEGER, w INTEGER)",
		"CREATE VIEW u AS SELECT _id, v, w FROM a UNION ALL SELECT _id, v, w FROM b",
		"CREATE VIEW s AS SELECT _id, v, w + 1 AS w FROM a WHERE w % 3 <> 0",
		"CREATE VIEW su AS SELECT _id, v, w FROM u WHERE w < 15",
	}
	for _, s := range setup {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		if _, err := db.Exec("INSERT INTO a (v, w) VALUES (?, ?)", r.Intn(20), r.Intn(20)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("INSERT INTO b (v, w) VALUES (?, ?)", r.Intn(20), r.Intn(20)); err != nil {
			t.Fatal(err)
		}
	}
	prop := func(threshold uint8, view uint8) bool {
		th := int64(threshold % 20)
		v := []string{"u", "s", "su"}[view%3]
		// Merged: plain column select.
		before := db.Stats()
		flat, err := db.Query("SELECT v, w FROM "+v+" WHERE v >= ? ORDER BY v, w", th)
		if err != nil || db.Stats().MaterializedViews != before.MaterializedViews {
			return false
		}
		// Materialized: ORDER BY column (w+0 is not a plain colref) defeats
		// merging per the 3.8.6 rule.
		mat, err := db.Query("SELECT v, w FROM "+v+" WHERE v >= ? ORDER BY v+0, w+0", th)
		if err != nil {
			return false
		}
		if len(flat.Data) != len(mat.Data) {
			return false
		}
		for i := range flat.Data {
			if flat.Data[i][0] != mat.Data[i][0] || flat.Data[i][1] != mat.Data[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropInListProbe checks the primary-key IN-list probe against a
// predicate no probe can serve: random lists of duplicates, NULL, the
// text '5', 2.0, 2.5, ±2^53 and out-of-range keys must select the same
// rows in the same (storage) order, and UPDATE must count the same
// rows. _id + 0 is that reference where every key is numeric; where an
// UPDATE stored a text key it would turn the key into a number, so
// NOT NOT (…) serves instead. The tables have deleted rows (storage
// order differs from key order), a float key, a digit-string key that
// byPK still reaches, and a text key that breaks byPK (scan only).
func TestPropInListProbe(t *testing.T) {
	tables := []struct {
		name, mutate string
		textKeys     bool // the reference must not do arithmetic on _id
		exact        bool // byPK reaches every row, so the probe may run
	}{
		{"deleted rows", "", false, true},
		{"float key", "UPDATE t SET _id = 150.5 WHERE _id = 50", false, true},
		{"digit-string key", "UPDATE t SET _id = '500' WHERE _id = 60", true, true},
		{"text key", "UPDATE t SET _id = 'abc' WHERE _id = 50", true, false},
	}
	pool := []Value{nil, int64(1), int64(2), int64(5), int64(7), int64(10), int64(42), int64(99),
		int64(-3), int64(150), int64(500), int64(1000), "5", "500", "abc", []byte("5"),
		2.0, 2.5, 150.5, float64(1 << 53), -float64(1 << 53), int64(1<<53 + 1)}
	r := rand.New(rand.NewSource(24))
	for _, tb := range tables {
		db := pkRangeTable(t, tb.mutate)
		for iter := 0; iter < 150; iter++ {
			n := 1 + r.Intn(8)
			args := make([]Value, n)
			for i := range args {
				args[i] = pool[r.Intn(len(pool))]
			}
			marks := "?" + strings.Repeat(", ?", n-1)
			where := "_id IN (" + marks + ")"
			ref := "_id + 0 IN (" + marks + ")"
			if tb.textKeys {
				ref = "NOT NOT (" + where + ")"
			}
			before := db.Stats()
			got := mustQuery(t, db, "SELECT _id, v FROM t WHERE "+where, args...)
			probes := db.Stats().PKProbes - before.PKProbes
			want := mustQuery(t, db, "SELECT _id, v FROM t WHERE "+ref, args...)
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("%s: IN %v: rows %v, want %v", tb.name, args, got.Data, want.Data)
			}
			// Every numeric element must lie inside ±2^53 for the probe.
			probe := tb.exact
			for _, a := range args {
				if f, ok := a.(float64); ok && !(f > -(1<<53) && f < 1<<53) {
					probe = false
				}
				if i, ok := a.(int64); ok && (i <= -(1<<53) || i >= 1<<53) {
					probe = false
				}
			}
			if wantProbes := map[bool]int64{true: 1, false: 0}[probe]; probes != wantProbes {
				t.Fatalf("%s: IN %v: PKProbes += %d, want %d", tb.name, args, probes, wantProbes)
			}
			gotRes := mustExec(t, db, "UPDATE t SET v = v WHERE "+where, args...)
			wantRes := mustExec(t, db, "UPDATE t SET v = v WHERE "+ref, args...)
			if gotRes.RowsAffected != wantRes.RowsAffected {
				t.Fatalf("%s: IN %v: UPDATE affected %d, want %d", tb.name, args, gotRes.RowsAffected, wantRes.RowsAffected)
			}
		}
	}
}

// TestPropInSubqueryProbe: "v IN (SELECT _id FROM t)", which answers
// from t's primary-key map, must agree with the same subquery under
// WHERE 1, which no probe shapes and which always builds the value set.
// The values mix ints, floats at ±2^53, 2.0, 2.5, -0.0, numeric and
// non-numeric text, NULL and blobs; the tables have deleted rows, a
// float key, a digit-string key, a key beyond 2^53, a text key that
// breaks byPK, the same key set back to an integer, and a duplicate
// key.
func TestPropInSubqueryProbe(t *testing.T) {
	tables := []struct{ name, mutate string }{
		{"deleted rows", ""},
		{"float key", "UPDATE t SET _id = 150.5 WHERE _id = 50"},
		{"digit-string key", "UPDATE t SET _id = '500' WHERE _id = 60"},
		{"big key", "UPDATE t SET _id = 9007199254740993 WHERE _id = 70"},
		{"text key", "UPDATE t SET _id = 'abc' WHERE _id = 50"},
		{"text key restored", "UPDATE t SET _id = 'abc' WHERE _id = 50; UPDATE t SET _id = 50 WHERE _id = 'abc'"},
		{"duplicate key", "UPDATE t SET _id = 1 WHERE _id = 2"},
	}
	pool := []Value{nil, int64(0), int64(1), int64(2), int64(5), int64(10), int64(50), int64(-3),
		int64(100), int64(150), int64(500), int64(1<<53 + 1), int64(-(1 << 53)),
		2.0, 2.5, 150.5, math.Copysign(0, -1), float64(1 << 53), -float64(1 << 53),
		"2", "5", " 5", "500", "abc", "", []byte("5"), []byte("abc")}
	r := rand.New(rand.NewSource(25))
	for _, tb := range tables {
		db := pkRangeTable(t, tb.mutate)
		for iter := 0; iter < 100; iter++ {
			v := pool[r.Intn(len(pool))]
			const probe = "SELECT ? IN (SELECT _id FROM t), ? NOT IN (SELECT _id FROM t)"
			const ref = "SELECT ? IN (SELECT _id FROM t WHERE 1), ? NOT IN (SELECT _id FROM t WHERE 1)"
			got := mustQuery(t, db, probe, v, v)
			want := mustQuery(t, db, ref, v, v)
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("%s: %#v IN (SELECT _id FROM t) = %v, want %v", tb.name, v, got.Data, want.Data)
			}
		}
	}
}
