package sqldb

import (
	"fmt"
	"math/rand"
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
