package sqldb_test

import (
	"fmt"
	"testing"

	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
)

// TestRangeReadAllocs guards the result path's allocation count: an
// ordered primary-key range read allocates a bounded number of objects
// per statement, not a few per row. The probe walks the keys in order,
// so nothing is sorted and no sort keys are allocated. It runs through
// the public API, the way a provider issues the query.
func TestRangeReadAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector drops pooled executors")
	}
	db := sqldb.Open()
	if _, err := db.Exec("CREATE TABLE w (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if _, err := db.Exec("INSERT INTO w (_id, word, frequency) VALUES (?, ?, ?)", int64(i), fmt.Sprintf("w%05d", i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT _id, word, frequency FROM w WHERE _id >= ? AND _id < ? ORDER BY _id"
	for _, tc := range []struct {
		rows int
		max  float64
	}{{20, 5}, {80, 6}} {
		// Box the arguments once: the guard counts the query, not the
		// caller's conversions.
		args := []sqldb.Value{int64(500), int64(500 + tc.rows)}
		rows, err := db.Query(q, args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != tc.rows {
			t.Fatalf("%d-row range returned %d rows", tc.rows, len(rows.Data))
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := db.Query(q, args...); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%d-row ordered range read: %.0f allocs, want <= %.0f", tc.rows, got, tc.max)
		}
	}
}
