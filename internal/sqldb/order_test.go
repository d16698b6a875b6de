package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestLimitOffsetExtremes: LIMIT/OFFSET values at and past the edges
// of int64 and of the result clamp instead of overflowing. LIMIT
// 9223372036854775807 OFFSET 1 used to wrap offset+limit negative and
// panic slicing the result.
func TestLimitOffsetExtremes(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (_id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 1; i <= 5; i++ {
		mustExec(t, db, "INSERT INTO t (_id, v) VALUES (?, ?)", int64(i), int64(10-i))
	}
	for _, tc := range []struct {
		name string
		sql  string
		args []Value
		want []int64
	}{
		{"max limit offset 1", "SELECT _id FROM t LIMIT 9223372036854775807 OFFSET 1", nil, []int64{2, 3, 4, 5}},
		{"max limit offset 2", "SELECT _id FROM t LIMIT 9223372036854775807 OFFSET 2", nil, []int64{3, 4, 5}},
		{"max limit offset 1 ordered", "SELECT _id FROM t ORDER BY _id LIMIT 9223372036854775807 OFFSET 1", nil, []int64{2, 3, 4, 5}},
		{"max limit offset 2 ordered desc", "SELECT _id FROM t ORDER BY _id DESC LIMIT 9223372036854775807 OFFSET 2", nil, []int64{3, 2, 1}},
		{"max limit bound", "SELECT _id FROM t ORDER BY _id LIMIT ? OFFSET ?", []Value{int64(math.MaxInt64), int64(1)}, []int64{2, 3, 4, 5}},
		{"max limit max offset", "SELECT _id FROM t LIMIT ? OFFSET ?", []Value{int64(math.MaxInt64), int64(math.MaxInt64)}, nil},
		{"negative limit", "SELECT _id FROM t ORDER BY _id LIMIT -1", nil, []int64{1, 2, 3, 4, 5}},
		{"negative limit offset", "SELECT _id FROM t LIMIT -1 OFFSET 3", nil, []int64{4, 5}},
		{"min limit offset", "SELECT _id FROM t LIMIT ? OFFSET 1", []Value{int64(math.MinInt64)}, []int64{2, 3, 4, 5}},
		{"negative offset", "SELECT _id FROM t LIMIT 2 OFFSET -4", nil, []int64{1, 2}},
		{"text limit", "SELECT _id FROM t ORDER BY _id LIMIT '2'", nil, []int64{1, 2}},
		{"non-numeric text limit", "SELECT _id FROM t LIMIT 'many'", nil, nil},
		{"real limit", "SELECT _id FROM t ORDER BY _id LIMIT 2.7 OFFSET 1", nil, []int64{2, 3}},
		{"offset past end", "SELECT _id FROM t ORDER BY _id LIMIT 3 OFFSET 10", nil, nil},
		{"limit zero", "SELECT _id FROM t LIMIT 0", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := db.Query(tc.sql, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range rows.Data {
				got = append(got, r[0].(int64))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("%s = %v, want %v", tc.sql, got, tc.want)
			}
		})
	}
}

// TestPropOrderByMatchesStableSort is a differential check of ORDER BY
// over duplicate, NULL and mixed int/real/text/blob values: 1-3 terms
// drawn from projected names, ordinals and a source column that is not
// projected, each ASC or DESC, with an optional LIMIT/OFFSET. The
// reference reads the same rows unordered and unlimited, sorts them
// with sort.SliceStable over compare, then slices them.
func TestPropOrderByMatchesStableSort(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE p (_id INTEGER PRIMARY KEY, a, b, c)")
	r := rand.New(rand.NewSource(18))
	pool := []Value{nil, int64(1), int64(2), int64(-3), float64(1), float64(2.5), float64(-0.5),
		"1", "a", "b", "", []byte("a"), []byte{0}, []byte{}}
	pick := func() Value { return pool[r.Intn(len(pool))] }
	for i := 0; i < 60; i++ {
		mustExec(t, db, "INSERT INTO p (a, b, c) VALUES (?, ?, ?)", pick(), pick(), pick())
	}
	// The reference row is (_id, a, b, c); the query projects the first
	// three. Each term names the reference column it sorts by.
	type term struct {
		sql string
		col int
	}
	terms := []term{{"_id", 0}, {"a", 1}, {"b", 2}, {"c", 3}, {"1", 0}, {"2", 1}, {"3", 2}}
	limits := []int64{0, 1, 5, 59, 60, 1000, -1, math.MaxInt64}
	offsets := []int64{0, 1, 2, 59, 60, 100, -1, math.MaxInt64}

	base := mustQuery(t, db, "SELECT _id, a, b, c FROM p")
	for iter := 0; iter < 400; iter++ {
		nt := 1 + r.Intn(3)
		var order []string
		var cols []int
		var desc []bool
		for i := 0; i < nt; i++ {
			tm := terms[r.Intn(len(terms))]
			d := r.Intn(2) == 1
			s := tm.sql
			if d {
				s += " DESC"
			} else if r.Intn(2) == 1 {
				s += " ASC"
			}
			order, cols, desc = append(order, s), append(cols, tm.col), append(desc, d)
		}
		sql := "SELECT _id, a, b FROM p ORDER BY " + strings.Join(order, ", ")
		var args []Value
		limit, offset := int64(-1), int64(0)
		if r.Intn(3) > 0 {
			limit = limits[r.Intn(len(limits))]
			sql += " LIMIT ?"
			args = append(args, limit)
			if r.Intn(2) == 1 {
				offset = offsets[r.Intn(len(offsets))]
				sql += " OFFSET ?"
				args = append(args, offset)
			}
		}

		want := append([][]Value(nil), base.Data...)
		sort.SliceStable(want, func(i, j int) bool {
			for ti, col := range cols {
				if c := compare(want[i][col], want[j][col]); c != 0 {
					return (c < 0) != desc[ti]
				}
			}
			return false
		})
		offset = max(offset, 0)
		offset = min(offset, int64(len(want)))
		want = want[offset:]
		if limit >= 0 && limit < int64(len(want)) {
			want = want[:limit]
		}

		got, err := db.Query(sql, args...)
		if err != nil {
			t.Fatalf("%s %v: %v", sql, args, err)
		}
		if len(got.Data) != len(want) {
			t.Fatalf("%s %v: %d rows, want %d", sql, args, len(got.Data), len(want))
		}
		for i, row := range got.Data {
			if !reflect.DeepEqual(row, want[i][:3]) {
				t.Fatalf("%s %v: row %d = %#v, want %#v", sql, args, i, row, want[i][:3])
			}
		}
	}
}
