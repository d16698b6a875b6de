package cowproxy

import (
	"fmt"
	"reflect"
	"testing"

	"maxoid/internal/sqldb"
)

// TestStmtMemosBounded: callers that inline literals in where send a
// new text on every call. Ten times the bound of distinct texts leave
// a Conn's query and update memos at or below maxStmtMemo, and every
// result matches the same statement with bound parameters.
func TestStmtMemosBounded(t *testing.T) {
	const rows = 50
	p := newWordsProxy(t, rows)
	for _, initiator := range []string{"", "appA"} {
		c := p.For(initiator)
		cols := []string{"_id", "word", "frequency"}
		for i := 0; i < 10*maxStmtMemo; i++ {
			// Distinct (lo, hi) pairs; hi may run past the last row.
			lo := int64(i%rows + 1)
			hi := lo + 1 + int64(i/rows)
			literal := fmt.Sprintf("_id >= %d AND _id < %d", lo, hi)

			got, err := c.Query("words", cols, literal, "_id")
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Query("words", cols, "_id >= ? AND _id < ?", "_id", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q as %q: %v, want %v", literal, initiator, got.Data, want.Data)
			}

			n, err := c.Update("words", map[string]sqldb.Value{"frequency": int64(i)}, literal)
			if err != nil {
				t.Fatal(err)
			}
			if wantN := min(hi, rows+1) - lo; n != wantN {
				t.Fatalf("update %q as %q: %d rows, want %d", literal, initiator, n, wantN)
			}

			c.mu.RLock()
			nq, nu := len(c.queries), len(c.updates)
			c.mu.RUnlock()
			if nq > maxStmtMemo || nu > maxStmtMemo {
				t.Fatalf("as %q after %d calls: %d queries, %d updates memoized, bound %d",
					initiator, i+1, nq, nu, maxStmtMemo)
			}
		}
	}
}
