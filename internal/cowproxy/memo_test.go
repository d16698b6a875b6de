package cowproxy

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"maxoid/internal/sqldb"
)

// TestStmtMemosBounded: callers that inline literals in where send a
// new text on every call. Ten times the bound of distinct texts, each
// queried, updated and deleted by, leave a Conn's memo at or below
// maxStmtMemo, and every result matches the same statement with bound
// parameters.
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

			// frequency is never negative: this deletes nothing.
			if n, err := c.Delete("words", literal+" AND frequency < 0"); err != nil || n != 0 {
				t.Fatalf("delete %q as %q: %d rows, %v", literal, initiator, n, err)
			}

			c.mu.RLock()
			n = int64(len(c.memo))
			c.mu.RUnlock()
			if n > maxStmtMemo {
				t.Fatalf("as %q after %d calls: %d statements memoized, bound %d",
					initiator, i+1, n, maxStmtMemo)
			}
		}
	}
}

// TestDiscardRacingFirstRequest: a delegate's first request races
// DiscardVolatile of its initiator while another request on the same
// connection repeats. The racing requests may fail, but no statement
// resolved before the discard may be served after it: every later
// request succeeds.
func TestDiscardRacingFirstRequest(t *testing.T) {
	const trials = 20000
	p := newWordsProxy(t, 3)
	del := p.For("appA")
	cols := []string{"_id", "word"}
	for i := 0; i < trials; i++ {
		if err := p.DiscardVolatile("appA"); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var race, repeat sync.WaitGroup
		var stop atomic.Bool
		race.Add(2)
		go func() {
			defer race.Done()
			<-start
			_, _ = del.Query("words", cols, "_id = ?", "", int64(1))
		}()
		go func() {
			defer race.Done()
			<-start
			if err := p.DiscardVolatile("appA"); err != nil {
				t.Error(err)
			}
		}()
		repeat.Add(1)
		go func() {
			defer repeat.Done()
			<-start
			for !stop.Load() {
				_, _ = del.Query("words", cols, "_id = ?", "", int64(2))
			}
		}()
		close(start)
		race.Wait()
		stop.Store(true)
		repeat.Wait()
		for _, id := range []int64{1, 2} {
			if _, err := del.Query("words", cols, "_id = ?", "", id); err != nil {
				t.Fatalf("trial %d: request after the race: %v", i, err)
			}
		}
	}
}
