package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
)

// marshalRows is the reference encoding of a query result: encoding/json
// on the {Columns, Rows} struct, with nil columns or rows sent as [].
func marshalRows(rows *sqldb.Rows) ([]byte, error) {
	out := struct {
		Columns []string        `json:"columns"`
		Rows    [][]sqldb.Value `json:"rows"`
	}{Columns: rows.Columns, Rows: rows.Data}
	if out.Columns == nil {
		out.Columns = []string{}
	}
	if out.Rows == nil {
		out.Rows = [][]sqldb.Value{}
	}
	return json.Marshal(out)
}

// fuzzRows builds a result from fuzzed parts. sep splits cols into
// column names (0: no columns). Each byte of shape is one step: start a
// row, append a nil row, or append a nil, str, n, x or blob value to the
// current row; an empty shape gives no rows.
func fuzzRows(cols string, sep byte, str string, n int64, x float64, blob []byte, shape []byte) *sqldb.Rows {
	rows := &sqldb.Rows{}
	if sep != 0 {
		rows.Columns = strings.Split(cols, string([]byte{sep}))
	}
	if len(shape) == 0 {
		return rows
	}
	rows.Data = [][]sqldb.Value{}
	add := func(v sqldb.Value) {
		if len(rows.Data) == 0 || rows.Data[len(rows.Data)-1] == nil {
			rows.Data = append(rows.Data, []sqldb.Value{})
		}
		last := len(rows.Data) - 1
		rows.Data[last] = append(rows.Data[last], v)
	}
	for _, op := range shape {
		switch op % 7 {
		case 0:
			rows.Data = append(rows.Data, []sqldb.Value{})
		case 1:
			rows.Data = append(rows.Data, nil)
		case 2:
			add(nil)
		case 3:
			add(str)
		case 4:
			add(n)
		case 5:
			add(x)
		case 6:
			add(blob)
		}
	}
	return rows
}

// FuzzRowsResponse holds rowsResponse to encoding/json's bytes: the
// body must equal marshalRows byte for byte, and a value encoding/json
// rejects (NaN, ±Inf) must give the 500 encode-failure body.
func FuzzRowsResponse(f *testing.F) {
	f.Add("_id,word,frequency", byte(','), "hello", int64(42), 1.5, []byte("blob"), []byte{0, 4, 3, 4, 0, 4, 3, 2})
	for _, s := range []string{`<`, `>`, `&`, `"`, `\`, `a<b>&"c\d`, "\x00\x01\b\f\n\r\t\x1f", "\x7f", "del\x7f",
		"\u2028", "\u2029", "x\u2028y", "\xff", "a\xc3", "\xed\xa0\x80", "\u00fc\u20ac\U0001d11e", "", " ~"} {
		f.Add(s, byte('|'), s, int64(-1), 0.0, []byte(s), []byte{3, 3, 0, 3})
	}
	f.Add("", byte(0), "", int64(0), 0.0, []byte(nil), []byte(nil))        // no columns, no rows
	f.Add("", byte(','), "", int64(0), 0.0, []byte{}, []byte{0, 0})        // one empty name, empty rows
	f.Add("a,b", byte(','), "s", int64(7), 2.0, []byte{}, []byte{1, 3, 1}) // nil rows
	f.Add("a", byte(','), "s", int64(math.MinInt64), math.MaxFloat64, []byte(nil), []byte{4, 5, 6, 2})
	f.Add("a", byte(','), "s", int64(math.MaxInt64), 1e21, []byte{0xff}, []byte{4, 5, 6})
	f.Add("a", byte(','), "s", int64(0), 1e-7, []byte{}, []byte{5, 0, 5})
	f.Add("a", byte(','), "s", int64(0), math.Copysign(0, -1), []byte{}, []byte{5})
	f.Add("a", byte(','), "s", int64(0), math.NaN(), []byte{}, []byte{5})
	f.Add("a", byte(','), "s", int64(0), math.Inf(1), []byte{}, []byte{5})
	f.Add("a", byte(','), "s", int64(0), math.Inf(-1), []byte{}, []byte{3, 5})
	f.Fuzz(func(t *testing.T, cols string, sep byte, str string, n int64, x float64, blob []byte, shape []byte) {
		rows := fuzzRows(cols, sep, str, n, x, blob, shape)
		resp := rowsResponse(rows)
		want, err := marshalRows(rows)
		if err != nil {
			if resp.Status != 500 || !bytes.Equal(resp.Body, encodeFailure().Body) {
				t.Fatalf("marshal fails (%v) but rowsResponse = %d %s", err, resp.Status, resp.Body)
			}
			return
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, want) {
			t.Fatalf("rowsResponse = %d\n%s\nencoding/json:\n%s", resp.Status, resp.Body, want)
		}
	})
}

// TestRowsResponseAllocs guards the encoder's allocation count on a
// 20-row (int64, 6-byte string, int64) result: one body buffer, no
// per-row or per-value allocation.
func TestRowsResponseAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector drops sync.Pool items, so counts under it are not the program's")
	}
	rows := &sqldb.Rows{Columns: []string{"_id", "word", "frequency"}}
	for i := 0; i < 20; i++ {
		rows.Data = append(rows.Data, []sqldb.Value{int64(1000 + i), fmt.Sprintf("w%05d", i), int64(i * 37)})
	}
	resp := rowsResponse(rows)
	if want, _ := marshalRows(rows); resp.Status != 200 || !bytes.Equal(resp.Body, want) {
		t.Fatalf("rowsResponse = %d %s, want %s", resp.Status, resp.Body, want)
	}
	if got := testing.AllocsPerRun(200, func() { rowsResponse(rows) }); got > 2 {
		t.Errorf("rowsResponse on 20 rows: %.0f allocs, want <= 2", got)
	}
}
