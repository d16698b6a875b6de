package chaos

import (
	"fmt"
	"sort"
	"strings"

	"maxoid/internal/sqldb"
)

// Ref is the naive reference engine for the differential SQL oracle: a
// map of tables holding plain row slices, operated on by structured
// Ops (no SQL text, no parser — the generator emits both the SQL sent
// to sqldb and the Op applied here, so the two engines share nothing
// but the workload).
//
// Semantics deliberately mirror sqldb's SQLite-flavored rules:
// dynamically typed values, NULL comparisons are never true, cross-type
// ordering NULL < numeric < text, integer primary keys auto-assigned
// from a high-water counter, full-database transaction snapshots.
type Ref struct {
	tables map[string]*refTable
	snap   map[string]*refTable // BEGIN snapshot, nil when autocommitting
}

type refTable struct {
	cols   []string
	rows   [][]sqldb.Value
	nextID int64
}

func (t *refTable) clone() *refTable {
	out := &refTable{cols: t.cols, nextID: t.nextID, rows: make([][]sqldb.Value, len(t.rows))}
	for i, r := range t.rows {
		row := make([]sqldb.Value, len(r))
		copy(row, r)
		out.rows[i] = row
	}
	return out
}

func (t *refTable) colIndex(name string) int {
	for i, c := range t.cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// NewRef creates an empty reference engine.
func NewRef() *Ref {
	return &Ref{tables: make(map[string]*refTable)}
}

// CreateTable declares a table whose first column is the INTEGER
// PRIMARY KEY (the only shape the generator uses).
func (r *Ref) CreateTable(name string, cols []string) {
	r.tables[strings.ToLower(name)] = &refTable{cols: cols, nextID: 1}
}

// Apply executes one structured op, returning the affected-row count
// for mutations. Errors mirror the conditions sqldb rejects (unknown
// table, duplicate primary key, transaction misuse); the oracle only
// compares error presence, not text.
func (r *Ref) Apply(op Op) (int64, error) {
	switch op.Kind {
	case OpBegin:
		if r.snap != nil {
			return 0, fmt.Errorf("ref: nested transaction")
		}
		r.snap = make(map[string]*refTable, len(r.tables))
		for k, t := range r.tables {
			r.snap[k] = t.clone()
		}
		return 0, nil
	case OpCommit:
		if r.snap == nil {
			return 0, fmt.Errorf("ref: commit outside transaction")
		}
		r.snap = nil
		return 0, nil
	case OpRollback:
		if r.snap == nil {
			return 0, fmt.Errorf("ref: rollback outside transaction")
		}
		r.ForceRollback()
		return 0, nil
	}

	t, ok := r.tables[strings.ToLower(op.Table)]
	if !ok {
		return 0, fmt.Errorf("ref: no such table %s", op.Table)
	}
	switch op.Kind {
	case OpInsert:
		return t.insert(op)
	case OpUpdate:
		return t.update(op)
	case OpDelete:
		return t.delete(op)
	}
	return 0, fmt.Errorf("ref: bad op kind %d", op.Kind)
}

// ForceRollback restores the BEGIN snapshot unconditionally — the
// oracle calls it when sqldb's commit was killed by an injected fault
// and rolled itself back.
func (r *Ref) ForceRollback() {
	if r.snap == nil {
		return
	}
	r.tables = r.snap
	r.snap = nil
}

// InTxn reports whether a transaction is open.
func (r *Ref) InTxn() bool { return r.snap != nil }

func (t *refTable) insert(op Op) (int64, error) {
	row := make([]sqldb.Value, len(t.cols))
	for i, c := range op.Cols {
		idx := t.colIndex(c)
		if idx < 0 {
			return 0, fmt.Errorf("ref: no column %s", c)
		}
		row[idx] = op.Vals[i]
	}
	// Primary key assignment mirrors sqldb.insertTable: NULL draws from
	// the high-water counter, explicit keys advance it, duplicates fail.
	if row[0] == nil {
		row[0] = t.nextID
	}
	id, ok := sqldb.AsInt(row[0])
	if !ok {
		return 0, fmt.Errorf("ref: non-integer primary key")
	}
	row[0] = id
	if id >= t.nextID {
		t.nextID = id + 1
	}
	for _, existing := range t.rows {
		if eid, ok := sqldb.AsInt(existing[0]); ok && eid == id {
			return 0, fmt.Errorf("ref: UNIQUE constraint failed")
		}
	}
	t.rows = append(t.rows, row)
	return 1, nil
}

func (t *refTable) update(op Op) (int64, error) {
	idx := make([]int, len(op.Cols))
	for i, c := range op.Cols {
		j := t.colIndex(c)
		if j < 0 {
			return 0, fmt.Errorf("ref: no column %s", c)
		}
		idx[i] = j
	}
	var affected int64
	for _, row := range t.rows {
		if !predMatch(t, row, op.Where) {
			continue
		}
		for i, j := range idx {
			row[j] = op.Vals[i]
		}
		affected++
	}
	return affected, nil
}

func (t *refTable) delete(op Op) (int64, error) {
	kept := t.rows[:0:0]
	var affected int64
	for _, row := range t.rows {
		if predMatch(t, row, op.Where) {
			affected++
			continue
		}
		kept = append(kept, row)
	}
	t.rows = kept
	return affected, nil
}

// Select returns the rows matching op.Where, projected over the full
// column list and sorted by primary key — matching the deterministic
// "SELECT cols FROM t WHERE ... ORDER BY _id" shape the generator
// emits.
func (r *Ref) Select(op Op) ([][]sqldb.Value, error) {
	t, ok := r.tables[strings.ToLower(op.Table)]
	if !ok {
		return nil, fmt.Errorf("ref: no such table %s", op.Table)
	}
	var out [][]sqldb.Value
	for _, row := range t.rows {
		if !predMatch(t, row, op.Where) {
			continue
		}
		cp := make([]sqldb.Value, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, _ := sqldb.AsInt(out[i][0])
		b, _ := sqldb.AsInt(out[j][0])
		return a < b
	})
	return out, nil
}

// Dump returns every row of a table ordered by primary key (the
// end-of-run full-state comparison).
func (r *Ref) Dump(table string) [][]sqldb.Value {
	rows, _ := r.Select(Op{Kind: OpSelect, Table: table})
	return rows
}

// predMatch evaluates a WHERE predicate with SQL three-valued logic: a
// comparison against NULL is NULL, and NULL is not true. nil preds
// match everything.
func predMatch(t *refTable, row []sqldb.Value, p *Pred) bool {
	if p == nil {
		return true
	}
	i := t.colIndex(p.Col)
	if i < 0 {
		return false
	}
	v := row[i]
	switch p.Cmp {
	case "IS NULL":
		return v == nil
	case "IS NOT NULL":
		return v != nil
	}
	if v == nil || p.Val == nil {
		return false // comparison with NULL is NULL, which is not true
	}
	c := compareVals(v, p.Val)
	switch p.Cmp {
	case "RANGE", "BETWEEN":
		if p.Hi == nil {
			return false
		}
		h := compareVals(v, p.Hi)
		return c >= 0 && (h < 0 || p.Cmp == "BETWEEN" && h == 0)
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// compareVals mirrors sqldb's cross-type ordering: NULL < numeric <
// text, numerics collapse to their float value.
func compareVals(a, b sqldb.Value) int {
	ra, rb := refRank(a), refRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		fa, fb := refFloat(a), refFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	default:
		return strings.Compare(sqldb.AsString(a), sqldb.AsString(b))
	}
}

func refRank(v sqldb.Value) int {
	switch v.(type) {
	case nil:
		return 0
	case int64, float64:
		return 1
	default:
		return 2
	}
}

func refFloat(v sqldb.Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}
