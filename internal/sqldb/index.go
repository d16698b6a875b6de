package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"maxoid/internal/fault"
)

// This file is the catalog/storage half of the planner split: secondary
// indexes over base tables. Two physical shapes exist:
//
//   - ordered: entries sorted by composite key (compare() order, then
//     row position), serving point probes and range scans;
//   - hash: rowKey-keyed buckets of row positions, serving point
//     probes only.
//
// An ordered index holds every row, NULL key components included
// (NULL sorts first in compare() order). Its probes therefore only
// ever over-approximate — a constraint against NULL selects entries no
// WHERE can match — and the filter re-applies every conjunct a probe
// does not answer exactly (access.go), so over-approximation is
// harmless. Leaving NULL-keyed rows out is NOT safe there: a probe
// that constrains only a prefix of the key must still find rows whose
// unconstrained suffix columns are NULL. A hash index, whose probes pin
// every key column with `=`, leaves out the rows whose key holds a
// NULL: `= NULL` is never true, so no probe can match them, and a key
// column that is mostly NULL would otherwise keep one bucket that
// every maintenance step of those rows scans.
//
// Maintenance is wired through every mutation path — insert, update,
// delete, OR REPLACE, transaction snapshot/rollback — including the
// COW trigger bodies, which bottom out in the same three mutators.
//
// Fault points: index build fails before the index is published
// (all-or-nothing CREATE INDEX), and a maintenance fault fires before
// the row mutation it guards, then self-heals by rebuilding — so a
// failed statement can never leave an index inconsistent with its
// table. internal/chaos checks both invariants.
var (
	faultIndexBuild = fault.Declare("sqldb.indexbuild", "CREATE INDEX build: fail before the index is published; no partial index may be visible")
	faultIndexMaint = fault.Declare("sqldb.indexmaint", "index maintenance: fail before a row mutation; indexes must stay consistent with table rows")
)

// indexKind selects the physical index structure.
type indexKind int

const (
	indexOrdered indexKind = iota
	indexHash
)

func (k indexKind) String() string {
	if k == indexHash {
		return "HASH"
	}
	return "ORDERED"
}

// idxEntry is one ordered-index entry: composite key plus row position.
type idxEntry struct {
	key []Value
	row int
}

// index is a secondary index over one base table. It is owned by its
// table and protected by the table's lock (plus the catalog lock for
// DDL, which runs on the exclusive path).
type index struct {
	name     string // as created (display)
	table    string // owning table name (display)
	kind     indexKind
	cols     []int    // key column positions in the table
	colNames []string // display names, parallel to cols

	entries  []idxEntry       // ordered: sorted by (key, row)
	buckets  map[string][]int // hash: rowKey -> row positions
	distinct int              // distinct keys (selectivity stats)
}

// keyFor extracts the index key from a row. NULL components are legal
// ordered key values: they sort first, and probes against them merely
// over-select (see the file comment).
func (ix *index) keyFor(row []Value) []Value {
	key := make([]Value, len(ix.cols))
	for i, c := range ix.cols {
		key[i] = row[c]
	}
	return key
}

// unhashed reports whether a hash index leaves row out: its key holds a
// NULL, which no probe can match.
func (ix *index) unhashed(row []Value) bool {
	if ix.kind != indexHash {
		return false
	}
	for _, c := range ix.cols {
		if row[c] == nil {
			return true
		}
	}
	return false
}

// compareKeys orders composite keys lexicographically in compare() order.
func compareKeys(a, b []Value) int {
	for i := range a {
		if c := compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// search returns the position of the first entry >= (key, row).
func (ix *index) search(key []Value, row int) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c := compareKeys(ix.entries[i].key, key)
		if c != 0 {
			return c > 0
		}
		return ix.entries[i].row >= row
	})
}

// insertRow adds row (at position pos) to the index.
func (ix *index) insertRow(pos int, row []Value) {
	if ix.unhashed(row) {
		return
	}
	key := ix.keyFor(row)
	if ix.kind == indexHash {
		hk := rowKey(key)
		if _, exists := ix.buckets[hk]; !exists {
			ix.distinct++
		}
		ix.buckets[hk] = append(ix.buckets[hk], pos)
		return
	}
	i := ix.search(key, pos)
	newKey := true
	if i > 0 && compareKeys(ix.entries[i-1].key, key) == 0 {
		newKey = false
	}
	if i < len(ix.entries) && compareKeys(ix.entries[i].key, key) == 0 {
		newKey = false
	}
	if newKey {
		ix.distinct++
	}
	ix.entries = append(ix.entries, idxEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = idxEntry{key: key, row: pos}
}

// removeRow drops row (previously at position pos, with the given
// pre-mutation contents) from the index.
func (ix *index) removeRow(pos int, row []Value) {
	if ix.unhashed(row) {
		return
	}
	key := ix.keyFor(row)
	if ix.kind == indexHash {
		hk := rowKey(key)
		bucket := ix.buckets[hk]
		for i, p := range bucket {
			if p == pos {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(ix.buckets, hk)
			ix.distinct--
		} else {
			ix.buckets[hk] = bucket
		}
		return
	}
	i := ix.search(key, pos)
	if i >= len(ix.entries) || ix.entries[i].row != pos || compareKeys(ix.entries[i].key, key) != 0 {
		return // entry missing; removal is a no-op (rebuild restores)
	}
	lastOfKey := true
	if i > 0 && compareKeys(ix.entries[i-1].key, key) == 0 {
		lastOfKey = false
	}
	if i+1 < len(ix.entries) && compareKeys(ix.entries[i+1].key, key) == 0 {
		lastOfKey = false
	}
	if lastOfKey {
		ix.distinct--
	}
	copy(ix.entries[i:], ix.entries[i+1:])
	ix.entries = ix.entries[:len(ix.entries)-1]
}

// moveRow updates the index when a row moves from position from to
// position to without changing contents (swap-delete compaction).
func (ix *index) moveRow(from, to int, row []Value) {
	if ix.unhashed(row) {
		return
	}
	key := ix.keyFor(row)
	if ix.kind == indexHash {
		bucket := ix.buckets[rowKey(key)]
		for i, p := range bucket {
			if p == from {
				bucket[i] = to
				return
			}
		}
		return
	}
	i := ix.search(key, from)
	if i < len(ix.entries) && ix.entries[i].row == from && compareKeys(ix.entries[i].key, key) == 0 {
		copy(ix.entries[i:], ix.entries[i+1:])
		ix.entries = ix.entries[:len(ix.entries)-1]
	}
	j := ix.search(key, to)
	ix.entries = append(ix.entries, idxEntry{})
	copy(ix.entries[j+1:], ix.entries[j:])
	ix.entries[j] = idxEntry{key: key, row: to}
}

// rebuild reconstructs the index from scratch over rows.
func (ix *index) rebuild(rows [][]Value) {
	ix.entries = nil
	ix.buckets = nil
	ix.distinct = 0
	if ix.kind == indexHash {
		ix.buckets = make(map[string][]int)
		for pos, row := range rows {
			if ix.unhashed(row) {
				continue
			}
			hk := rowKey(ix.keyFor(row))
			ix.buckets[hk] = append(ix.buckets[hk], pos)
		}
		ix.distinct = len(ix.buckets)
		return
	}
	ix.entries = make([]idxEntry, 0, len(rows))
	for pos, row := range rows {
		ix.entries = append(ix.entries, idxEntry{key: ix.keyFor(row), row: pos})
	}
	sort.Slice(ix.entries, func(i, j int) bool {
		c := compareKeys(ix.entries[i].key, ix.entries[j].key)
		if c != 0 {
			return c < 0
		}
		return ix.entries[i].row < ix.entries[j].row
	})
	for i, e := range ix.entries {
		if i == 0 || compareKeys(ix.entries[i-1].key, e.key) != 0 {
			ix.distinct++
		}
	}
}

// clone deep-copies the index for transaction snapshots.
func (ix *index) clone() *index {
	out := &index{
		name:     ix.name,
		table:    ix.table,
		kind:     ix.kind,
		cols:     ix.cols,
		colNames: ix.colNames,
		distinct: ix.distinct,
	}
	if ix.buckets != nil {
		out.buckets = make(map[string][]int, len(ix.buckets))
		for k, v := range ix.buckets {
			out.buckets[k] = append([]int(nil), v...)
		}
	}
	if ix.entries != nil {
		out.entries = make([]idxEntry, len(ix.entries))
		copy(out.entries, ix.entries)
	}
	return out
}

// lookupEq returns the positions of rows whose key equals key exactly.
func (ix *index) lookupEq(key []Value) []int {
	if ix.kind == indexHash {
		return ix.buckets[rowKey(key)]
	}
	lo, hi := ix.eqRange(key)
	if lo >= hi {
		return nil
	}
	out := make([]int, 0, hi-lo)
	for _, e := range ix.entries[lo:hi] {
		out = append(out, e.row)
	}
	return out
}

// eqRange returns the half-open entry range with key exactly equal.
func (ix *index) eqRange(key []Value) (int, int) {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return compareKeys(ix.entries[i].key, key) >= 0
	})
	hi := sort.Search(len(ix.entries), func(i int) bool {
		return compareKeys(ix.entries[i].key, key) > 0
	})
	return lo, hi
}

// rangeBounds computes the half-open entry range matching an
// equality prefix (first len(eqPrefix) key columns) plus an optional
// range constraint on the next key column. nil lo/hi leave that side
// unbounded within the prefix.
func (ix *index) rangeBounds(eqPrefix []Value, lo Value, loIncl bool, hi Value, hiIncl bool) (int, int) {
	// prefixCmp orders an entry against the constraint region.
	after := func(e idxEntry, boundary bool) bool {
		// boundary=false: first entry >= region start
		// boundary=true: first entry > region end
		for i, pv := range eqPrefix {
			if c := compare(e.key[i], pv); c != 0 {
				return c > 0
			}
		}
		k := len(eqPrefix)
		if !boundary {
			if lo == nil {
				return true
			}
			c := compare(e.key[k], lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		}
		if hi == nil {
			return false
		}
		c := compare(e.key[k], hi)
		if hiIncl {
			return c > 0
		}
		return c >= 0
	}
	start := sort.Search(len(ix.entries), func(i int) bool { return after(ix.entries[i], false) })
	end := sort.Search(len(ix.entries), func(i int) bool { return after(ix.entries[i], true) })
	if end < start {
		end = start
	}
	return start, end
}

// walk appends to out the row positions of entries[start:end], whose
// first k key columns are equal, in index order; with desc, the runs of
// entries equal in key column k come last run first, each run still in
// index order, as a stable descending sort on that column leaves them.
func (ix *index) walk(start, end, k int, desc bool, out []int) []int {
	if !desc {
		for _, e := range ix.entries[start:end] {
			out = append(out, e.row)
		}
		return out
	}
	for hi := end; hi > start; {
		lo := hi - 1
		for lo > start && compare(ix.entries[lo-1].key[k], ix.entries[hi-1].key[k]) == 0 {
			lo--
		}
		for _, e := range ix.entries[lo:hi] {
			out = append(out, e.row)
		}
		hi = lo
	}
	return out
}

// lookupRange returns the positions of rows matching an equality
// prefix plus an optional range on the next key column.
func (ix *index) lookupRange(eqPrefix []Value, lo Value, loIncl bool, hi Value, hiIncl bool) []int {
	s, e := ix.rangeBounds(eqPrefix, lo, loIncl, hi, hiIncl)
	if s >= e {
		return nil
	}
	out := make([]int, 0, e-s)
	for _, en := range ix.entries[s:e] {
		out = append(out, en.row)
	}
	return out
}

// size returns the number of indexed rows.
func (ix *index) size() int {
	if ix.kind == indexHash {
		n := 0
		for _, b := range ix.buckets {
			n += len(b)
		}
		return n
	}
	return len(ix.entries)
}

// --- table-level maintenance hooks ---

// indexMaintHit consults the maintenance fault point. On a fired fault
// the caller aborts the row mutation before applying it, so the table
// and its indexes remain mutually consistent at the pre-row state.
func (t *table) indexMaintHit() error {
	if len(t.indexes) == 0 {
		return nil
	}
	return fault.Hit(faultIndexMaint)
}

// indexInsert records a newly appended or replaced row.
func (t *table) indexInsert(pos int, row []Value) {
	for _, ix := range t.indexes {
		ix.insertRow(pos, row)
	}
}

// indexRemove drops a row about to be deleted or overwritten.
func (t *table) indexRemove(pos int, row []Value) {
	for _, ix := range t.indexes {
		ix.removeRow(pos, row)
	}
}

// indexMove relocates a row during swap-delete compaction.
func (t *table) indexMove(from, to int, row []Value) {
	for _, ix := range t.indexes {
		ix.moveRow(from, to, row)
	}
}

// indexUpdate re-keys a row mutated in place. oldVals carries the
// pre-mutation values of the key columns that changed; only indexes
// touching a changed column are re-keyed.
func (t *table) indexUpdate(pos int, oldRow, newRow []Value, changed []bool) {
	for _, ix := range t.indexes {
		touched := false
		for _, c := range ix.cols {
			if changed[c] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		ix.removeRow(pos, oldRow)
		ix.insertRow(pos, newRow)
	}
}

// rebuildIndexes reconstructs every secondary index from the rows.
func (t *table) rebuildIndexes() {
	for _, ix := range t.indexes {
		ix.rebuild(t.rows)
	}
}

// findIndex returns the table's index with the given name, or nil.
func (t *table) findIndex(name string) *index {
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.name, name) {
			return ix
		}
	}
	return nil
}

// --- DDL ---

func (ex *executor) createIndex(st *CreateIndexStmt) error {
	db := ex.db
	key := strings.ToLower(st.Table)
	t, ok := db.tables[key]
	if !ok {
		return fmt.Errorf("sqldb: no such table: %s", st.Table)
	}
	if db.indexOwner(st.Name) != nil {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: index %s already exists", st.Name)
	}
	kind := indexOrdered
	switch strings.ToUpper(st.Using) {
	case "", "ORDERED":
	case "HASH":
		kind = indexHash
	default:
		return fmt.Errorf("sqldb: unknown index kind %s (want HASH or ORDERED)", st.Using)
	}
	ix := &index{name: st.Name, table: t.name, kind: kind}
	seen := map[int]bool{}
	for _, c := range st.Cols {
		ci := t.colIndex(c)
		if ci < 0 {
			return fmt.Errorf("sqldb: table %s has no column %s", t.name, c)
		}
		if seen[ci] {
			return fmt.Errorf("sqldb: duplicate column %s in index %s", c, st.Name)
		}
		seen[ci] = true
		ix.cols = append(ix.cols, ci)
		ix.colNames = append(ix.colNames, t.cols[ci].Name)
	}
	// Build into the unpublished index: a fault or error at any point
	// before the final append leaves no trace of the index.
	if err := fault.Hit(faultIndexBuild); err != nil {
		return fmt.Errorf("sqldb: CREATE INDEX %s failed: %w", st.Name, err)
	}
	ix.rebuild(t.rows)
	if err := fault.Hit(faultIndexBuild); err != nil {
		return fmt.Errorf("sqldb: CREATE INDEX %s failed: %w", st.Name, err)
	}
	t.indexes = append(t.indexes, ix) // publish
	ex.db.gen++
	return nil
}

// indexOwner returns the table owning an index with the given name.
func (db *DB) indexOwner(name string) *table {
	for _, t := range db.tables {
		if t.findIndex(name) != nil {
			return t
		}
	}
	return nil
}

func (ex *executor) dropIndex(st *DropStmt) error {
	t := ex.db.indexOwner(st.Name)
	if t == nil {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("sqldb: no such index: %s", st.Name)
	}
	for i, ix := range t.indexes {
		if strings.EqualFold(ix.name, st.Name) {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			break
		}
	}
	return nil
}

// --- introspection & invariants ---

// IndexInfo describes one secondary index for catalog introspection.
type IndexInfo struct {
	Name    string
	Table   string
	Columns []string
	Kind    string // "ORDERED" or "HASH"
	Rows    int    // indexed rows (a hash index leaves out keys holding a NULL)
}

// TableIndexes returns the secondary indexes on a base table, sorted
// by name. The second return is false if the table does not exist.
func (db *DB) TableIndexes(table string) ([]IndexInfo, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexInfo, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, IndexInfo{
			Name:    ix.name,
			Table:   t.name,
			Columns: append([]string(nil), ix.colNames...),
			Kind:    ix.kind.String(),
			Rows:    ix.size(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, true
}

// CheckIndexes verifies that every secondary index is exactly
// consistent with its table's rows: same indexed row set, correct
// positions, correct keys, sorted entries, accurate distinct counts.
// It is the invariant the chaos index engines assert after faults.
func (db *DB) CheckIndexes() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		t.mu.RLock()
		err := t.checkIndexes()
		t.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *table) checkIndexes() error {
	for _, ix := range t.indexes {
		want := &index{name: ix.name, table: ix.table, kind: ix.kind, cols: ix.cols, colNames: ix.colNames}
		want.rebuild(t.rows)
		if ix.distinct != want.distinct {
			return fmt.Errorf("sqldb: index %s on %s: distinct=%d, want %d", ix.name, t.name, ix.distinct, want.distinct)
		}
		if ix.kind == indexHash {
			if len(ix.buckets) != len(want.buckets) {
				return fmt.Errorf("sqldb: index %s on %s: %d buckets, want %d", ix.name, t.name, len(ix.buckets), len(want.buckets))
			}
			for hk, wb := range want.buckets {
				gb := append([]int(nil), ix.buckets[hk]...)
				sort.Ints(gb)
				wbs := append([]int(nil), wb...)
				sort.Ints(wbs)
				if len(gb) != len(wbs) {
					return fmt.Errorf("sqldb: index %s on %s: bucket size mismatch", ix.name, t.name)
				}
				for i := range gb {
					if gb[i] != wbs[i] {
						return fmt.Errorf("sqldb: index %s on %s: bucket rows %v, want %v", ix.name, t.name, gb, wbs)
					}
				}
			}
			continue
		}
		if len(ix.entries) != len(want.entries) {
			return fmt.Errorf("sqldb: index %s on %s: %d entries, want %d", ix.name, t.name, len(ix.entries), len(want.entries))
		}
		for i := range ix.entries {
			if ix.entries[i].row != want.entries[i].row || compareKeys(ix.entries[i].key, want.entries[i].key) != 0 {
				return fmt.Errorf("sqldb: index %s on %s: entry %d is (%v,%d), want (%v,%d)",
					ix.name, t.name, i, ix.entries[i].key, ix.entries[i].row, want.entries[i].key, want.entries[i].row)
			}
		}
	}
	return nil
}

// RowCount returns the number of rows in a base table. The second
// return is false if the table does not exist.
func (db *DB) RowCount(table string) (int, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows), true
}
