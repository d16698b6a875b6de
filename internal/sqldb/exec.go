package sqldb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"maxoid/internal/fault"
)

// colBinding names one column of a row in scope while binding,
// optionally qualified by a table alias.
type colBinding struct {
	qual string
	name string
}

// scope is one row in scope during execution. Scopes nest for
// correlated subqueries and trigger NEW/OLD rows exactly as the
// binder's frames did, so a slotRef finds its row depth parents up.
type scope struct {
	parent *scope
	row    []Value
}

// executor runs bound statements against a DB. The DB lock is held by
// the caller for the duration of a batch.
type executor struct {
	db   *DB
	args []Value

	// inCache memoizes the value sets of non-correlated IN subqueries,
	// so each is evaluated once per statement, as SQLite does, instead
	// of once per candidate row. Any table mutation drops the cache
	// (triggers can write mid-query).
	inCache map[*boundIn]map[string]bool

	// sc holds the per-statement scratch arenas; argsBuf is the reusable
	// backing for bound arguments. Both survive pooling (see scratch.go).
	sc      scratch
	argsBuf []Value
}

// invalidateInCache drops memoized subquery results after a mutation.
func (ex *executor) invalidateInCache() {
	ex.inCache = nil
}

// valueKey builds a hash key consistent with compare()'s equality:
// numerics collapse to their float value (-0.0 to 0), other types are
// tag-prefixed.
func valueKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return "n"
	case int64:
		return "f" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case float64:
		if x == 0 {
			x = 0 // -0.0 == 0 under compare
		}
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + x
	case []byte:
		return "b" + string(x)
	}
	return "x" + fmt.Sprint(v)
}

// rowKey builds one key for a tuple of values from their valueKeys,
// every component but the last behind its length, so that two tuples
// of one arity share a key exactly when their values are pairwise
// equal under compare(). It keys hash index buckets, DISTINCT and
// GROUP BY; a one-column key is the value's valueKey.
func rowKey(vals []Value) string {
	if len(vals) == 1 {
		return valueKey(vals[0])
	}
	var buf [64]byte
	b := buf[:0]
	for i, v := range vals {
		k := valueKey(v)
		if i < len(vals)-1 {
			b = strconv.AppendInt(b, int64(len(k)), 10)
			b = append(b, ':')
		}
		b = append(b, k...)
	}
	return string(b)
}

// execStmt runs one statement of a batch; m memoizes its binding.
func (ex *executor) execStmt(s Stmt, m *memo[bstmt]) (Result, error) {
	b, err := ex.bindStmt(s, m)
	if err != nil {
		return Result{}, err
	}
	return ex.run(s, b, nil)
}

// run executes statement s under its binding b (nil for statements
// that run unbound). sc is the NEW/OLD row when s is a trigger body
// statement, else nil.
func (ex *executor) run(s Stmt, b bstmt, sc *scope) (Result, error) {
	switch x := b.(type) {
	case *boundSelect:
		rows, err := ex.execSelect(x, sc)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: int64(len(rows.Data))}, nil
	case *boundInsert:
		if x.tbl != nil {
			return ex.insertTable(x, sc)
		}
		return ex.insertView(x, sc)
	case *boundUpdate:
		if x.tbl != nil {
			return ex.updateTable(x, sc)
		}
		return ex.updateView(x, sc)
	case *boundDelete:
		if x.tbl != nil {
			return ex.deleteTable(x, sc)
		}
		return ex.deleteView(x, sc)
	}
	switch st := s.(type) {
	case *CreateTableStmt:
		return Result{}, ex.createTable(st)
	case *CreateViewStmt:
		return Result{}, ex.createView(st)
	case *CreateTriggerStmt:
		return Result{}, ex.createTrigger(st)
	case *CreateIndexStmt:
		return Result{}, ex.createIndex(st)
	case *ExplainStmt:
		rows, err := ex.execExplain(st)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: int64(len(rows.Data))}, nil
	case *DropStmt:
		return Result{}, ex.drop(st)
	case *TxnStmt:
		return Result{}, ex.execTxn(st)
	}
	return Result{}, fmt.Errorf("sqldb: unsupported statement %T", s)
}

// txnSnapshot captures everything a ROLLBACK must restore.
type txnSnapshot struct {
	tables   map[string]*table
	views    map[string]*view
	triggers map[string][]*trigger
	byName   map[string]*trigger
	lastID   int64
}

// execTxn implements BEGIN/COMMIT/ROLLBACK with full-database
// snapshot semantics (SQLite's single-writer transactions; the engine
// already serializes writers on db.mu).
func (ex *executor) execTxn(st *TxnStmt) error {
	db := ex.db
	switch st.Kind {
	case "BEGIN":
		if db.txn != nil {
			return fmt.Errorf("sqldb: cannot start a transaction within a transaction")
		}
		snap := &txnSnapshot{
			tables:   make(map[string]*table, len(db.tables)),
			views:    make(map[string]*view, len(db.views)),
			triggers: make(map[string][]*trigger, len(db.triggers)),
			byName:   make(map[string]*trigger, len(db.byName)),
			lastID:   db.lastID.Load(),
		}
		for k, t := range db.tables {
			snap.tables[k] = t.clone()
		}
		for k, v := range db.views {
			snap.views[k] = v
		}
		for k, trs := range db.triggers {
			snap.triggers[k] = append([]*trigger{}, trs...)
		}
		for k, tr := range db.byName {
			snap.byName[k] = tr
		}
		db.txn = snap
		return nil
	case "COMMIT":
		if db.txn == nil {
			return fmt.Errorf("sqldb: cannot commit - no transaction is active")
		}
		if err := fault.Hit(faultCommit); err != nil {
			// A failed commit must not leave half-applied state: restore
			// the BEGIN snapshot, as SQLite rolls back when the commit
			// itself hits an I/O error.
			ex.restoreSnapshot()
			return fmt.Errorf("sqldb: commit failed: %w", err)
		}
		db.txn = nil
		return nil
	case "ROLLBACK":
		if db.txn == nil {
			return fmt.Errorf("sqldb: cannot rollback - no transaction is active")
		}
		ex.restoreSnapshot()
		return nil
	}
	return fmt.Errorf("sqldb: unknown transaction statement %s", st.Kind)
}

// restoreSnapshot rolls the database back to the active transaction's
// BEGIN snapshot and ends the transaction. The caller has checked that
// db.txn is non-nil; shared by ROLLBACK and failed COMMIT.
func (ex *executor) restoreSnapshot() {
	db := ex.db
	snap := db.txn
	db.txn = nil
	db.tables = snap.tables
	db.views = snap.views
	db.triggers = snap.triggers
	db.byName = snap.byName
	db.lastID.Store(snap.lastID)
	db.gen++
	ex.invalidateInCache()
}

func (ex *executor) createTable(st *CreateTableStmt) error {
	key := strings.ToLower(st.Name)
	if _, ok := ex.db.tables[key]; ok {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: table %s already exists", st.Name)
	}
	if _, ok := ex.db.views[key]; ok {
		return fmt.Errorf("sqldb: view %s already exists", st.Name)
	}
	pk := -1
	for i, c := range st.Cols {
		if c.PrimaryKey {
			if pk >= 0 {
				return fmt.Errorf("sqldb: multiple primary keys in %s", st.Name)
			}
			pk = i
		}
	}
	ex.db.tables[key] = &table{
		name:    st.Name,
		cols:    st.Cols,
		pk:      pk,
		byPK:    make(map[int64]int),
		intKeys: true,
		nextID:  1,
	}
	ex.db.gen++
	return nil
}

func (ex *executor) createView(st *CreateViewStmt) error {
	key := strings.ToLower(st.Name)
	if _, ok := ex.db.views[key]; ok {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: view %s already exists", st.Name)
	}
	if _, ok := ex.db.tables[key]; ok {
		return fmt.Errorf("sqldb: table %s already exists", st.Name)
	}
	cols, err := ex.selectColumns(st.Select)
	if err != nil {
		return err
	}
	ex.db.views[key] = &view{name: st.Name, def: st.Select, cols: cols}
	ex.db.gen++
	return nil
}

// selectColumns computes the output column names of a select without
// running it (used at view creation).
func (ex *executor) selectColumns(sel *SelectStmt) ([]string, error) {
	core := sel.Cores[0]
	var out []string
	for _, rc := range core.Cols {
		if !rc.Star && rc.TableStar == "" {
			out = append(out, exprName(rc))
			continue
		}
		var refs []TableRef
		if core.From != nil {
			refs = append(refs, *core.From)
		}
		for _, j := range core.Joins {
			refs = append(refs, j.Ref)
		}
		for _, ref := range refs {
			cols, err := ex.refBindings(ref)
			if err != nil {
				return nil, err
			}
			for _, c := range cols {
				if rc.Star || strings.EqualFold(c.qual, rc.TableStar) {
					out = append(out, c.name)
				}
			}
		}
	}
	return out, nil
}

func (ex *executor) refBindings(ref TableRef) ([]colBinding, error) {
	if ref.Sub != nil {
		cols, err := ex.selectColumns(ref.Sub)
		if err != nil {
			return nil, err
		}
		out := make([]colBinding, len(cols))
		for i, c := range cols {
			out[i] = colBinding{qual: ref.Alias, name: c}
		}
		return out, nil
	}
	key := strings.ToLower(ref.Name)
	if t, ok := ex.db.tables[key]; ok {
		return tableCols(t, refQual(ref)), nil
	}
	if v, ok := ex.db.views[key]; ok {
		return viewCols(v, refQual(ref)), nil
	}
	return nil, fmt.Errorf("sqldb: no such table: %s", ref.Name)
}

// exprName derives an output column name from a result column.
func exprName(rc ResultCol) string {
	if rc.Alias != "" {
		return rc.Alias
	}
	switch e := rc.Expr.(type) {
	case *ColRef:
		return e.Col
	case *Call:
		return strings.ToLower(e.Name)
	}
	return "expr"
}

func (ex *executor) createTrigger(st *CreateTriggerStmt) error {
	key := strings.ToLower(st.Name)
	if _, ok := ex.db.byName[key]; ok {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: trigger %s already exists", st.Name)
	}
	viewKey := strings.ToLower(st.View)
	if _, ok := ex.db.views[viewKey]; !ok {
		return fmt.Errorf("sqldb: INSTEAD OF trigger requires a view, %s is not one", st.View)
	}
	tr := &trigger{name: st.Name, event: st.Event, view: st.View, body: st.Body}
	ex.db.byName[key] = tr
	ex.db.triggers[viewKey] = append(ex.db.triggers[viewKey], tr)
	ex.db.gen++
	return nil
}

func (ex *executor) drop(st *DropStmt) error {
	key := strings.ToLower(st.Name)
	ex.db.gen++
	switch st.Kind {
	case "TABLE":
		if _, ok := ex.db.tables[key]; !ok {
			if st.IfExists {
				return nil
			}
			return fmt.Errorf("sqldb: no such table: %s", st.Name)
		}
		delete(ex.db.tables, key)
	case "VIEW":
		if _, ok := ex.db.views[key]; !ok {
			if st.IfExists {
				return nil
			}
			return fmt.Errorf("sqldb: no such view: %s", st.Name)
		}
		delete(ex.db.views, key)
		for _, tr := range ex.db.triggers[key] {
			delete(ex.db.byName, strings.ToLower(tr.name))
		}
		delete(ex.db.triggers, key)
	case "INDEX":
		return ex.dropIndex(st)
	case "TRIGGER":
		tr, ok := ex.db.byName[key]
		if !ok {
			if st.IfExists {
				return nil
			}
			return fmt.Errorf("sqldb: no such trigger: %s", st.Name)
		}
		delete(ex.db.byName, key)
		viewKey := strings.ToLower(tr.view)
		list := ex.db.triggers[viewKey]
		for i := range list {
			if list[i] == tr {
				ex.db.triggers[viewKey] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	return nil
}

// --- INSERT / UPDATE / DELETE ---

// insertRows materializes the value rows of an INSERT.
func (ex *executor) insertRows(bi *boundInsert, sc *scope) ([][]Value, error) {
	if bi.sel != nil {
		rows, err := ex.execSelect(bi.sel, sc)
		if err != nil {
			return nil, err
		}
		return rows.Data, nil
	}
	out := make([][]Value, 0, len(bi.rows))
	for _, exprRow := range bi.rows {
		// Arena-backed: insertTable copies these values into the stored
		// row, so the materialized expression rows die with the statement.
		row := ex.values(len(exprRow))
		for i, e := range exprRow {
			v, err := ex.eval(e, sc, nil)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

func (ex *executor) insertTable(bi *boundInsert, sc *scope) (Result, error) {
	t := bi.tbl
	valueRows, err := ex.insertRows(bi, sc)
	if err != nil {
		return Result{}, err
	}
	var affected int64
	for _, vr := range valueRows {
		if len(vr) != len(bi.cols) {
			return Result{}, fmt.Errorf("sqldb: %d values for %d columns", len(vr), len(bi.cols))
		}
		// The maintenance fault fires before this row touches the table,
		// so rows already inserted stay consistent with their indexes.
		if err := t.indexMaintHit(); err != nil {
			return Result{}, err
		}
		// row is stored in the table, so it must be heap-allocated.
		row := make([]Value, len(t.cols))
		for i, idx := range bi.cols {
			row[idx] = normalize(vr[i])
		}
		// Defaults for the columns the statement gives no value.
		for i, d := range bi.defaults {
			if d == nil {
				continue
			}
			v, err := ex.eval(d, nil, nil)
			if err != nil {
				return Result{}, err
			}
			row[i] = v
		}
		// Primary key assignment.
		if t.pk >= 0 {
			if row[t.pk] == nil {
				row[t.pk] = t.nextID
			}
			id, ok := AsInt(row[t.pk])
			if !ok {
				return Result{}, fmt.Errorf("sqldb: non-integer primary key in %s", t.name)
			}
			row[t.pk] = id
			if id >= t.nextID {
				t.nextID = id + 1
			}
			if existing, ok := t.byPK[id]; ok {
				if !bi.replace {
					return Result{}, fmt.Errorf("sqldb: UNIQUE constraint failed: %s.%s", t.name, t.cols[t.pk].Name)
				}
				t.indexRemove(existing, t.rows[existing])
				t.rows[existing] = row
				t.indexInsert(existing, row)
				ex.db.lastID.Store(id)
				affected++
				continue
			}
			t.byPK[id] = len(t.rows)
			ex.db.lastID.Store(id)
		}
		// NOT NULL enforcement.
		for i, c := range t.cols {
			if c.NotNull && row[i] == nil {
				return Result{}, fmt.Errorf("sqldb: NOT NULL constraint failed: %s.%s", t.name, c.Name)
			}
		}
		t.rows = append(t.rows, row)
		t.indexInsert(len(t.rows)-1, row)
		affected++
	}
	ex.invalidateInCache()
	return Result{LastInsertID: ex.db.lastID.Load(), RowsAffected: affected}, nil
}

// insertView fires INSTEAD OF INSERT triggers with NEW bound per row.
func (ex *executor) insertView(bi *boundInsert, sc *scope) (Result, error) {
	v := bi.view
	if len(bi.trs) == 0 {
		return Result{}, fmt.Errorf("sqldb: cannot modify view %s: no INSTEAD OF INSERT trigger", v.name)
	}
	valueRows, err := ex.insertRows(bi, sc)
	if err != nil {
		return Result{}, err
	}
	var affected int64
	for _, vr := range valueRows {
		if len(vr) != len(bi.cols) {
			return Result{}, fmt.Errorf("sqldb: %d values for %d columns", len(vr), len(bi.cols))
		}
		newRow := ex.values(len(v.cols))
		for i, idx := range bi.cols {
			newRow[idx] = normalize(vr[i])
		}
		if err := ex.fireTriggers(bi.trs, v, newRow); err != nil {
			return Result{}, err
		}
		affected++
	}
	return Result{LastInsertID: ex.db.lastID.Load(), RowsAffected: affected}, nil
}

// fireTriggers runs trigger bodies over row, NEW's values then OLD's
// (the layout triggerBody binds against). A trigger body sees no row of
// the statement that fired it.
func (ex *executor) fireTriggers(trs []*trigger, v *view, row []Value) error {
	trigScope := ex.newScope(nil, row)
	for _, tr := range trs {
		body, err := ex.triggerBody(tr, v)
		if err != nil {
			return err
		}
		for i, s := range tr.body {
			if _, err := ex.run(s, body[i], trigScope); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ex *executor) updateTable(bu *boundUpdate, sc *scope) (Result, error) {
	t := bu.tbl
	// changed marks the columns any SET clause can touch, so index
	// maintenance only re-keys indexes covering an assigned column.
	changed := ex.boolsBuf(len(t.cols))
	for _, idx := range bu.set {
		changed[idx] = true
	}
	var affected int64
	pkChanged := false
	maintain := len(t.indexes) > 0
	// Access-path layer: probe for candidate positions when an index
	// covers the WHERE; the filter evaluates what the probe left over.
	ap := ex.chooseAccess(t, &bu.shape)
	ex.db.countAccess(ap.kind)
	// The plan kind, not the slice, decides probe vs scan: a probe that
	// found nothing visits no rows.
	probe := ap.kind != accessSeqScan
	var positions []int
	n := len(t.rows)
	if probe {
		positions = ap.sortedPositions()
		n = len(positions)
	}
	// One scope and one assignment buffer for the whole row loop: the
	// scope's row is rebound per candidate, and newVals is fully copied
	// into the row before the next iteration overwrites it.
	rowScope := ex.newScope(sc, nil)
	newVals := ex.values(len(bu.set))
	for ci := 0; ci < n; ci++ {
		pos := ci
		if probe {
			pos = positions[ci]
		}
		row := t.rows[pos]
		rowScope.row = row
		match, err := ex.filter(bu.where, ap, rowScope)
		if err != nil {
			return Result{}, err
		}
		if !match {
			continue
		}
		// Evaluate all assignments against the pre-update row.
		for i, e := range bu.exprs {
			v, err := ex.eval(e, rowScope, nil)
			if err != nil {
				return Result{}, err
			}
			newVals[i] = v
		}
		// Fault fires before this row mutates: already-updated rows and
		// their index entries stay consistent.
		if err := t.indexMaintHit(); err != nil {
			return Result{}, err
		}
		var oldRow []Value
		if maintain {
			oldRow = append([]Value(nil), row...)
		}
		for i, idx := range bu.set {
			if idx == t.pk {
				// Until reindex recounts them, even if a later row fails.
				pkChanged, t.intKeys = true, false
			}
			row[idx] = newVals[i]
		}
		if maintain {
			t.indexUpdate(pos, oldRow, row, changed)
		}
		affected++
	}
	if pkChanged {
		t.reindex()
	}
	ex.invalidateInCache()
	return Result{RowsAffected: affected}, nil
}

// updateView fires INSTEAD OF UPDATE triggers for each view row the
// view scan finds, with SET evaluated against the row.
func (ex *executor) updateView(bu *boundUpdate, sc *scope) (Result, error) {
	v := bu.view
	if len(bu.trs) == 0 {
		return Result{}, fmt.Errorf("sqldb: cannot modify view %s: no INSTEAD OF UPDATE trigger", v.name)
	}
	rows, err := ex.execSelect(bu.scan, sc)
	if err != nil {
		return Result{}, err
	}
	var affected int64
	n := len(v.cols)
	rowScope := ex.newScope(sc, nil)
	for _, row := range rows.Data {
		rowScope.row = row
		// NEW then OLD; NEW starts as a copy of the row.
		trow := ex.values(2 * n)
		copy(trow, row)
		copy(trow[n:], row)
		for i, e := range bu.exprs {
			val, err := ex.eval(e, rowScope, nil)
			if err != nil {
				return Result{}, err
			}
			trow[bu.set[i]] = val
		}
		if err := ex.fireTriggers(bu.trs, v, trow); err != nil {
			return Result{}, err
		}
		affected++
	}
	return Result{RowsAffected: affected}, nil
}

func (ex *executor) deleteTable(bd *boundDelete, sc *scope) (Result, error) {
	t := bd.tbl
	// Access-path fast path: when a pk or secondary-index probe covers
	// part of the WHERE, filter only the candidates and swap-delete the
	// matches. The last row swaps into each hole (row order without
	// ORDER BY is unspecified, as in SQLite), so only one index entry
	// moves per deletion. Deleting from the highest position down keeps
	// pending positions valid: every slot filled by a swap came from
	// beyond the remaining matches.
	ap := ex.chooseAccess(t, &bd.shape)
	ex.db.countAccess(ap.kind)
	rowScope := ex.newScope(sc, nil)
	if ap.kind != accessSeqScan {
		var matched []int
		for _, pos := range ap.sortedPositions() {
			rowScope.row = t.rows[pos]
			match, err := ex.filter(bd.where, ap, rowScope)
			if err != nil {
				return Result{}, err
			}
			if match {
				matched = append(matched, pos)
			}
		}
		if len(matched) == 0 {
			return Result{}, nil
		}
		if err := t.indexMaintHit(); err != nil {
			return Result{}, err
		}
		for i := len(matched) - 1; i >= 0; i-- {
			pos := matched[i]
			row := t.rows[pos]
			t.indexRemove(pos, row)
			if t.pk >= 0 {
				if id, ok := AsInt(row[t.pk]); ok {
					delete(t.byPK, id)
				}
			}
			last := len(t.rows) - 1
			if pos != last {
				moved := t.rows[last]
				t.indexMove(last, pos, moved)
				t.rows[pos] = moved
				if t.pk >= 0 {
					if movedID, ok := AsInt(moved[t.pk]); ok {
						t.byPK[movedID] = pos
					}
				}
			}
			t.rows = t.rows[:last]
		}
		ex.invalidateInCache()
		return Result{RowsAffected: int64(len(matched))}, nil
	}
	kept := t.rows[:0:0]
	var affected int64
	for _, row := range t.rows {
		rowScope.row = row
		match, err := ex.filter(bd.where, ap, rowScope)
		if err != nil {
			return Result{}, err
		}
		if !match {
			kept = append(kept, row)
			continue
		}
		affected++
	}
	// The scan path commits in one step (row compaction + reindex), so a
	// fault here leaves the table untouched.
	if err := t.indexMaintHit(); err != nil {
		return Result{}, err
	}
	t.rows = kept
	t.reindex()
	ex.invalidateInCache()
	return Result{RowsAffected: affected}, nil
}

// deleteView fires INSTEAD OF DELETE triggers with OLD bound to each
// view row the view scan finds.
func (ex *executor) deleteView(bd *boundDelete, sc *scope) (Result, error) {
	v := bd.view
	if len(bd.trs) == 0 {
		return Result{}, fmt.Errorf("sqldb: cannot modify view %s: no INSTEAD OF DELETE trigger", v.name)
	}
	rows, err := ex.execSelect(bd.scan, sc)
	if err != nil {
		return Result{}, err
	}
	var affected int64
	for _, row := range rows.Data {
		if err := ex.fireTriggers(bd.trs, v, row); err != nil {
			return Result{}, err
		}
		affected++
	}
	return Result{RowsAffected: affected}, nil
}

// --- SELECT ---

// filter reports whether the row in sc passes where under plan ap: it
// evaluates the residual, where without the conjuncts ap answered, and
// an exact plan's candidates pass outright. Every consumer of a WHERE —
// a select arm's source rows, UPDATE and DELETE candidates — filters
// through it.
func (ex *executor) filter(where Expr, ap *accessPlan, sc *scope) (bool, error) {
	if where == nil || ap.exact {
		return true, nil
	}
	conj := 0
	v, err := ex.residual(where, ap.answered, &conj, sc)
	// A comparison or AND yields an int64 0 or 1, decided here without
	// a call: filter runs once per candidate row.
	if b, ok := v.(int64); ok {
		return b != 0, err
	}
	return truthy(v), err
}

// residual evaluates where, whose first top-level conjunct is number
// *conj, with the conjuncts in answered taken as TRUE. AND keeps its
// three-valued logic and left-to-right order: it stops at the first
// FALSE conjunct, and a NULL one does not stop it, so a residual
// conjunct is evaluated, and can fail, exactly where the full WHERE
// would evaluate it; TRUE AND x is x.
func (ex *executor) residual(where Expr, answered uint64, conj *int, sc *scope) (Value, error) {
	and, ok := where.(*Binary)
	if !ok || and.Op != "AND" {
		i := *conj
		*conj++
		if i < maxAnswered && answered&(1<<i) != 0 {
			return boolVal(true), nil
		}
		return ex.eval(where, sc, nil)
	}
	l, err := ex.residual(and.L, answered, conj, sc)
	if err != nil || l != nil && !truthy(l) {
		return boolVal(false), err
	}
	r, err := ex.residual(and.R, answered, conj, sc)
	if err != nil || r != nil && !truthy(r) {
		return boolVal(false), err
	}
	if l == nil || r == nil {
		return nil, nil
	}
	return boolVal(true), nil
}

// execSelect executes a bound (possibly compound) select. While every
// arm's plan yields the ORDER BY, nothing is sorted: a single arm is
// already in order, and each further arm is merged into those before it.
func (ex *executor) execSelect(bs *boundSelect, sc *scope) (*Rows, error) {
	if bs.merged {
		ex.db.statFlattened.Add(1)
	}
	var data, srcRows [][]Value
	ordered := len(bs.order) > 0
	for i, core := range bs.cores {
		out, src, inOrder, err := ex.execCore(core, sc)
		if err != nil {
			return nil, err
		}
		ordered = ordered && inOrder
		switch {
		case i == 0:
			data, srcRows = out, src
		case ordered:
			data = mergeArm(data, out, bs.order[0])
		default:
			data = append(data, out...)
		}
	}
	out := &Rows{Columns: slices.Clone(bs.cols), Data: data}
	if err := ex.orderAndLimit(bs, out, sc, srcRows, ordered); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeArm stably merges arm, whose rows are in the order of the
// single ORDER BY term (which reads an output column), into rows, the
// arms before it, merged already; on a tie the earlier arm's row comes
// first. Merging arm by arm thus gives the stable sort of the
// concatenation, and a sort after an arm that is not in order still
// sees equal keys in their concatenation order.
func mergeArm(rows, arm [][]Value, term boundOrder) [][]Value {
	if len(arm) == 0 {
		return rows
	}
	if len(rows) == 0 {
		return arm
	}
	col := term.outCol()
	out := make([][]Value, 0, len(rows)+len(arm))
	i, j := 0, 0
	for i < len(rows) && j < len(arm) {
		c := compare(arm[j][col], rows[i][col])
		if term.desc {
			c = -c
		}
		if c < 0 {
			out = append(out, arm[j])
			j++
		} else {
			out = append(out, rows[i])
			i++
		}
	}
	out = append(out, rows[i:]...)
	return append(out, arm[j:]...)
}

// orderAndLimit applies ORDER BY / LIMIT / OFFSET to a result set,
// sorting unless the rows are already in order (sorted). For a
// single-core select, srcRows (aligned with out.Data) let ORDER BY
// terms read source columns that were not projected (SQLite permits
// this).
func (ex *executor) orderAndLimit(bs *boundSelect, out *Rows, sc *scope, srcRows [][]Value, sorted bool) error {
	if len(bs.order) > 0 && !sorted {
		// Both scopes are rebound per row rather than reallocated.
		parent := sc
		var srcScope *scope
		if bs.srcOrder {
			srcScope = ex.newScope(sc, nil)
			parent = srcScope
		}
		rowScope := ex.newScope(parent, nil)
		// Every row's key sits in one statement-scoped array: row ri's
		// key is keys[ri*nt:(ri+1)*nt].
		nt := len(bs.order)
		keys := ex.values(len(out.Data) * nt)
		for ri, row := range out.Data {
			if srcScope != nil {
				srcScope.row = srcRows[ri]
			}
			rowScope.row = row
			key := keys[ri*nt : (ri+1)*nt]
			for ti, term := range bs.order {
				if col := term.outCol(); col >= 0 {
					key[ti] = row[col]
					continue
				}
				v, err := ex.eval(term.expr, rowScope, nil)
				if err != nil {
					return err
				}
				key[ti] = v
			}
		}
		sortRowsByKeys(out.Data, keys, bs.order)
	}
	if bs.limit != nil {
		limitV, err := ex.eval(bs.limit, sc, nil)
		if err != nil {
			return err
		}
		limit, _ := AsInt(limitV)
		offset := int64(0)
		if bs.offset != nil {
			offV, err := ex.eval(bs.offset, sc, nil)
			if err != nil {
				return err
			}
			offset, _ = AsInt(offV)
		}
		if offset < 0 {
			offset = 0
		}
		if offset > int64(len(out.Data)) {
			offset = int64(len(out.Data))
		}
		end := int64(len(out.Data))
		// limit < end-offset, not offset+limit < end: the sum overflows
		// for LIMIT near max int64.
		if limit >= 0 && limit < end-offset {
			end = offset + limit
		}
		out.Data = out.Data[offset:end]
	}
	return nil
}

// sortRowsByKeys stably sorts rows by precomputed keys: row i's key
// is keys[i*len(terms):(i+1)*len(terms)].
func sortRowsByKeys(rows [][]Value, keys []Value, terms []boundOrder) {
	type pair struct {
		row []Value
		key []Value
	}
	nt := len(terms)
	pairs := make([]pair, len(rows))
	for i := range rows {
		pairs[i] = pair{rows[i], keys[i*nt : (i+1)*nt]}
	}
	slices.SortStableFunc(pairs, func(a, b pair) int {
		for ti, term := range terms {
			if c := compare(a.key[ti], b.key[ti]); c != 0 {
				if term.desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	for i := range pairs {
		rows[i] = pairs[i].row
	}
}

// execCore executes one arm of a select, returning its output rows
// and, when the arm keeps them aligned (no aggregate, no DISTINCT), the
// source row of each output row for ORDER BY. ordered reports that the
// rows come in the order of the select's ORDER BY.
func (ex *executor) execCore(core *boundCore, sc *scope) (out, src [][]Value, ordered bool, err error) {
	src, ap, err := ex.buildFrom(core, sc)
	if err != nil {
		return nil, nil, false, err
	}
	if core.where != nil && !ap.exact {
		// Filter in place: every source slice is the statement's own.
		filtered := src[:0]
		rowScope := ex.newScope(sc, nil)
		for _, row := range src {
			rowScope.row = row
			match, err := ex.filter(core.where, ap, rowScope)
			if err != nil {
				return nil, nil, false, err
			}
			if match {
				filtered = append(filtered, row)
			}
		}
		src = filtered
	}
	if core.agg != nil {
		out, err := ex.execAggregate(core, src, sc)
		return out, nil, false, err
	}
	ordered = ap.ordered
	out, err = ex.project(core, src, sc)
	if err != nil {
		return nil, nil, false, err
	}
	if core.distinct {
		return dedupeRows(out), nil, ordered, nil
	}
	return out, src, ordered, nil
}

func dedupeRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, row := range rows {
		k := rowKey(row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// wholeFrom is the plan of a FROM clause read whole, which answers
// nothing and yields no order. It is shared and never written.
var wholeFrom accessPlan

// buildFrom materializes the FROM clause (including joins), and
// returns the access plan that chose the rows. A single base table goes
// through the access-path layer (access.go), which probes the primary
// key or an index instead of scanning when the WHERE allows; any other
// FROM clause is read whole, under wholeFrom.
func (ex *executor) buildFrom(core *boundCore, sc *scope) ([][]Value, *accessPlan, error) {
	if t := core.tbl; t != nil {
		ap := ex.chooseAccess(t, &core.shape)
		if ap.kind == accessSeqScan {
			return ex.scanTable(t), ap, nil
		}
		ex.db.countAccess(ap.kind)
		return ap.fetchRows(), ap, nil
	}
	if len(core.srcs) == 0 {
		return [][]Value{{}}, &wholeFrom, nil
	}
	left, err := ex.scanSource(&core.srcs[0])
	if err != nil {
		return nil, nil, err
	}
	rowScope := ex.newScope(sc, nil)
	for i := 1; i < len(core.srcs); i++ {
		j := &core.srcs[i]
		right, err := ex.scanSource(j)
		if err != nil {
			return nil, nil, err
		}
		var joined [][]Value
		nullRight := make([]Value, j.width)
		for _, lrow := range left {
			matched := false
			for _, rrow := range right {
				combined := append(append([]Value{}, lrow...), rrow...)
				if j.on != nil {
					rowScope.row = combined
					ok, err := ex.eval(j.on, rowScope, nil)
					if err != nil {
						return nil, nil, err
					}
					if !truthy(ok) {
						continue
					}
				}
				matched = true
				joined = append(joined, combined)
			}
			if !matched && j.left {
				joined = append(joined, append(append([]Value{}, lrow...), nullRight...))
			}
		}
		left = joined
	}
	return left, &wholeFrom, nil
}

// scanSource materializes a table, view or subquery source. A
// subquery and a view run in their own scope: they bind in it.
func (ex *executor) scanSource(s *boundSource) ([][]Value, error) {
	switch {
	case s.tbl != nil:
		return ex.scanTable(s.tbl), nil
	case s.view != nil:
		return ex.materializeView(s.view)
	}
	rows, err := ex.execSelect(s.sub, nil)
	if err != nil {
		return nil, err
	}
	return rows.Data, nil
}

// scanTable returns every row of t, sharing row slices with the table.
func (ex *executor) scanTable(t *table) [][]Value {
	ex.db.statSeqScan.Add(1)
	rows := make([][]Value, len(t.rows))
	copy(rows, t.rows)
	return rows
}

// materializeView fully evaluates a view definition.
func (ex *executor) materializeView(v *view) ([][]Value, error) {
	ex.db.statMaterialize.Add(1)
	body, err := ex.viewBody(v)
	if err != nil {
		return nil, err
	}
	rows, err := ex.execSelect(body, nil)
	if err != nil {
		return nil, err
	}
	return rows.Data, nil
}

// project applies the select list to each source row.
func (ex *executor) project(core *boundCore, src [][]Value, sc *scope) ([][]Value, error) {
	// One backing array holds every projected row. Each row is a capped
	// sub-slice of it, so an append to one row cannot write into the next.
	n := len(core.exprs)
	flat := make([]Value, len(src)*n)
	out := make([][]Value, len(src))
	for ri := range out {
		out[ri] = flat[ri*n : (ri+1)*n : (ri+1)*n]
	}
	// A list of plain source columns copies by slot.
	if core.plain {
		slots := ex.intsBuf(n)
		for i, e := range core.exprs {
			slots[i] = e.(*slotRef).slot
		}
		for ri, row := range src {
			projected := out[ri]
			for i, slot := range slots {
				projected[i] = row[slot]
			}
		}
		return out, nil
	}
	rowScope := ex.newScope(sc, nil)
	for ri, row := range src {
		rowScope.row = row
		projected := out[ri]
		for i, e := range core.exprs {
			v, err := ex.eval(e, rowScope, nil)
			if err != nil {
				return nil, err
			}
			projected[i] = v
		}
	}
	return out, nil
}

// groupData carries the rows of one aggregation group.
type groupData struct {
	rows [][]Value
}

func (ex *executor) hasAggregate(cols []ResultCol) bool {
	for _, rc := range cols {
		if rc.Expr != nil && exprHasAggregate(rc.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		switch x.Name {
		case "COUNT", "SUM", "AVG", "TOTAL":
			return true
		case "MAX", "MIN":
			return x.Star || len(x.Args) == 1
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *Unary:
		return exprHasAggregate(x.X)
	case *Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *IsNull:
		return exprHasAggregate(x.X)
	case *Between:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	}
	return false
}

// execAggregate evaluates an aggregate (optionally grouped) core.
func (ex *executor) execAggregate(core *boundCore, src [][]Value, sc *scope) ([][]Value, error) {
	agg := core.agg
	groups := []groupData{}
	rowScope := ex.newScope(sc, nil)
	if len(agg.groupBy) == 0 {
		groups = append(groups, groupData{rows: src})
	} else {
		index := map[string]int{}
		key := make([]Value, len(agg.groupBy))
		for _, row := range src {
			rowScope.row = row
			for i, g := range agg.groupBy {
				v, err := ex.eval(g, rowScope, nil)
				if err != nil {
					return nil, err
				}
				key[i] = v
			}
			k := rowKey(key)
			gi, ok := index[k]
			if !ok {
				gi = len(groups)
				index[k] = gi
				groups = append(groups, groupData{})
			}
			groups[gi].rows = append(groups[gi].rows, row)
		}
	}
	var out [][]Value
	for gi := range groups {
		g := &groups[gi]
		if len(g.rows) > 0 {
			rowScope.row = g.rows[0]
		} else {
			rowScope.row = make([]Value, core.width)
		}
		if agg.having != nil {
			keep, err := ex.eval(agg.having, rowScope, g)
			if err != nil {
				return nil, err
			}
			if !truthy(keep) {
				continue
			}
		}
		if agg.star {
			return nil, fmt.Errorf("sqldb: * not allowed with aggregates")
		}
		projected := make([]Value, len(core.exprs))
		for i, e := range core.exprs {
			v, err := ex.eval(e, rowScope, g)
			if err != nil {
				return nil, err
			}
			projected[i] = v
		}
		out = append(out, projected)
	}
	return out, nil
}
