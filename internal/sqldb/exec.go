package sqldb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"maxoid/internal/fault"
)

// colBinding names one column of a relation, optionally qualified by a
// table alias.
type colBinding struct {
	qual string
	name string
}

// relation is a materialized intermediate result.
type relation struct {
	cols []colBinding
	rows [][]Value
}

// scope binds column names to values for expression evaluation; scopes
// nest for correlated subqueries and trigger NEW/OLD rows.
type scope struct {
	parent *scope
	cols   []colBinding
	row    []Value
}

// lookup finds a column value by (qualifier, name). The boolean reports
// whether the name resolved anywhere in the scope chain.
func (sc *scope) lookup(qual, name string) (Value, bool) {
	for s := sc; s != nil; s = s.parent {
		for i, b := range s.cols {
			if qual != "" && !strings.EqualFold(b.qual, qual) {
				continue
			}
			if strings.EqualFold(b.name, name) {
				return s.row[i], true
			}
		}
	}
	return nil, false
}

// executor runs statements against a DB. The DB lock is held by the
// caller for the duration of a batch.
type executor struct {
	db   *DB
	args []Value

	// inCache memoizes the value sets of non-correlated IN subqueries
	// so WHERE clauses like "_id NOT IN (SELECT _id FROM delta)" — the
	// COW view's shape — evaluate the subquery once per statement, as
	// SQLite does, instead of once per candidate row. Any table
	// mutation drops the cache (triggers can write mid-query).
	inCache    map[*InExpr]map[string]bool
	correlated map[*InExpr]bool

	// sc holds the per-statement scratch arenas; argsBuf is the reusable
	// backing for bound arguments. Both survive pooling (see scratch.go).
	sc      scratch
	argsBuf []Value
}

// invalidateInCache drops memoized subquery results after a mutation.
func (ex *executor) invalidateInCache() {
	ex.inCache = nil
	ex.correlated = nil
}

// valueKey builds a hash key consistent with compare()'s equality:
// numerics collapse to their float value, other types are tag-prefixed.
func valueKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return "n"
	case int64:
		return "f" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case float64:
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + x
	case []byte:
		return "b" + string(x)
	}
	return "x" + fmt.Sprint(v)
}

// execStmt dispatches a single statement. sc carries trigger NEW/OLD
// bindings when executing trigger bodies, else nil.
func (ex *executor) execStmt(s Stmt, sc *scope) (Result, error) {
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
	case *InsertStmt:
		return ex.execInsert(st, sc)
	case *UpdateStmt:
		return ex.execUpdate(st, sc)
	case *DeleteStmt:
		return ex.execDelete(st, sc)
	case *SelectStmt:
		rows, err := ex.execSelect(st, sc)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: int64(len(rows.Data))}, nil
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
		name:   st.Name,
		cols:   st.Cols,
		pk:     pk,
		byPK:   make(map[int64]int),
		nextID: 1,
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
		switch {
		case rc.Star:
			bindings, err := ex.fromBindings(core)
			if err != nil {
				return nil, err
			}
			for _, b := range bindings {
				out = append(out, b.name)
			}
		case rc.TableStar != "":
			bindings, err := ex.fromBindings(core)
			if err != nil {
				return nil, err
			}
			for _, b := range bindings {
				if strings.EqualFold(b.qual, rc.TableStar) {
					out = append(out, b.name)
				}
			}
		default:
			out = append(out, exprName(rc))
		}
	}
	return out, nil
}

// fromBindings returns the column bindings a core's FROM clause exposes.
func (ex *executor) fromBindings(core *SelectCore) ([]colBinding, error) {
	if core.From == nil {
		return nil, nil
	}
	bindings, err := ex.refBindings(*core.From)
	if err != nil {
		return nil, err
	}
	for _, j := range core.Joins {
		more, err := ex.refBindings(j.Ref)
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, more...)
	}
	return bindings, nil
}

func (ex *executor) refBindings(ref TableRef) ([]colBinding, error) {
	qual := ref.Alias
	if ref.Sub != nil {
		cols, err := ex.selectColumns(ref.Sub)
		if err != nil {
			return nil, err
		}
		out := make([]colBinding, len(cols))
		for i, c := range cols {
			out[i] = colBinding{qual: qual, name: c}
		}
		return out, nil
	}
	if qual == "" {
		qual = ref.Name
	}
	key := strings.ToLower(ref.Name)
	if t, ok := ex.db.tables[key]; ok {
		out := make([]colBinding, len(t.cols))
		for i, c := range t.cols {
			out[i] = colBinding{qual: qual, name: c.Name}
		}
		return out, nil
	}
	if v, ok := ex.db.views[key]; ok {
		out := make([]colBinding, len(v.cols))
		for i, c := range v.cols {
			out[i] = colBinding{qual: qual, name: c}
		}
		return out, nil
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

func (ex *executor) execInsert(st *InsertStmt, sc *scope) (Result, error) {
	key := strings.ToLower(st.Table)
	if t, ok := ex.db.tables[key]; ok {
		return ex.insertTable(t, st, sc)
	}
	if v, ok := ex.db.views[key]; ok {
		return ex.insertView(v, st, sc)
	}
	return Result{}, fmt.Errorf("sqldb: no such table: %s", st.Table)
}

// insertRows materializes the value rows of an INSERT.
func (ex *executor) insertRows(st *InsertStmt, sc *scope) ([][]Value, error) {
	if st.Select != nil {
		rows, err := ex.execSelect(st.Select, sc)
		if err != nil {
			return nil, err
		}
		return rows.Data, nil
	}
	out := make([][]Value, 0, len(st.Rows))
	for _, exprRow := range st.Rows {
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

func (ex *executor) insertTable(t *table, st *InsertStmt, sc *scope) (Result, error) {
	valueRows, err := ex.insertRows(st, sc)
	if err != nil {
		return Result{}, err
	}
	cols := st.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.cols))
		for i, c := range t.cols {
			cols[i] = c.Name
		}
	}
	colIdx := ex.intsBuf(len(cols))
	for i, c := range cols {
		idx := t.colIndex(c)
		if idx < 0 {
			return Result{}, fmt.Errorf("sqldb: table %s has no column %s", t.name, c)
		}
		colIdx[i] = idx
	}
	var affected int64
	for _, vr := range valueRows {
		if len(vr) != len(cols) {
			return Result{}, fmt.Errorf("sqldb: %d values for %d columns", len(vr), len(cols))
		}
		// The maintenance fault fires before this row touches the table,
		// so rows already inserted stay consistent with their indexes.
		if err := t.indexMaintHit(); err != nil {
			return Result{}, err
		}
		// row is stored in the table, so it must be heap-allocated;
		// provided is statement-scoped bookkeeping.
		row := make([]Value, len(t.cols))
		provided := ex.boolsBuf(len(t.cols))
		for i, idx := range colIdx {
			row[idx] = normalize(vr[i])
			provided[idx] = true
		}
		// Defaults for unprovided columns.
		for i, c := range t.cols {
			if provided[i] || c.Default == nil {
				continue
			}
			v, err := ex.eval(c.Default, nil, nil)
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
				if !st.OrReplace {
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
func (ex *executor) insertView(v *view, st *InsertStmt, sc *scope) (Result, error) {
	trs := ex.triggersFor(v.name, "INSERT")
	if len(trs) == 0 {
		return Result{}, fmt.Errorf("sqldb: cannot modify view %s: no INSTEAD OF INSERT trigger", v.name)
	}
	valueRows, err := ex.insertRows(st, sc)
	if err != nil {
		return Result{}, err
	}
	cols := st.Cols
	if len(cols) == 0 {
		cols = v.cols
	}
	var affected int64
	for _, vr := range valueRows {
		if len(vr) != len(cols) {
			return Result{}, fmt.Errorf("sqldb: %d values for %d columns", len(vr), len(cols))
		}
		newRow := make([]Value, len(v.cols))
		for i, c := range cols {
			idx := indexOfFold(v.cols, c)
			if idx < 0 {
				return Result{}, fmt.Errorf("sqldb: view %s has no column %s", v.name, c)
			}
			newRow[idx] = normalize(vr[i])
		}
		if err := ex.fireTriggers(trs, v, newRow, nil, sc); err != nil {
			return Result{}, err
		}
		affected++
	}
	return Result{LastInsertID: ex.db.lastID.Load(), RowsAffected: affected}, nil
}

func indexOfFold(list []string, s string) int {
	for i, x := range list {
		if strings.EqualFold(x, s) {
			return i
		}
	}
	return -1
}

func (ex *executor) triggersFor(viewName, event string) []*trigger {
	var out []*trigger
	for _, tr := range ex.db.triggers[strings.ToLower(viewName)] {
		if tr.event == event {
			out = append(out, tr)
		}
	}
	return out
}

// fireTriggers runs trigger bodies with NEW/OLD row bindings.
func (ex *executor) fireTriggers(trs []*trigger, v *view, newRow, oldRow []Value, sc *scope) error {
	n := 0
	if newRow != nil {
		n += len(v.cols)
	}
	if oldRow != nil {
		n += len(v.cols)
	}
	bindings := ex.colBindings(n)[:0]
	row := ex.values(n)[:0]
	if newRow != nil {
		for i, c := range v.cols {
			bindings = append(bindings, colBinding{qual: "new", name: c})
			row = append(row, newRow[i])
		}
	}
	if oldRow != nil {
		for i, c := range v.cols {
			bindings = append(bindings, colBinding{qual: "old", name: c})
			row = append(row, oldRow[i])
		}
	}
	trigScope := ex.newScope(sc, bindings, row)
	for _, tr := range trs {
		for _, s := range tr.body {
			if _, err := ex.execStmt(s, trigScope); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ex *executor) execUpdate(st *UpdateStmt, sc *scope) (Result, error) {
	key := strings.ToLower(st.Table)
	if t, ok := ex.db.tables[key]; ok {
		return ex.updateTable(t, st, sc)
	}
	if v, ok := ex.db.views[key]; ok {
		return ex.updateView(v, st, sc)
	}
	return Result{}, fmt.Errorf("sqldb: no such table: %s", st.Table)
}

func (ex *executor) updateTable(t *table, st *UpdateStmt, sc *scope) (Result, error) {
	bindings := ex.colBindings(len(t.cols))
	for i, c := range t.cols {
		bindings[i] = colBinding{qual: t.name, name: c.Name}
	}
	setIdx := ex.intsBuf(len(st.Set))
	for i, a := range st.Set {
		idx := t.colIndex(a.Col)
		if idx < 0 {
			return Result{}, fmt.Errorf("sqldb: table %s has no column %s", t.name, a.Col)
		}
		setIdx[i] = idx
	}
	// changed marks the columns any SET clause can touch, so index
	// maintenance only re-keys indexes covering an assigned column.
	changed := ex.boolsBuf(len(t.cols))
	for _, idx := range setIdx {
		changed[idx] = true
	}
	var affected int64
	pkChanged := false
	maintain := len(t.indexes) > 0
	// Access-path layer: probe for candidate positions when an index
	// covers the WHERE; the full WHERE still runs on every candidate.
	ap := ex.chooseAccess(t, t.name, st.Where)
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
	rowScope := ex.newScope(sc, bindings, nil)
	newVals := ex.values(len(st.Set))
	for ci := 0; ci < n; ci++ {
		pos := ci
		if probe {
			pos = positions[ci]
		}
		row := t.rows[pos]
		rowScope.row = row
		if st.Where != nil {
			match, err := ex.eval(st.Where, rowScope, nil)
			if err != nil {
				return Result{}, err
			}
			if !truthy(match) {
				continue
			}
		}
		// Evaluate all assignments against the pre-update row.
		for i, a := range st.Set {
			v, err := ex.eval(a.Expr, rowScope, nil)
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
		for i, idx := range setIdx {
			if idx == t.pk {
				pkChanged = true
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

func (ex *executor) updateView(v *view, st *UpdateStmt, sc *scope) (Result, error) {
	trs := ex.triggersFor(v.name, "UPDATE")
	if len(trs) == 0 {
		return Result{}, fmt.Errorf("sqldb: cannot modify view %s: no INSTEAD OF UPDATE trigger", v.name)
	}
	rel, err := ex.viewRowsMatching(v, &st.scan, st.Where, sc)
	if err != nil {
		return Result{}, err
	}
	var affected int64
	rowScope := ex.newScope(sc, rel.cols, nil)
	for _, row := range rel.rows {
		rowScope.row = row
		oldRow := row
		newRow := make([]Value, len(row))
		copy(newRow, row)
		for _, a := range st.Set {
			idx := indexOfFold(v.cols, a.Col)
			if idx < 0 {
				return Result{}, fmt.Errorf("sqldb: view %s has no column %s", v.name, a.Col)
			}
			val, err := ex.eval(a.Expr, rowScope, nil)
			if err != nil {
				return Result{}, err
			}
			newRow[idx] = val
		}
		if err := ex.fireTriggers(trs, v, newRow, oldRow, sc); err != nil {
			return Result{}, err
		}
		affected++
	}
	return Result{RowsAffected: affected}, nil
}

func (ex *executor) execDelete(st *DeleteStmt, sc *scope) (Result, error) {
	key := strings.ToLower(st.Table)
	if t, ok := ex.db.tables[key]; ok {
		return ex.deleteTable(t, st, sc)
	}
	if v, ok := ex.db.views[key]; ok {
		return ex.deleteView(v, st, sc)
	}
	return Result{}, fmt.Errorf("sqldb: no such table: %s", st.Table)
}

func (ex *executor) deleteTable(t *table, st *DeleteStmt, sc *scope) (Result, error) {
	bindings := ex.colBindings(len(t.cols))
	for i, c := range t.cols {
		bindings[i] = colBinding{qual: t.name, name: c.Name}
	}
	// Access-path fast path: when a pk or secondary-index probe covers
	// part of the WHERE, evaluate the full WHERE only on the candidates
	// and swap-delete the matches. The last row swaps into each hole
	// (row order without ORDER BY is unspecified, as in SQLite), so
	// only one index entry moves per deletion. Deleting from the
	// highest position down keeps pending positions valid: every slot
	// filled by a swap came from beyond the remaining matches.
	ap := ex.chooseAccess(t, t.name, st.Where)
	ex.db.countAccess(ap.kind)
	if ap.kind != accessSeqScan {
		var matched []int
		rowScope := ex.newScope(sc, bindings, nil)
		for _, pos := range ap.sortedPositions() {
			if st.Where != nil {
				rowScope.row = t.rows[pos]
				match, err := ex.eval(st.Where, rowScope, nil)
				if err != nil {
					return Result{}, err
				}
				if !truthy(match) {
					continue
				}
			}
			matched = append(matched, pos)
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
	rowScope := &scope{parent: sc, cols: bindings}
	for _, row := range t.rows {
		if st.Where != nil {
			rowScope.row = row
			match, err := ex.eval(st.Where, rowScope, nil)
			if err != nil {
				return Result{}, err
			}
			if !truthy(match) {
				kept = append(kept, row)
				continue
			}
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

func (ex *executor) deleteView(v *view, st *DeleteStmt, sc *scope) (Result, error) {
	trs := ex.triggersFor(v.name, "DELETE")
	if len(trs) == 0 {
		return Result{}, fmt.Errorf("sqldb: cannot modify view %s: no INSTEAD OF DELETE trigger", v.name)
	}
	rel, err := ex.viewRowsMatching(v, &st.scan, st.Where, sc)
	if err != nil {
		return Result{}, err
	}
	var affected int64
	for _, row := range rel.rows {
		if err := ex.fireTriggers(trs, v, nil, row, sc); err != nil {
			return Result{}, err
		}
		affected++
	}
	return Result{RowsAffected: affected}, nil
}

// viewScan returns the SELECT * FROM <view> WHERE … that finds an
// UPDATE's or DELETE's target rows on view v. It is built once per
// statement and catalog generation and memoized in m, so the plan memo
// on it hits; the executor and EXPLAIN share it.
func (ex *executor) viewScan(m *memo[*SelectStmt], v *view, where Expr) *SelectStmt {
	if sel, ok := m.get(ex.db.gen); ok {
		return sel
	}
	sel := &SelectStmt{Cores: []*SelectCore{{
		Cols:  []ResultCol{{Star: true}},
		From:  &TableRef{Name: v.name},
		Where: where,
	}}}
	m.put(ex.db.gen, sel)
	return sel
}

// viewRowsMatching returns the view rows satisfying where, running the
// statement's view scan through the planner so the view is merged — the
// WHERE pushed into its cores or UNION ALL arms, reaching the pk fast
// path — instead of materialized.
func (ex *executor) viewRowsMatching(v *view, scan *memo[*SelectStmt], where Expr, sc *scope) (relation, error) {
	rows, err := ex.execSelect(ex.viewScan(scan, v, where), sc)
	if err != nil {
		return relation{}, err
	}
	cols := ex.colBindings(len(v.cols))
	for i, c := range v.cols {
		cols[i] = colBinding{qual: v.name, name: c}
	}
	return relation{cols: cols, rows: rows.Data}, nil
}

// --- SELECT ---

// coreResult is a projected arm plus, when available, its aligned source
// rows so ORDER BY can reference non-projected FROM columns.
type coreResult struct {
	out     relation
	srcCols []colBinding // nil when alignment was lost (DISTINCT, agg)
	srcRows [][]Value    // aligned 1:1 with out.rows when srcCols != nil
}

// execSelect plans and executes a (possibly compound) select.
func (ex *executor) execSelect(sel *SelectStmt, sc *scope) (*Rows, error) {
	planned := ex.plan(sel)
	var out *Rows
	var srcCols []colBinding
	var srcRows [][]Value
	single := len(planned.Cores) == 1
	for _, core := range planned.Cores {
		cr, err := ex.execCore(core, sc)
		if err != nil {
			return nil, err
		}
		rel := cr.out
		if single {
			srcCols, srcRows = cr.srcCols, cr.srcRows
		}
		if out == nil {
			cols := make([]string, len(rel.cols))
			for i, b := range rel.cols {
				cols[i] = b.name
			}
			out = &Rows{Columns: cols, Data: rel.rows}
			continue
		}
		if len(rel.cols) != len(out.Columns) {
			return nil, fmt.Errorf("sqldb: SELECTs to the left and right of UNION ALL do not have the same number of result columns")
		}
		out.Data = append(out.Data, rel.rows...)
	}
	if out == nil {
		out = &Rows{}
	}
	if err := ex.orderAndLimit(planned, out, sc, srcCols, srcRows); err != nil {
		return nil, err
	}
	return out, nil
}

// orderAndLimit applies ORDER BY / LIMIT / OFFSET to a result set. For a
// single-core select, srcCols/srcRows allow ORDER BY terms to reference
// source columns that were not projected (SQLite permits this).
func (ex *executor) orderAndLimit(sel *SelectStmt, out *Rows, sc *scope, srcCols []colBinding, srcRows [][]Value) error {
	if len(sel.OrderBy) > 0 {
		bindings := ex.colBindings(len(out.Columns))
		for i, c := range out.Columns {
			bindings[i] = colBinding{name: c}
		}
		// Both scopes are rebound per row rather than reallocated.
		parent := sc
		var srcScope *scope
		if srcCols != nil {
			srcScope = ex.newScope(sc, srcCols, nil)
			parent = srcScope
		}
		rowScope := ex.newScope(parent, bindings, nil)
		// Every row's key sits in one statement-scoped array: row ri's
		// key is keys[ri*nt:(ri+1)*nt].
		nt := len(sel.OrderBy)
		keys := ex.values(len(out.Data) * nt)
		for ri, row := range out.Data {
			if srcScope != nil {
				srcScope.row = srcRows[ri]
			}
			rowScope.row = row
			key := keys[ri*nt : (ri+1)*nt]
			for ti, term := range sel.OrderBy {
				// Integer literal means output column index (1-based).
				if lit, ok := term.Expr.(*Lit); ok {
					if n, isInt := lit.Val.(int64); isInt && n >= 1 && int(n) <= len(row) {
						key[ti] = row[n-1]
						continue
					}
				}
				v, err := ex.eval(term.Expr, rowScope, nil)
				if err != nil {
					return err
				}
				key[ti] = v
			}
		}
		sortRowsByKeys(out.Data, keys, sel.OrderBy)
	}
	if sel.Limit != nil {
		limitV, err := ex.eval(sel.Limit, sc, nil)
		if err != nil {
			return err
		}
		limit, _ := AsInt(limitV)
		offset := int64(0)
		if sel.Offset != nil {
			offV, err := ex.eval(sel.Offset, sc, nil)
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
func sortRowsByKeys(rows [][]Value, keys []Value, terms []OrderTerm) {
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
				if term.Desc {
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

// execCore executes one arm of a compound select.
func (ex *executor) execCore(core *SelectCore, sc *scope) (coreResult, error) {
	src, err := ex.buildFrom(core, sc)
	if err != nil {
		return coreResult{}, err
	}
	// Validate WHERE and projection references even when the source is
	// empty, mirroring SQLite's prepare-time name resolution.
	if len(src.rows) == 0 {
		if err := ex.validateCore(core, src, sc); err != nil {
			return coreResult{}, err
		}
	}
	// WHERE
	if core.Where != nil {
		filtered := src.rows[:0:0]
		rowScope := ex.newScope(sc, src.cols, nil)
		for _, row := range src.rows {
			rowScope.row = row
			match, err := ex.eval(core.Where, rowScope, nil)
			if err != nil {
				return coreResult{}, err
			}
			if truthy(match) {
				filtered = append(filtered, row)
			}
		}
		src.rows = filtered
	}
	// Aggregation or plain projection.
	if core.GroupBy != nil || ex.hasAggregate(core.Cols) {
		rel, err := ex.execAggregate(core, src, sc)
		if err != nil {
			return coreResult{}, err
		}
		return coreResult{out: rel}, nil
	}
	out, err := ex.project(core, src, sc)
	if err != nil {
		return coreResult{}, err
	}
	if core.Distinct {
		out.rows = dedupeRows(out.rows)
		return coreResult{out: out}, nil
	}
	return coreResult{out: out, srcCols: src.cols, srcRows: src.rows}, nil
}

// validateCore checks name resolution of a core's expressions against an
// all-NULL row so that queries over empty tables still report unknown
// column errors.
func (ex *executor) validateCore(core *SelectCore, src relation, sc *scope) error {
	// A cached AST re-validates identically until the catalog changes,
	// so a successful check runs once per generation.
	if m, ok := core.expand.get(ex.db.gen); ok && m.checked {
		return nil
	}
	nullRow := ex.values(len(src.cols))
	rowScope := ex.newScope(sc, src.cols, nullRow)
	if core.Where != nil {
		if _, err := ex.eval(core.Where, rowScope, nil); err != nil {
			return err
		}
	}
	if core.GroupBy != nil || ex.hasAggregate(core.Cols) {
		return nil // aggregate path evaluates against a null row anyway
	}
	m, err := ex.expansion(core, src)
	if err != nil {
		return err
	}
	for _, e := range m.exprs {
		if _, err := ex.eval(e, rowScope, nil); err != nil {
			return err
		}
	}
	m.checked = true
	core.expand.put(ex.db.gen, m)
	return nil
}

func dedupeRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, row := range rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(fmt.Sprintf("%T|%v|", v, v))
		}
		k := b.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// buildFrom materializes the FROM clause (including joins). For a
// single base table it asks the access-path layer (access.go) for a
// primary-key or index probe instead of a scan.
func (ex *executor) buildFrom(core *SelectCore, sc *scope) (relation, error) {
	if core.From == nil {
		return relation{rows: [][]Value{{}}}, nil
	}
	if core.From.Sub == nil && len(core.Joins) == 0 {
		if t, ok := ex.db.tables[strings.ToLower(core.From.Name)]; ok {
			alias := core.From.Alias
			if alias == "" {
				alias = core.From.Name
			}
			// Access-path layer: probe an index when the WHERE pins one;
			// candidates still pass through the full WHERE filter above.
			if ap := ex.chooseAccess(t, alias, core.Where); ap.kind != accessSeqScan {
				ex.db.countAccess(ap.kind)
				cols := ex.colBindings(len(t.cols))
				for i, c := range t.cols {
					cols[i] = colBinding{qual: alias, name: c.Name}
				}
				return relation{cols: cols, rows: ap.fetchRows()}, nil
			}
		}
	}
	left, err := ex.scanRef(*core.From, sc)
	if err != nil {
		return relation{}, err
	}
	for _, j := range core.Joins {
		right, err := ex.scanRef(j.Ref, sc)
		if err != nil {
			return relation{}, err
		}
		joined := relation{cols: append(append([]colBinding{}, left.cols...), right.cols...)}
		nullRight := make([]Value, len(right.cols))
		for _, lrow := range left.rows {
			matched := false
			for _, rrow := range right.rows {
				combined := append(append([]Value{}, lrow...), rrow...)
				if j.On != nil {
					rowScope := &scope{parent: sc, cols: joined.cols, row: combined}
					ok, err := ex.eval(j.On, rowScope, nil)
					if err != nil {
						return relation{}, err
					}
					if !truthy(ok) {
						continue
					}
				}
				matched = true
				joined.rows = append(joined.rows, combined)
			}
			if !matched && j.Left {
				joined.rows = append(joined.rows, append(append([]Value{}, lrow...), nullRight...))
			}
		}
		left = joined
	}
	return left, nil
}

// scanRef materializes a table, view, or subquery reference.
func (ex *executor) scanRef(ref TableRef, sc *scope) (relation, error) {
	qual := ref.Alias
	if ref.Sub != nil {
		rows, err := ex.execSelect(ref.Sub, sc)
		if err != nil {
			return relation{}, err
		}
		cols := ex.colBindings(len(rows.Columns))
		for i, c := range rows.Columns {
			cols[i] = colBinding{qual: qual, name: c}
		}
		return relation{cols: cols, rows: rows.Data}, nil
	}
	if qual == "" {
		qual = ref.Name
	}
	key := strings.ToLower(ref.Name)
	if t, ok := ex.db.tables[key]; ok {
		ex.db.statSeqScan.Add(1)
		cols := ex.colBindings(len(t.cols))
		for i, c := range t.cols {
			cols[i] = colBinding{qual: qual, name: c.Name}
		}
		rows := make([][]Value, len(t.rows))
		copy(rows, t.rows)
		return relation{cols: cols, rows: rows}, nil
	}
	if v, ok := ex.db.views[key]; ok {
		rel, err := ex.materializeView(v, sc)
		if err != nil {
			return relation{}, err
		}
		for i := range rel.cols {
			rel.cols[i].qual = qual
		}
		return rel, nil
	}
	return relation{}, fmt.Errorf("sqldb: no such table: %s", ref.Name)
}

// materializeView fully evaluates a view definition.
func (ex *executor) materializeView(v *view, sc *scope) (relation, error) {
	ex.db.statMaterialize.Add(1)
	rows, err := ex.execSelect(v.def, sc)
	if err != nil {
		return relation{}, err
	}
	cols := ex.colBindings(len(v.cols))
	for i, c := range v.cols {
		cols[i] = colBinding{qual: v.name, name: c}
	}
	return relation{cols: cols, rows: rows.Data}, nil
}

// project applies the select list to each source row.
func (ex *executor) project(core *SelectCore, src relation, sc *scope) (relation, error) {
	outCols, exprs, err := ex.expandCols(core, src)
	if err != nil {
		return relation{}, err
	}
	// One backing array holds every projected row. Each row is a capped
	// sub-slice of it, so an append to one row cannot write into the next.
	n := len(exprs)
	flat := make([]Value, len(src.rows)*n)
	out := relation{cols: outCols, rows: make([][]Value, len(src.rows))}
	for ri := range out.rows {
		out.rows[ri] = flat[ri*n : (ri+1)*n : (ri+1)*n]
	}
	// Fast path: a projection of plain column references compiles to
	// index copies, avoiding per-row scope lookups.
	if idxs, ok := columnIndexes(exprs, src.cols, ex.intsBuf(n)); ok {
		for ri, row := range src.rows {
			projected := out.rows[ri]
			for i, idx := range idxs {
				projected[i] = row[idx]
			}
		}
		return out, nil
	}
	rowScope := ex.newScope(sc, src.cols, nil)
	for ri, row := range src.rows {
		rowScope.row = row
		projected := out.rows[ri]
		for i, e := range exprs {
			v, err := ex.eval(e, rowScope, nil)
			if err != nil {
				return relation{}, err
			}
			projected[i] = v
		}
	}
	return out, nil
}

// columnIndexes resolves a projection made purely of column references
// to source column indexes, filling the caller-provided buffer (sized
// len(exprs)). It fails (ok=false) if any expression is not a plain
// reference or any name is ambiguous/unresolved locally.
func columnIndexes(exprs []Expr, cols []colBinding, idxs []int) ([]int, bool) {
	for i, e := range exprs {
		ref, isRef := e.(*ColRef)
		if !isRef {
			return nil, false
		}
		found := -1
		for j, b := range cols {
			if ref.Table != "" && !strings.EqualFold(b.qual, ref.Table) {
				continue
			}
			if strings.EqualFold(b.name, ref.Col) {
				if found >= 0 {
					return nil, false // ambiguous
				}
				found = j
			}
		}
		if found < 0 {
			return nil, false // may resolve in an outer scope
		}
		idxs[i] = found
	}
	return idxs, true
}

// coreMemo is a core's select-list expansion (* and t.* resolved
// against its FROM clause) and whether validateCore has checked the
// core's names. exprs are shared (evaluation never mutates ASTs); cols
// are copied out on every use because FROM-subquery aliasing rewrites
// quals in place.
type coreMemo struct {
	cols    []colBinding
	exprs   []Expr
	checked bool
}

// expansion returns the core's memoized select-list expansion,
// computing it on a miss.
func (ex *executor) expansion(core *SelectCore, src relation) (coreMemo, error) {
	if m, ok := core.expand.get(ex.db.gen); ok {
		return m, nil
	}
	cols, exprs, err := ex.expandColsUncached(core, src)
	if err != nil {
		return coreMemo{}, err
	}
	m := coreMemo{cols: cols, exprs: exprs}
	core.expand.put(ex.db.gen, m)
	return m, nil
}

// expandCols expands * and t.* into concrete expressions. The column
// bindings come from the arena: they are statement-scoped, and the
// memoized pristine copy must survive FROM aliasing.
func (ex *executor) expandCols(core *SelectCore, src relation) ([]colBinding, []Expr, error) {
	m, err := ex.expansion(core, src)
	if err != nil {
		return nil, nil, err
	}
	cols := ex.colBindings(len(m.cols))
	copy(cols, m.cols)
	return cols, m.exprs, nil
}

func (ex *executor) expandColsUncached(core *SelectCore, src relation) ([]colBinding, []Expr, error) {
	var outCols []colBinding
	var exprs []Expr
	for _, rc := range core.Cols {
		switch {
		case rc.Star:
			for _, b := range src.cols {
				outCols = append(outCols, colBinding{name: b.name})
				exprs = append(exprs, &ColRef{Table: b.qual, Col: b.name})
			}
		case rc.TableStar != "":
			found := false
			for _, b := range src.cols {
				if strings.EqualFold(b.qual, rc.TableStar) {
					outCols = append(outCols, colBinding{name: b.name})
					exprs = append(exprs, &ColRef{Table: b.qual, Col: b.name})
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("sqldb: no such table: %s", rc.TableStar)
			}
		default:
			outCols = append(outCols, colBinding{name: exprName(rc)})
			exprs = append(exprs, rc.Expr)
		}
	}
	return outCols, exprs, nil
}

// groupData carries the rows of one aggregation group.
type groupData struct {
	cols []colBinding
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
func (ex *executor) execAggregate(core *SelectCore, src relation, sc *scope) (relation, error) {
	groups := []groupData{}
	if core.GroupBy == nil {
		groups = append(groups, groupData{cols: src.cols, rows: src.rows})
	} else {
		index := map[string]int{}
		for _, row := range src.rows {
			rowScope := &scope{parent: sc, cols: src.cols, row: row}
			var keyBuf strings.Builder
			for _, g := range core.GroupBy {
				v, err := ex.eval(g, rowScope, nil)
				if err != nil {
					return relation{}, err
				}
				fmt.Fprintf(&keyBuf, "%T|%v|", v, v)
			}
			k := keyBuf.String()
			gi, ok := index[k]
			if !ok {
				gi = len(groups)
				index[k] = gi
				groups = append(groups, groupData{cols: src.cols})
			}
			groups[gi].rows = append(groups[gi].rows, row)
		}
	}
	var outCols []colBinding
	for _, rc := range core.Cols {
		outCols = append(outCols, colBinding{name: exprName(rc)})
	}
	out := relation{cols: outCols}
	for _, g := range groups {
		var first []Value
		if len(g.rows) > 0 {
			first = g.rows[0]
		} else {
			first = make([]Value, len(src.cols))
		}
		rowScope := &scope{parent: sc, cols: src.cols, row: first}
		g := g
		if core.Having != nil {
			keep, err := ex.eval(core.Having, rowScope, &g)
			if err != nil {
				return relation{}, err
			}
			if !truthy(keep) {
				continue
			}
		}
		projected := make([]Value, len(core.Cols))
		for i, rc := range core.Cols {
			if rc.Star || rc.TableStar != "" {
				return relation{}, fmt.Errorf("sqldb: * not allowed with aggregates")
			}
			v, err := ex.eval(rc.Expr, rowScope, &g)
			if err != nil {
				return relation{}, err
			}
			projected[i] = v
		}
		out.rows = append(out.rows, projected)
	}
	return out, nil
}
