package sqldb

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"maxoid/internal/fault"
)

// Fault points on the engine's transition-sensitive paths (see
// internal/fault). Exec faults fire before a statement touches any
// table; commit faults roll the transaction back to its BEGIN
// snapshot, mirroring SQLite's behavior on commit I/O errors.
var (
	faultExec   = fault.Declare("sqldb.exec", "statement execution: fail before the statement mutates any table")
	faultCommit = fault.Declare("sqldb.commit", "transaction COMMIT: fail and restore the BEGIN snapshot")
)

// Result reports the outcome of a data-modifying statement.
type Result struct {
	LastInsertID int64
	RowsAffected int64
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Stats counts planner decisions: the view merging (subquery
// flattening) the paper's footnote 5 describes, plus access-path and
// statement-cache outcomes from the planner/access-path split.
type Stats struct {
	FlattenedQueries  int64 // queries whose views were merged (single-core or UNION ALL)
	MaterializedViews int64 // view scans that had to materialize
	SeqScans          int64 // base-table sequential scans
	PKProbes          int64 // primary-key point and range probes
	IndexProbes       int64 // secondary-index point/range probes
	PlanCacheHits     int64 // plans served from a plan memo of the current catalog generation
	PlanCacheMisses   int64 // plans computed fresh
}

// table is a base table with an optional integer primary key. mu
// guards rows/byPK/nextID; it is acquired through DB.lockTables in
// sorted-name order, or left untouched by batches holding the DB-wide
// writer lock (which excludes all table-granular batches).
type table struct {
	mu      sync.RWMutex
	name    string
	cols    []ColumnDef
	pk      int // index of PRIMARY KEY column, -1 if none
	rows    [][]Value
	byPK    map[int64]int // pk value -> index into rows
	intKeys bool          // every pk value is an int64 (INSERT stores only those; see pkProbe)
	nextID  int64
	indexes []*index // secondary indexes (see index.go)
}

func (t *table) colIndex(name string) int {
	for i, c := range t.cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// clone deep-copies the table for transaction snapshots: row slices
// are copied because UPDATE mutates them in place.
func (t *table) clone() *table {
	out := &table{
		name:    t.name,
		cols:    t.cols,
		pk:      t.pk,
		rows:    make([][]Value, len(t.rows)),
		byPK:    make(map[int64]int, len(t.byPK)),
		intKeys: t.intKeys,
		nextID:  t.nextID,
	}
	for i, r := range t.rows {
		row := make([]Value, len(r))
		copy(row, r)
		out.rows[i] = row
	}
	for k, v := range t.byPK {
		out.byPK[k] = v
	}
	for _, ix := range t.indexes {
		out.indexes = append(out.indexes, ix.clone())
	}
	return out
}

// reindex rebuilds byPK and every secondary index after structural
// changes (row positions moved or an unknown set of rows changed).
func (t *table) reindex() {
	if t.pk >= 0 {
		t.byPK = make(map[int64]int, len(t.rows))
		t.intKeys = true
		for i, r := range t.rows {
			if id, ok := AsInt(r[t.pk]); ok {
				t.byPK[id] = i
			}
			if _, ok := r[t.pk].(int64); !ok {
				t.intKeys = false
			}
		}
	}
	t.rebuildIndexes()
}

// view is a named stored SELECT.
type view struct {
	name  string
	def   *SelectStmt
	cols  []string           // output column names, computed at creation
	bound memo[*boundSelect] // def bound in its own scope, for materializing (bind.go)
}

// trigger is an INSTEAD OF trigger on a view.
type trigger struct {
	name  string
	event string
	view  string
	body  []Stmt
	bound memo[[]bstmt] // body bound against NEW/OLD (bind.go)
}

// DB is an in-memory SQL database. All methods are safe for concurrent
// use. Batches whose table sets can be resolved statically take shared
// catalog access plus per-table locks in sorted-name order, so writers
// on different tables run in parallel (WAL-ish reader/writer
// concurrency); DDL, transactions, and unanalyzable batches serialize
// on the DB-wide writer lock, like SQLite.
type DB struct {
	// mu is the catalog lock: it guards the tables/views/triggers maps
	// and txn. Table-granular batches hold it shared for their whole
	// duration; DDL/transactional batches hold it exclusively.
	mu       sync.RWMutex
	tables   map[string]*table
	views    map[string]*view
	triggers map[string][]*trigger // keyed by lowercase view name
	byName   map[string]*trigger   // keyed by lowercase trigger name

	lastID          atomic.Int64
	statFlattened   atomic.Int64
	statMaterialize atomic.Int64
	statSeqScan     atomic.Int64
	statPKProbe     atomic.Int64
	statIdxProbe    atomic.Int64
	statPlanHit     atomic.Int64
	statPlanMiss    atomic.Int64

	// Lock-contention counters (see LockStats).
	tblAcq     atomic.Int64
	tblBlocked atomic.Int64
	exclusive  atomic.Int64

	// txn holds the active transaction's rollback snapshot, nil when
	// autocommitting. Guarded by mu.
	txn *txnSnapshot

	// Statement caches — the prepared-statement layer (prepare.go).
	// rawStmts maps exact SQL text to its prepared entry (compiled batch
	// plus that text's extracted literals); normStmts maps canonical
	// normalized text to the shared compiled batch, so distinct literals
	// converge on one AST and one set of memos. Both are LRU-bounded
	// (lru.go) and guarded by stmtMu, a leaf lock.
	stmtMu    sync.Mutex
	rawStmts  *lruCache[string, *prepared]
	normStmts *lruCache[string, *compiled]

	// gen is the catalog generation. Every memo derived from an AST and
	// the catalog (statement, view-body and trigger-body bindings, lock
	// plans) records the generation it was computed at and is
	// recomputed once gen has moved. DDL, ROLLBACK and a failed COMMIT
	// bump it. Guarded by mu: it moves only under mu held exclusively,
	// so it is stable for the whole of any batch.
	gen uint64

	// Workload recording for the index advisor (prepare.go): while
	// recOn, every executed batch is counted under its canonical text.
	recOn   atomic.Bool
	recMu   sync.Mutex
	recWork map[string]*workloadStat

	// jrn holds the attached statement journal (journal.go); zero when
	// durability is off.
	jrn atomic.Value // journalBox
}

// memo is a value derived from an AST and the catalog, hung off the
// compiled batch or catalog object that owns the AST. It is current while the DB's catalog
// generation equals the one it was computed at. Every get and put
// happens while the batch holds db.mu, so the generation cannot move
// underneath it; batches racing to fill a memo under the shared lock
// store equivalent values, and the last store wins.
type memo[T any] struct{ p atomic.Pointer[memoEntry[T]] }

type memoEntry[T any] struct {
	gen uint64
	val T
}

// get returns the memoized value if it was computed at generation gen.
func (m *memo[T]) get(gen uint64) (T, bool) {
	if e := m.p.Load(); e != nil && e.gen == gen {
		return e.val, true
	}
	var zero T
	return zero, false
}

// put records val as computed at generation gen.
func (m *memo[T]) put(gen uint64, val T) {
	m.p.Store(&memoEntry[T]{gen: gen, val: val})
}

// Open creates an empty database.
func Open() *DB {
	return &DB{
		tables:    make(map[string]*table),
		views:     make(map[string]*view),
		triggers:  make(map[string][]*trigger),
		byName:    make(map[string]*trigger),
		rawStmts:  newLRU[string, *prepared](maxCachedStmts),
		normStmts: newLRU[string, *compiled](maxCachedStmts),
	}
}

// maxCachedStmts bounds each statement cache (raw texts, normalized
// batches); beyond it the least recently used entries are evicted.
const maxCachedStmts = 4096

// Stats returns a snapshot of planner statistics.
func (db *DB) Stats() Stats {
	return Stats{
		FlattenedQueries:  db.statFlattened.Load(),
		MaterializedViews: db.statMaterialize.Load(),
		SeqScans:          db.statSeqScan.Load(),
		PKProbes:          db.statPKProbe.Load(),
		IndexProbes:       db.statIdxProbe.Load(),
		PlanCacheHits:     db.statPlanHit.Load(),
		PlanCacheMisses:   db.statPlanMiss.Load(),
	}
}

// TableNames returns the names of all base tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

// ViewNames returns the names of all views, sorted.
func (db *DB) ViewNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.views))
	for _, v := range db.views {
		out = append(out, v.name)
	}
	sort.Strings(out)
	return out
}

// HasTable reports whether a base table with the given name exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[strings.ToLower(name)]
	return ok
}

// HasView reports whether a view with the given name exists.
func (db *DB) HasView(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.views[strings.ToLower(name)]
	return ok
}

// TableColumns returns the column definitions of a base table.
func (db *DB) TableColumns(name string) ([]ColumnDef, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	cols := make([]ColumnDef, len(t.cols))
	copy(cols, t.cols)
	return cols, true
}

// Exec parses and executes one or more semicolon-separated statements,
// binding ? placeholders to args in order across the whole batch. The
// Result of the last statement is returned.
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	p, err := db.prepare(sql)
	if err != nil {
		return Result{}, err
	}
	return db.execPrepared(p, args)
}

// Query parses and executes a single SELECT statement.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	p, err := db.prepare(sql)
	if err != nil {
		return nil, err
	}
	return db.queryPrepared(p, args)
}

// QueryScalar runs a single-row, single-column query and returns the
// value (nil if no rows).
func (db *DB) QueryScalar(sql string, args ...Value) (Value, error) {
	rows, err := db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if len(rows.Data) == 0 || len(rows.Data[0]) == 0 {
		return nil, nil
	}
	return rows.Data[0][0], nil
}

// LastInsertID returns the rowid of the most recent successful INSERT.
func (db *DB) LastInsertID() int64 {
	return db.lastID.Load()
}
