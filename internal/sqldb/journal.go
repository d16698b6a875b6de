package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// Statement-level journaling: every mutating batch Exec runs emits
// one JournalUnit through the attached Journal, while the batch still
// holds the locks that serialized it, so journal order equals the
// engine's serialization order. A durability layer (internal/wal)
// implements Journal; sqldb knows nothing about encoding or storage.
//
// Replay is deterministic re-execution: a unit carries the canonical
// statement text, the bound argument values, and how many statements
// actually ran, so ReplayUnit reproduces exactly the effects the live
// batch had — including a genuine error on the last statement, whose
// partial effects the engine's deterministic execution recreates.

// JournalUnit is the logical record of one executed batch.
type JournalUnit struct {
	// SQL is the canonical batch text (normalized when possible), with
	// ? placeholders for every literal or caller parameter in Args.
	SQL string
	// Args are the bound positional values. The slice is only valid
	// for the duration of the Commit call; implementations must encode
	// or copy, never retain.
	Args []Value
	// N is the number of statements actually dispatched: replay runs
	// exactly the first N statements of the batch.
	N int
	// Errored records that statement N failed in the live run; replay
	// expects (and requires) the same failure.
	Errored bool
	// Sync asks for durability before the batch is acknowledged. It is
	// false exactly when the batch left a transaction open — the
	// eventual COMMIT (or ROLLBACK) unit syncs the whole run.
	Sync bool
}

// Journal receives one Commit call per mutating batch. A non-nil
// error fails the batch even though its in-memory effects already
// applied; implementations are expected to fail-stop (poison) so
// memory cannot run ahead of the log by more than the failed tail.
type Journal interface {
	Commit(u JournalUnit) error
}

// DeferredJournal is an optional Journal extension enabling group
// commit. CommitAppend journals the unit while the caller still holds
// the batch locks (so journal order stays the serialization order) but
// defers the durability wait: the engine invokes the returned wait —
// if non-nil — after releasing the locks, letting concurrent batches
// share one fsync instead of serializing around it. A wait error fails
// the batch exactly as a Commit error would.
type DeferredJournal interface {
	Journal
	CommitAppend(u JournalUnit) (wait func() error, err error)
}

// commitUnit dispatches one unit, preferring the deferred path.
func commitUnit(j Journal, u JournalUnit) (func() error, error) {
	if dj, ok := j.(DeferredJournal); ok {
		return dj.CommitAppend(u)
	}
	return nil, j.Commit(u)
}

// WriteGate is optionally implemented by a Journal whose backing store
// can degrade. Mutating batches consult it after taking the batch
// locks but BEFORE executing any statement: a non-nil error (typically
// health.ErrReadOnly from a degraded store) rejects the batch cleanly
// — no table changed, nothing journaled — so the caller can retry once
// the store heals. Reads (pure SELECT/EXPLAIN batches) and pure
// ROLLBACK batches are never gated: a degraded store must keep serving
// queries and must let applications back out of open transactions.
type WriteGate interface {
	WriteGate() error
}

// gateBatch consults the journal's write gate for a batch about to
// execute. nil when no journal is attached, the journal does not gate,
// the batch cannot mutate, or the batch only rolls back.
func (db *DB) gateBatch(stmts []Stmt) error {
	g, ok := db.journal().(WriteGate)
	if !ok || !batchMutates(stmts) || batchRollbackOnly(stmts) {
		return nil
	}
	return g.WriteGate()
}

// batchRollbackOnly reports a batch consisting solely of ROLLBACK
// statements — the one mutating batch a read-only store admits.
func batchRollbackOnly(stmts []Stmt) bool {
	for _, s := range stmts {
		t, ok := s.(*TxnStmt)
		if !ok || t.Kind != "ROLLBACK" {
			return false
		}
	}
	return len(stmts) > 0
}

type journalBox struct{ j Journal }

// SetJournal attaches (or, with nil, detaches) the statement journal.
func (db *DB) SetJournal(j Journal) {
	db.jrn.Store(journalBox{j})
}

func (db *DB) journal() Journal {
	v := db.jrn.Load()
	if v == nil {
		return nil
	}
	return v.(journalBox).j
}

// batchMutates reports whether any statement in the batch can change
// database state. Pure SELECT/EXPLAIN batches are never journaled.
func batchMutates(stmts []Stmt) bool {
	for _, s := range stmts {
		switch s.(type) {
		case *SelectStmt, *ExplainStmt:
		default:
			return true
		}
	}
	return false
}

// journalBatch emits the journal unit(s) for a finished batch. Called
// by execPrepared with the batch locks still held (journal order =
// serialization order). executed counts statements dispatched to the
// executor; hadTxn/execErr describe the batch outcome.
//
// The one case replay cannot reproduce by re-execution is a COMMIT
// that failed at the commit fault point: the live engine rolled the
// transaction back, but a suspended-fault replay would commit it. It
// is journaled as the pre-COMMIT prefix plus a synthetic ROLLBACK, an
// equivalent statement sequence with the same net effect.
func (db *DB) journalBatch(p *prepared, args []Value, executed int, hadTxn bool, execErr error) (func() error, error) {
	j := db.journal()
	if j == nil || executed == 0 || !batchMutates(p.stmts[:executed]) {
		return nil, nil
	}
	inTxn := db.txn != nil // mu held (shared or exclusive) by the batch lock
	if execErr != nil && hadTxn && !inTxn {
		// Commit-fault rollback. The failing statement was the COMMIT;
		// everything before it replays, the synthetic ROLLBACK undoes it.
		if executed > 1 {
			// The prefix unit carries no Sync; the ROLLBACK unit's wait
			// covers both (its LSN is higher).
			if wait, err := commitUnit(j, JournalUnit{SQL: p.text, Args: args, N: executed - 1}); err != nil {
				return wait, err
			} else if wait != nil {
				if err := wait(); err != nil {
					return nil, err
				}
			}
		}
		return commitUnit(j, JournalUnit{SQL: "ROLLBACK", N: 1, Sync: true})
	}
	return commitUnit(j, JournalUnit{
		SQL:     p.text,
		Args:    args,
		N:       executed,
		Errored: execErr != nil,
		Sync:    !inTxn,
	})
}

// ReplayUnit re-executes a journaled batch during recovery: the first
// n statements of sql run with args bound, and errored asserts the
// fate of statement n. Replay must run before a Journal is attached
// and with fault injection suspended; divergence from the journaled
// outcome is an error.
func (db *DB) ReplayUnit(sql string, args []Value, n int, errored bool) error {
	p, err := db.prepare(sql)
	if err != nil {
		return fmt.Errorf("sqldb: replay parse: %w", err)
	}
	if n > len(p.stmts) {
		return fmt.Errorf("sqldb: replay unit wants %d statements, batch has %d", n, len(p.stmts))
	}
	lock := db.lockForBatch(p.compiled)
	defer db.unlockBatch(lock)
	ex := getExecutor(db)
	defer putExecutor(ex)
	ex.argsBuf = p.bindArgsInto(ex.argsBuf, args)
	ex.args = ex.argsBuf
	for i := 0; i < n; i++ {
		ex.sc.reset()
		if _, err := ex.execStmt(p.stmts[i], nil); err != nil {
			if i == n-1 && errored {
				return nil
			}
			return fmt.Errorf("sqldb: replay diverged at statement %d: %w", i, err)
		}
	}
	if errored {
		return fmt.Errorf("sqldb: replay expected statement %d to fail, it succeeded", n-1)
	}
	return nil
}

// InTxn reports whether a transaction is open.
func (db *DB) InTxn() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.txn != nil
}

// AbortOpenTxn rolls back a transaction the WAL replay left open — a
// crash mid-transaction means the commit never happened. Reports
// whether there was one.
func (db *DB) AbortOpenTxn() bool {
	if !db.InTxn() {
		return false
	}
	db.Exec("ROLLBACK")
	return true
}

// Counters is the ID-allocation state replay cannot reconstruct from
// a row dump: deleted rows leave allocator high-water marks behind.
type Counters struct {
	LastInsertID int64
	// NextIDs maps lowercase table name to the next auto primary key.
	NextIDs map[string]int64
}

// CounterState snapshots the ID allocators.
func (db *DB) CounterState() Counters {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cs := Counters{LastInsertID: db.lastID.Load(), NextIDs: make(map[string]int64, len(db.tables))}
	for name, t := range db.tables {
		t.mu.RLock()
		cs.NextIDs[name] = t.nextID
		t.mu.RUnlock()
	}
	return cs
}

// RestoreCounters reinstates snapshotted ID allocators; tables that no
// longer exist are skipped.
func (db *DB) RestoreCounters(cs Counters) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.lastID.Store(cs.LastInsertID)
	for name, next := range cs.NextIDs {
		if t, ok := db.tables[name]; ok {
			t.mu.Lock()
			t.nextID = next
			t.mu.Unlock()
		}
	}
}

// DumpUnits streams the whole database as replayable journal units —
// the DB half of a snapshot. Schema first (tables, indexes, views in
// dependency order, triggers), then rows as chunked parameterized
// INSERTs preserving storage order, so replaying the units into an
// empty database reproduces catalog and storage exactly. The caller
// must be quiescent (no open transaction, snapshot-layer LSN check)
// for the dump to be a consistent cut.
func (db *DB) DumpUnits(emit func(u JournalUnit) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.txn != nil {
		return fmt.Errorf("sqldb: cannot dump with a transaction open")
	}

	tableNames := make([]string, 0, len(db.tables))
	for k := range db.tables {
		tableNames = append(tableNames, k)
	}
	sort.Strings(tableNames)

	emitSQL := func(sql string) error { return emit(JournalUnit{SQL: sql, N: 1}) }

	// Base tables and their secondary indexes.
	for _, k := range tableNames {
		t := db.tables[k]
		if err := emitSQL(formatCreateTable(t)); err != nil {
			return err
		}
		ixNames := make([]string, 0, len(t.indexes))
		byIx := make(map[string]*index, len(t.indexes))
		for _, ix := range t.indexes {
			ixNames = append(ixNames, ix.name)
			byIx[ix.name] = ix
		}
		sort.Strings(ixNames)
		for _, n := range ixNames {
			if err := emitSQL(formatCreateIndex(byIx[n])); err != nil {
				return err
			}
		}
	}

	// Views in dependency order (a view may select from another view).
	if err := db.dumpViews(emitSQL); err != nil {
		return err
	}

	// Triggers.
	trNames := make([]string, 0, len(db.byName))
	for k := range db.byName {
		trNames = append(trNames, k)
	}
	sort.Strings(trNames)
	for _, k := range trNames {
		tr := db.byName[k]
		if err := emitSQL(formatCreateTrigger(tr.name, tr.event, tr.view, tr.body)); err != nil {
			return err
		}
	}

	// Rows, in storage order, as parameterized INSERTs (literals cannot
	// represent blobs; parameters carry every value type exactly).
	const chunk = 128
	for _, k := range tableNames {
		t := db.tables[k]
		t.mu.RLock()
		err := dumpRows(t, chunk, emit)
		t.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) dumpViews(emitSQL func(string) error) error {
	viewNames := make([]string, 0, len(db.views))
	for k := range db.views {
		viewNames = append(viewNames, k)
	}
	sort.Strings(viewNames)
	emitted := make(map[string]bool, len(viewNames))
	var emitView func(k string) error
	emitView = func(k string) error {
		if emitted[k] {
			return nil
		}
		emitted[k] = true
		v := db.views[k]
		// Dependencies first. The walk is read-only: v.def is shared
		// with queries planning and executing concurrently.
		var depErr error
		walkSelectRefs(v.def, func(ref *TableRef) {
			lk := strings.ToLower(ref.Name)
			if _, ok := db.views[lk]; ok && lk != k && depErr == nil {
				depErr = emitView(lk)
			}
		})
		if depErr != nil {
			return depErr
		}
		return emitSQL("CREATE VIEW " + quoteIdent(v.name) + " AS " + FormatSelect(v.def))
	}
	for _, k := range viewNames {
		if err := emitView(k); err != nil {
			return err
		}
	}
	return nil
}

func dumpRows(t *table, chunk int, emit func(u JournalUnit) error) error {
	if len(t.rows) == 0 {
		return nil
	}
	var head strings.Builder
	head.WriteString("INSERT INTO " + quoteIdent(t.name) + " (")
	for i, c := range t.cols {
		if i > 0 {
			head.WriteString(", ")
		}
		head.WriteString(quoteIdent(c.Name))
	}
	head.WriteString(") VALUES ")
	oneRow := "(" + strings.Repeat("?, ", len(t.cols)-1) + "?)"

	for start := 0; start < len(t.rows); start += chunk {
		end := start + chunk
		if end > len(t.rows) {
			end = len(t.rows)
		}
		var sql strings.Builder
		sql.WriteString(head.String())
		args := make([]Value, 0, (end-start)*len(t.cols))
		for i := start; i < end; i++ {
			if i > start {
				sql.WriteString(", ")
			}
			sql.WriteString(oneRow)
			args = append(args, t.rows[i]...)
		}
		if err := emit(JournalUnit{SQL: sql.String(), Args: args, N: 1}); err != nil {
			return err
		}
	}
	return nil
}
