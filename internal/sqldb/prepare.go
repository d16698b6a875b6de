package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"maxoid/internal/fault"
)

// compiled is a parsed (and usually normalized) statement batch with
// its memos: the batch's lock plan and each statement's binding. It is
// shared by every raw text that normalizes to the same canonical form,
// so the memos hit regardless of the literals the caller wrote.
type compiled struct {
	stmts []Stmt
	text  string          // canonical text: normalized form, or the raw SQL
	norm  bool            // true if this batch went through normalization
	lock  memo[*lockPlan] // nil plan: the batch takes the exclusive path
	binds []memo[bstmt]   // per statement: its binding (bind.go)
}

func newCompiled(stmts []Stmt, text string, norm bool) *compiled {
	return &compiled{stmts: stmts, text: text, norm: norm, binds: make([]memo[bstmt], len(stmts))}
}

// prepared is a compiled batch plus one text's extracted literals.
type prepared struct {
	*compiled
	lits []Value // extracted literal values bound as parameters
}

// bindArgsInto produces the executor's positional argument slice. A
// normalized statement binds its extracted literals (it had no user
// parameters by construction — normalization refuses those); a raw
// statement binds the caller's values. Binding goes into buf, reused
// across a pooled executor's calls, so the hot path allocates nothing.
func (p *prepared) bindArgsInto(buf, args []Value) []Value {
	if p.norm {
		return append(buf[:0], p.lits...)
	}
	out := buf[:0]
	for _, a := range args {
		out = append(out, normalize(a))
	}
	return out
}

// prepare resolves SQL text to a prepared entry through two cache
// levels: raw text -> prepared (per-literal-set), and normalized text
// -> shared compiled batch. Batches that create or drop anything skip
// both: their texts almost never repeat (cowproxy rebuilds its admin
// view as a fresh UNION ALL text per delta), and the catalog already
// holds what they define.
func (db *DB) prepare(sql string) (*prepared, error) {
	db.stmtMu.Lock()
	p, ok := db.rawStmts.get(sql)
	db.stmtMu.Unlock()
	if ok {
		return p, nil
	}

	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	n, normOK := normalizeTokens(toks)
	if normOK {
		db.stmtMu.Lock()
		shared, hit := db.normStmts.get(n.text)
		db.stmtMu.Unlock()
		if hit {
			p = &prepared{compiled: shared, lits: n.lits}
		} else if stmts, perr := parseTokens(n.toks); perr == nil {
			p = &prepared{compiled: newCompiled(stmts, n.text, true), lits: n.lits}
		} else {
			// The normalized stream should parse exactly when the raw
			// one does; if it somehow doesn't, the raw parse below owns
			// the outcome (and the error text).
			normOK = false
		}
	}
	if !normOK {
		stmts, perr := parseTokens(toks)
		if perr != nil {
			return nil, perr
		}
		p = &prepared{compiled: newCompiled(stmts, sql, false)}
	}
	if changesCatalog(p.stmts) {
		return p, nil
	}

	db.stmtMu.Lock()
	if p.norm {
		if shared, hit := db.normStmts.get(p.text); hit {
			// Another goroutine published this shape first; adopt its
			// batch so the memos converge on one entry.
			p.compiled = shared
		} else {
			db.normStmts.put(p.text, p.compiled)
		}
	}
	db.rawStmts.put(sql, p)
	db.stmtMu.Unlock()
	return p, nil
}

// changesCatalog reports whether a batch creates or drops anything.
func changesCatalog(stmts []Stmt) bool {
	for _, s := range stmts {
		switch s.(type) {
		case *CreateTableStmt, *CreateViewStmt, *CreateTriggerStmt, *CreateIndexStmt, *DropStmt:
			return true
		}
	}
	return false
}

// execPrepared runs a prepared batch, returning the last statement's
// result (the body Exec always had). With a journal attached, the
// batch's unit is appended to the journal before the locks release
// (journal order = serialization order), but the durability wait — if
// the journal defers it — happens after, so concurrent batches group
// commit; a journal failure fails the batch.
func (db *DB) execPrepared(p *prepared, args []Value) (Result, error) {
	res, wait, err := db.execPreparedLocked(p, args)
	if wait != nil {
		if werr := wait(); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// execPreparedLocked is execPrepared's under-locks half: it returns
// the pending durability wait rather than invoking it.
func (db *DB) execPreparedLocked(p *prepared, args []Value) (Result, func() error, error) {
	db.recordWorkload(p)
	lock := db.lockForBatch(p.compiled)
	defer db.unlockBatch(lock)
	// Durable-store health gate: rejects mutating batches on a degraded
	// store before any statement executes, so in-memory tables never
	// run ahead of a log that cannot accept the batch's journal unit.
	if gerr := db.gateBatch(p.stmts); gerr != nil {
		return Result{}, nil, gerr
	}
	ex := getExecutor(db)
	defer putExecutor(ex)
	ex.argsBuf = p.bindArgsInto(ex.argsBuf, args)
	ex.args = ex.argsBuf
	hadTxn := db.txn != nil // mu held (shared or exclusive) by the batch lock
	var res Result
	var execErr error
	executed := 0
	for i, s := range p.stmts {
		if err := fault.Hit(faultExec); err != nil {
			// Pre-execution fault: the statement never ran, so it is not
			// part of the journaled prefix.
			execErr = err
			break
		}
		// Statement boundary: nothing statement-scoped survives execStmt,
		// so the arenas recycle here.
		ex.sc.reset()
		executed++
		r, err := ex.execStmt(s, &p.binds[i])
		if err != nil {
			execErr = err
			break
		}
		res = r
	}
	wait, jerr := db.journalBatch(p, ex.args, executed, hadTxn, execErr)
	if jerr != nil && execErr == nil {
		execErr = jerr
	}
	if execErr != nil {
		return Result{}, wait, execErr
	}
	return res, wait, nil
}

// queryPrepared runs a prepared single-statement SELECT or EXPLAIN.
func (db *DB) queryPrepared(p *prepared, args []Value) (*Rows, error) {
	if len(p.stmts) != 1 {
		return nil, fmt.Errorf("sqldb: Query requires exactly one statement")
	}
	db.recordWorkload(p)
	switch st := p.stmts[0].(type) {
	case *SelectStmt:
		// Reads take shared table locks, so queries over disjoint (or
		// even the same) tables run concurrently; memos are atomic
		// pointers, so readers filling them need no lock of their own.
		lock := db.lockForBatch(p.compiled)
		defer db.unlockBatch(lock)
		if err := fault.Hit(faultExec); err != nil {
			return nil, err
		}
		ex := getExecutor(db)
		defer putExecutor(ex)
		ex.argsBuf = p.bindArgsInto(ex.argsBuf, args)
		ex.args = ex.argsBuf
		b, err := ex.bindStmt(st, &p.binds[0])
		if err != nil {
			return nil, err
		}
		return ex.execSelect(b.(*boundSelect), nil)
	case *ExplainStmt:
		lock := db.lockForBatch(p.compiled)
		defer db.unlockBatch(lock)
		ex := getExecutor(db)
		defer putExecutor(ex)
		ex.argsBuf = p.bindArgsInto(ex.argsBuf, args)
		ex.args = ex.argsBuf
		return ex.execExplain(st)
	}
	return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
}

// PreparedStmt is a reusable handle to a prepared batch. It skips the
// text-level cache lookup on every call; its names bind once per
// catalog generation, so DDL between calls behaves as if the SQL were
// re-issued.
type PreparedStmt struct {
	db *DB
	p  *prepared
}

// Prepare parses (and normalizes) SQL once for repeated execution.
func (db *DB) Prepare(sql string) (*PreparedStmt, error) {
	p, err := db.prepare(sql)
	if err != nil {
		return nil, err
	}
	return &PreparedStmt{db: db, p: p}, nil
}

// Exec runs the prepared batch. Arguments bind to ? placeholders the
// caller wrote; statements whose literals were normalized away bind
// those literals instead and ignore args.
func (s *PreparedStmt) Exec(args ...Value) (Result, error) {
	return s.db.execPrepared(s.p, args)
}

// Query runs the prepared statement as a query.
func (s *PreparedStmt) Query(args ...Value) (*Rows, error) {
	return s.db.queryPrepared(s.p, args)
}

// SQL returns the canonical statement text (normalized when possible),
// the same text workload recording reports.
func (s *PreparedStmt) SQL() string { return s.p.text }

// Workload recording: the index advisor's input. While enabled, every
// executed batch is counted under its canonical text, together with
// the columns its WHERE clause could drive through an index. Literals
// having been normalized to ?, a query shape that runs a million times
// with a million different values records as one entry with count 1e6
// — exactly the aggregation the advisor needs.

// WorkloadEntry is one distinct statement shape observed while
// recording, with the index-relevant analysis already extracted.
type WorkloadEntry struct {
	SQL   string // canonical statement text
	Count int64  // executions observed
	Table string // single-table target; "" when not index-analyzable

	// Columns of Table constrained in the WHERE clause by equality
	// (col = const) and by ranges (<, <=, >, >=, BETWEEN).
	EqCols    []string
	RangeCols []string
}

type workloadStat struct {
	count int64
	stmts []Stmt
}

// StartWorkloadRecording begins (or restarts) collection. Any
// previously recorded workload is discarded.
func (db *DB) StartWorkloadRecording() {
	db.recMu.Lock()
	db.recWork = make(map[string]*workloadStat)
	db.recMu.Unlock()
	db.recOn.Store(true)
}

// StopWorkloadRecording ends collection and returns the recorded
// workload, most frequent first.
func (db *DB) StopWorkloadRecording() []WorkloadEntry {
	db.recOn.Store(false)
	db.recMu.Lock()
	work := db.recWork
	db.recWork = nil
	db.recMu.Unlock()

	out := make([]WorkloadEntry, 0, len(work))
	for text, st := range work {
		e := WorkloadEntry{SQL: text, Count: st.count}
		e.Table, e.EqCols, e.RangeCols = indexableColumns(st.stmts)
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].SQL < out[j].SQL
	})
	return out
}

func (db *DB) recordWorkload(p *prepared) {
	if !db.recOn.Load() {
		return
	}
	db.recMu.Lock()
	if db.recWork != nil {
		st, ok := db.recWork[p.text]
		if !ok {
			st = &workloadStat{stmts: p.stmts}
			db.recWork[p.text] = st
		}
		st.count++
	}
	db.recMu.Unlock()
}

// indexableColumns statically analyzes a batch for the columns a
// secondary index could serve. Only the single-table statement forms
// the access-path layer optimizes are analyzed (one base table, no
// joins); everything else records with an empty table.
func indexableColumns(stmts []Stmt) (table string, eqCols, rangeCols []string) {
	if len(stmts) != 1 {
		return "", nil, nil
	}
	var name, alias string
	var where Expr
	switch st := stmts[0].(type) {
	case *SelectStmt:
		if len(st.Cores) != 1 {
			return "", nil, nil
		}
		core := st.Cores[0]
		if core.From == nil || core.From.Sub != nil || len(core.Joins) > 0 {
			return "", nil, nil
		}
		name, alias, where = core.From.Name, core.From.Alias, core.Where
	case *UpdateStmt:
		name, where = st.Table, st.Where
	case *DeleteStmt:
		name, where = st.Table, st.Where
	case *ExplainStmt:
		return indexableColumns([]Stmt{st.Target})
	default:
		return "", nil, nil
	}
	if alias == "" {
		alias = name
	}
	eqCols, rangeCols = whereColumns(where, name, alias)
	return name, eqCols, rangeCols
}

// whereColumns walks the top-level AND conjuncts collecting columns
// compared against constants — the static mirror of the access shape
// the binder finds (accessShapeOf), without needing the table to exist.
func whereColumns(where Expr, table, alias string) (eqCols, rangeCols []string) {
	var walk func(e Expr)
	colOf := func(e Expr) (string, bool) {
		ref, ok := e.(*ColRef)
		if !ok {
			return "", false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, alias) && !strings.EqualFold(ref.Table, table) {
			return "", false
		}
		return ref.Col, true
	}
	isConst := func(e Expr) bool {
		switch e.(type) {
		case *Lit, *Param:
			return true
		}
		return false
	}
	add := func(list []string, col string) []string {
		for _, c := range list {
			if strings.EqualFold(c, col) {
				return list
			}
		}
		return append(list, col)
	}
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Binary:
			if x.Op == "AND" {
				walk(x.L)
				walk(x.R)
				return
			}
			switch x.Op {
			case "=", "<", "<=", ">", ">=":
			default:
				return
			}
			var col string
			var ok bool
			if c, o := colOf(x.L); o && isConst(x.R) {
				col, ok = c, true
			} else if c, o := colOf(x.R); o && isConst(x.L) {
				col, ok = c, true
			}
			if !ok {
				return
			}
			if x.Op == "=" {
				eqCols = add(eqCols, col)
			} else {
				rangeCols = add(rangeCols, col)
			}
		case *Between:
			if x.Not {
				return
			}
			if c, o := colOf(x.X); o && isConst(x.Lo) && isConst(x.Hi) {
				rangeCols = add(rangeCols, c)
			}
		}
	}
	walk(where)
	return eqCols, rangeCols
}
