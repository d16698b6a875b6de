package sqldb

import (
	"sort"
	"strings"
)

// This file implements the per-table locking discipline (DESIGN.md
// "Locking model"). A batch of statements is statically analyzed into
// the set of base tables it reads and writes — expanding views to their
// base tables and INSTEAD OF triggers to their bodies — and the table
// locks are then acquired in sorted lowercase-name order, writes
// exclusive and reads shared, so two batches touching disjoint tables
// (e.g. two initiators' delta tables) run in parallel while batches on
// the same table keep SQLite's single-writer behavior. Anything the
// analyzer cannot fully resolve (DDL, transactions, unknown names)
// falls back to the DB-wide writer lock, as does every batch while a
// transaction is open (rollback restores a whole-database snapshot).

// LockStats is a snapshot of lock activity inside one DB, used to find
// remaining serialization points. Counters are cumulative since Open.
type LockStats struct {
	// TableAcquisitions counts per-table lock acquisitions (read or write).
	TableAcquisitions int64
	// TableBlocked counts table acquisitions that could not be satisfied
	// immediately (a TryLock failed and the caller had to wait).
	TableBlocked int64
	// ExclusiveBatches counts batches that fell back to the DB-wide
	// writer lock (DDL, transactions, unanalyzable statements).
	ExclusiveBatches int64
}

// LockStats returns a snapshot of the lock-contention counters.
func (db *DB) LockStats() LockStats {
	return LockStats{
		TableAcquisitions: db.tblAcq.Load(),
		TableBlocked:      db.tblBlocked.Load(),
		ExclusiveBatches:  db.exclusive.Load(),
	}
}

// lockPlan is the ordered table-lock acquisition plan for one batch.
type lockPlan struct {
	names []string        // sorted ascending (the deterministic order)
	write map[string]bool // subset of names locked exclusively
}

// batchLock is the token returned by lockForBatch: a non-nil plan
// means the shared-catalog + per-table fast path, nil the DB-wide
// writer lock. A plain value (not a closure) so the per-batch hot path
// does not allocate.
type batchLock struct {
	plan *lockPlan
}

// lockForBatch acquires the locks needed to execute a batch; release
// with unlockBatch. Fast path: catalog lock shared + per-table locks in
// name order. Slow path: the DB-wide writer lock.
func (db *DB) lockForBatch(c *compiled) batchLock {
	db.mu.RLock()
	// An open transaction forces every batch onto the exclusive path:
	// its ROLLBACK swaps the whole catalog back to a snapshot, which no
	// table-granular reader may observe mid-swap. The check is stable
	// for the duration of the batch because BEGIN itself needs the
	// exclusive lock we are blocking by holding mu shared.
	if db.txn == nil {
		if plan := db.analyze(c); plan != nil {
			db.lockTables(plan)
			return batchLock{plan: plan}
		}
	}
	db.mu.RUnlock()
	db.exclusive.Add(1)
	db.mu.Lock()
	return batchLock{}
}

// unlockBatch releases whatever lockForBatch acquired.
func (db *DB) unlockBatch(l batchLock) {
	if l.plan != nil {
		db.unlockTables(l.plan)
		db.mu.RUnlock()
		return
	}
	db.mu.Unlock()
}

// lockTables acquires the planned table locks in sorted-name order.
// Caller holds db.mu shared, which pins the catalog (no DDL), so the
// table pointers cannot go stale while waiting.
func (db *DB) lockTables(p *lockPlan) {
	for _, name := range p.names {
		t := db.tables[name]
		db.tblAcq.Add(1)
		if p.write[name] {
			if !t.mu.TryLock() {
				db.tblBlocked.Add(1)
				t.mu.Lock()
			}
		} else {
			if !t.mu.TryRLock() {
				db.tblBlocked.Add(1)
				t.mu.RLock()
			}
		}
	}
}

// unlockTables releases the planned locks in reverse order.
func (db *DB) unlockTables(p *lockPlan) {
	for i := len(p.names) - 1; i >= 0; i-- {
		name := p.names[i]
		if p.write[name] {
			db.tables[name].mu.Unlock()
		} else {
			db.tables[name].mu.RUnlock()
		}
	}
}

// analyze returns the batch's read/write base-table lock plan, or nil
// when the batch cannot be fully resolved and must take the exclusive
// path. Caller holds db.mu (shared suffices). The result is memoized
// on the compiled batch for the current catalog generation.
func (db *DB) analyze(c *compiled) *lockPlan {
	if plan, ok := c.lock.get(db.gen); ok {
		return plan
	}
	plan := db.analyzeStmts(c.stmts)
	c.lock.put(db.gen, plan)
	return plan
}

func (db *DB) analyzeStmts(stmts []Stmt) *lockPlan {
	c := &tableSetCollector{
		db:    db,
		read:  map[string]bool{},
		write: map[string]bool{},
		ok:    true,
	}
	for _, s := range stmts {
		c.stmt(s)
	}
	if !c.ok {
		return nil
	}
	plan := &lockPlan{write: c.write}
	for name := range c.write {
		plan.names = append(plan.names, name)
	}
	for name := range c.read {
		if !c.write[name] {
			plan.names = append(plan.names, name)
		}
	}
	sort.Strings(plan.names)
	return plan
}

// tableSetCollector walks statement ASTs accumulating base-table
// read/write sets. Views are expanded recursively (reads through their
// definitions, writes through their INSTEAD OF trigger bodies); the
// memo sets keep cyclic or repeated references from re-expanding.
type tableSetCollector struct {
	db           *DB
	read         map[string]bool
	write        map[string]bool
	viewsRead    map[string]bool
	viewsWritten map[string]bool
	ok           bool
}

func (c *tableSetCollector) stmt(s Stmt) {
	if !c.ok {
		return
	}
	switch st := s.(type) {
	case *SelectStmt:
		c.sel(st)
	case *InsertStmt:
		c.writeTarget(st.Table)
		for _, row := range st.Rows {
			for _, e := range row {
				c.expr(e)
			}
		}
		c.sel(st.Select)
	case *UpdateStmt:
		c.writeTarget(st.Table)
		for _, a := range st.Set {
			c.expr(a.Expr)
		}
		c.expr(st.Where)
	case *DeleteStmt:
		c.writeTarget(st.Table)
		c.expr(st.Where)
	default:
		// DDL, TxnStmt, anything new: exclusive path.
		c.ok = false
	}
}

// writeTarget records the target of an INSERT/UPDATE/DELETE. A view
// target reads the view (UPDATE/DELETE scan it for matching rows) and
// executes its trigger bodies.
func (c *tableSetCollector) writeTarget(name string) {
	if !c.ok {
		return
	}
	key := strings.ToLower(name)
	if t, ok := c.db.tables[key]; ok {
		c.write[key] = true
		// Column defaults are evaluated on insert and may, in principle,
		// contain subqueries.
		for _, col := range t.cols {
			c.expr(col.Default)
		}
		return
	}
	if _, ok := c.db.views[key]; ok {
		if c.viewsWritten == nil {
			c.viewsWritten = map[string]bool{}
		}
		if c.viewsWritten[key] {
			return
		}
		c.viewsWritten[key] = true
		c.readView(key)
		for _, tr := range c.db.triggers[key] {
			for _, body := range tr.body {
				c.stmt(body)
			}
		}
		return
	}
	// Unknown target: the executor will fail the batch anyway; take the
	// exclusive path so the error surfaces from a single code path.
	c.ok = false
}

func (c *tableSetCollector) readRef(name string) {
	key := strings.ToLower(name)
	if _, ok := c.db.tables[key]; ok {
		c.read[key] = true
		return
	}
	if _, ok := c.db.views[key]; ok {
		c.readView(key)
		return
	}
	c.ok = false
}

func (c *tableSetCollector) readView(key string) {
	if c.viewsRead == nil {
		c.viewsRead = map[string]bool{}
	}
	if c.viewsRead[key] {
		return
	}
	c.viewsRead[key] = true
	c.sel(c.db.views[key].def)
}

func (c *tableSetCollector) sel(s *SelectStmt) {
	if s == nil || !c.ok {
		return
	}
	for _, core := range s.Cores {
		if core.From != nil {
			c.ref(*core.From)
		}
		for _, j := range core.Joins {
			c.ref(j.Ref)
			c.expr(j.On)
		}
		for _, rc := range core.Cols {
			c.expr(rc.Expr)
		}
		c.expr(core.Where)
		for _, g := range core.GroupBy {
			c.expr(g)
		}
		c.expr(core.Having)
	}
	for _, t := range s.OrderBy {
		c.expr(t.Expr)
	}
	c.expr(s.Limit)
	c.expr(s.Offset)
}

func (c *tableSetCollector) ref(r TableRef) {
	if r.Sub != nil {
		c.sel(r.Sub)
		return
	}
	if r.Name != "" {
		c.readRef(r.Name)
	}
}

func (c *tableSetCollector) expr(e Expr) {
	if e == nil || !c.ok {
		return
	}
	switch x := e.(type) {
	case *Lit, *Param, *ColRef:
	case *Unary:
		c.expr(x.X)
	case *Binary:
		c.expr(x.L)
		c.expr(x.R)
	case *InExpr:
		c.expr(x.X)
		for _, le := range x.List {
			c.expr(le)
		}
		c.sel(x.Sub)
	case *IsNull:
		c.expr(x.X)
	case *Between:
		c.expr(x.X)
		c.expr(x.Lo)
		c.expr(x.Hi)
	case *Call:
		for _, a := range x.Args {
			c.expr(a)
		}
	case *SubqueryExpr:
		c.sel(x.Select)
	case *ExistsExpr:
		c.sel(x.Select)
	case *CaseExpr:
		c.expr(x.Operand)
		for _, w := range x.Whens {
			c.expr(w.Cond)
			c.expr(w.Result)
		}
		c.expr(x.Else)
	default:
		c.ok = false
	}
}
