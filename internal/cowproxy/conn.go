package cowproxy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"maxoid/internal/sqldb"
)

// Conn is a view-selected handle on the proxied database: the proxy
// "uses a Maxoid API to get information about the calling process ...
// then selects the correct Maxoid view" (§5.2). Content providers
// obtain a Conn per request via Proxy.For and use it exactly like a
// SQLite handle (U3 transparency: delegates use normal table names).
type Conn struct {
	p *Proxy
	// initiator is empty for callers that are initiators (operate on
	// primary tables) and the initiator's package for its delegates and
	// its own volatile requests (operate on its COW views).
	initiator string

	// memo maps a call shape (operation, table, where, ORDER BY and
	// columns) to its rendered statement, so a repeated call resolves
	// no name and renders nothing. Entries are stored under p.mu, which
	// DiscardVolatile and AdoptRecovered hold while they empty memos, so
	// no entry resolved before a discard is served after it.
	mu   sync.RWMutex
	memo map[string]stmt
}

// maxStmtMemo bounds a Conn's memo, which is keyed by the caller's
// where text: callers that inline literals would otherwise grow it
// without limit. A full memo is reset rather than evicted from; steady
// traffic refills it.
const maxStmtMemo = 256

// stmt is a rendered statement plus the count of ORDER BY columns
// Query appended to the projection, which it trims from results.
type stmt struct {
	sql   string
	extra int
}

// Operations, the first byte of a memo key.
const (
	opInsert = 'i'
	opUpdate = 'u'
	opDelete = 'd'
	opQuery  = 'q'
)

// For returns a connection for a caller. Pass "" for initiators (and
// for providers' own administrative work on public state); pass the
// initiator package for a delegate of that initiator, or for an
// initiator writing its own volatile state.
func (p *Proxy) For(initiator string) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.conns[initiator]; ok {
		return c
	}
	c := &Conn{p: p, initiator: initiator}
	if p.conns == nil {
		p.conns = make(map[string]*Conn)
	}
	p.conns[initiator] = c
	return c
}

// forget empties c's memo. The caller holds p.mu.
func (c *Conn) forget() {
	c.mu.Lock()
	c.memo = nil
	c.mu.Unlock()
}

// statement returns the statement memoized under key, or resolves table
// for this connection, renders the statement for the target with render
// and memoizes it. Resolving, rendering and storing all happen under
// p.mu.
func (c *Conn) statement(key []byte, table string, insert bool, render func(target string) stmt) (stmt, error) {
	c.mu.RLock()
	st, ok := c.memo[string(key)]
	c.mu.RUnlock()
	if ok {
		return st, nil
	}
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	target, err := c.p.target(table, c.initiator, insert)
	if err != nil {
		return stmt{}, err
	}
	st = render(target)
	c.mu.Lock()
	if c.memo == nil || len(c.memo) >= maxStmtMemo {
		c.memo = make(map[string]stmt)
	}
	c.memo[string(key)] = st
	c.mu.Unlock()
	return st, nil
}

// target resolves the table or view a statement on table addresses for
// initiator, creating its delta tables and COW views on demand. Inserts
// go to the primary table, or the initiator's delta table; every other
// statement goes to the primary table or user view, or the initiator's
// COW view of it. The caller holds p.mu.
func (p *Proxy) target(table, initiator string, insert bool) (string, error) {
	key := strings.ToLower(table)
	if info, ok := p.primaries[key]; ok {
		if initiator == "" {
			return info.name, nil
		}
		if err := p.ensureDelta(info, initiator); err != nil {
			return "", err
		}
		if insert {
			return DeltaTableName(info.name, initiator), nil
		}
		return COWViewName(info.name, initiator), nil
	}
	if v, ok := p.userViews[key]; ok && !insert {
		if initiator == "" {
			return v.name, nil
		}
		if err := p.ensureUserViewCOW(v, initiator); err != nil {
			return "", err
		}
		return COWViewName(v.name, initiator), nil
	}
	return "", fmt.Errorf("%w: %s", ErrUnknownTable, table)
}

// connScratch is the per-call scratch of the render paths: column
// lists, argument vectors, and memo-key bytes. Conns are shared across
// goroutines (Proxy.For memoizes them), so scratch is pooled per call
// rather than hung off the Conn. Nothing handed to sqldb retains these
// slices: argument values are copied into the executor's own buffer
// before execution.
type connScratch struct {
	cols []string
	args []sqldb.Value
	key  []byte
}

var connScratchPool = sync.Pool{New: func() any { return new(connScratch) }}

func getScratch() *connScratch { return connScratchPool.Get().(*connScratch) }

// putScratch recycles sc, dropping value references so the pool pins
// nothing between calls.
func putScratch(sc *connScratch) {
	clear(sc.args)
	sc.cols, sc.args, sc.key = sc.cols[:0], sc.args[:0], sc.key[:0]
	connScratchPool.Put(sc)
}

// setValues loads values into sc as sorted columns and their arguments
// in the same order, the deterministic column order of rendered SQL.
func (sc *connScratch) setValues(values map[string]sqldb.Value) {
	cols := sc.cols[:0]
	for k := range values {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	args := sc.args[:0]
	for _, col := range cols {
		args = append(args, values[col])
	}
	sc.cols, sc.args = cols, args
}

// shapeKey appends the memo key of a call to buf.
func shapeKey(buf []byte, op byte, table, where, orderBy string, cols []string) []byte {
	buf = append(buf, op)
	buf = append(buf, table...)
	buf = append(buf, 0)
	buf = append(buf, where...)
	buf = append(buf, 0)
	buf = append(buf, orderBy...)
	for _, col := range cols {
		buf = append(buf, 0)
		buf = append(buf, col...)
	}
	return buf
}

// Insert inserts a row and returns its primary key. For initiators the
// row goes to the primary table; for delegates it goes to the delta
// table with a key allocated from DeltaKeyBase up.
func (c *Conn) Insert(table string, values map[string]sqldb.Value) (int64, error) {
	sc := getScratch()
	defer putScratch(sc)
	sc.setValues(values)
	cols := sc.cols
	sc.key = shapeKey(sc.key[:0], opInsert, table, "", "", cols)
	delta := c.initiator != ""
	st, err := c.statement(sc.key, table, true, func(target string) stmt {
		return stmt{sql: renderInsert(target, cols, delta)}
	})
	if err != nil {
		return 0, err
	}
	if delta {
		// Keys for new volatile rows auto-increment from DeltaKeyBase:
		// the delta table's allocator was seeded at creation, so no
		// MAX() scan is needed here. _whiteout rides along as a trailing
		// argument rather than through a copied map.
		sc.args = append(sc.args, int64(0))
	}
	res, err := c.p.db.Exec(st.sql, sc.args...)
	if err != nil {
		return 0, err
	}
	return res.LastInsertID, nil
}

// renderInsert renders an INSERT of cols into table; a delta insert
// also sets _whiteout and replaces the row a whiteout left.
func renderInsert(table string, cols []string, delta bool) string {
	verb := "INSERT"
	if delta {
		verb = "INSERT OR REPLACE"
		cols = append(cols[:len(cols):len(cols)], "_whiteout")
	}
	placeholders := make([]string, len(cols))
	for i := range placeholders {
		placeholders[i] = "?"
	}
	return fmt.Sprintf("%s INTO %s (%s) VALUES (%s)",
		verb, table, strings.Join(cols, ", "), strings.Join(placeholders, ", "))
}

// Update updates rows matching the where clause, returning the number
// affected. Delegate updates are redirected to the delta table by the
// COW view's INSTEAD OF trigger.
func (c *Conn) Update(table string, values map[string]sqldb.Value, where string, args ...sqldb.Value) (int64, error) {
	sc := getScratch()
	defer putScratch(sc)
	sc.setValues(values)
	cols := sc.cols
	sc.key = shapeKey(sc.key[:0], opUpdate, table, where, "", cols)
	st, err := c.statement(sc.key, table, false, func(target string) stmt {
		var b strings.Builder
		b.WriteString("UPDATE ")
		b.WriteString(target)
		b.WriteString(" SET ")
		for i, col := range cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(col)
			b.WriteString(" = ?")
		}
		if where != "" {
			b.WriteString(" WHERE ")
			b.WriteString(where)
		}
		return stmt{sql: b.String()}
	})
	if err != nil {
		return 0, err
	}
	sc.args = append(sc.args, args...)
	res, err := c.p.db.Exec(st.sql, sc.args...)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected, nil
}

// Delete deletes rows matching the where clause. For delegates the COW
// view's trigger emulates deletion with whiteout records.
func (c *Conn) Delete(table string, where string, args ...sqldb.Value) (int64, error) {
	sc := getScratch()
	defer putScratch(sc)
	sc.key = shapeKey(sc.key[:0], opDelete, table, where, "", nil)
	st, err := c.statement(sc.key, table, false, func(target string) stmt {
		sql := "DELETE FROM " + target
		if where != "" {
			sql += " WHERE " + where
		}
		return stmt{sql: sql}
	})
	if err != nil {
		return 0, err
	}
	res, err := c.p.db.Exec(st.sql, args...)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected, nil
}

// Query runs a select over the caller's view of the table. As the
// paper's footnote 5 explains, SQLite 3.8.6 only flattens a UNION ALL
// view under ORDER BY when the ORDER BY columns are included in the
// query columns, so "our proxy adds ORDER BY columns to query columns
// when necessary"; the extra columns are dropped from the result.
func (c *Conn) Query(table string, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	sc := getScratch()
	defer putScratch(sc)
	sc.key = shapeKey(sc.key[:0], opQuery, table, where, orderBy, columns)
	st, err := c.statement(sc.key, table, false, func(target string) stmt {
		return renderQuery(target, columns, where, orderBy)
	})
	if err != nil {
		return nil, err
	}
	rows, err := c.p.db.Query(st.sql, args...)
	if err != nil {
		return nil, err
	}
	if st.extra > 0 {
		rows.Columns = rows.Columns[:len(rows.Columns)-st.extra]
		for i := range rows.Data {
			rows.Data[i] = rows.Data[i][:len(rows.Data[i])-st.extra]
		}
	}
	return rows, nil
}

// renderQuery renders the SELECT Query runs against target.
func renderQuery(target string, columns []string, where, orderBy string) stmt {
	extra := 0
	colSQL := "*"
	if len(columns) > 0 {
		queryCols := append([]string{}, columns...)
		if orderBy != "" {
			for _, oc := range orderByColumns(orderBy) {
				if indexOfFold(queryCols, oc) < 0 {
					queryCols = append(queryCols, oc)
					extra++
				}
			}
		}
		colSQL = strings.Join(queryCols, ", ")
	}
	sql := "SELECT " + colSQL + " FROM " + target
	if where != "" {
		sql += " WHERE " + where
	}
	if orderBy != "" {
		sql += " ORDER BY " + orderBy
	}
	return stmt{sql: sql, extra: extra}
}

// Explain renders the caller's view of the query exactly as Query
// would — same target resolution, same footnote-5 column padding —
// and runs the planner only. Remote clients use it to inspect the
// access path chosen for *their* view without touching data.
func (c *Conn) Explain(table string, columns []string, where, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	c.p.mu.Lock()
	target, err := c.p.target(table, c.initiator, false)
	c.p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c.p.db.Query("EXPLAIN "+renderQuery(target, columns, where, orderBy).sql, args...)
}

// QueryVolatile returns rows from the initiator's volatile state of a
// table — what the tmp URIs expose (§5.1). Whiteout records are
// included with their _whiteout flag so initiators can audit deletions.
func (p *Proxy) QueryVolatile(table, initiator string, where string, args ...sqldb.Value) (*sqldb.Rows, error) {
	key := strings.ToLower(table)
	p.mu.Lock()
	info, ok := p.primaries[key]
	hasDelta := ok && p.deltas[key][initiator]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, table)
	}
	if !hasDelta {
		return &sqldb.Rows{}, nil
	}
	sql := "SELECT * FROM " + DeltaTableName(info.name, initiator)
	if where != "" {
		sql += " WHERE " + where
	}
	return p.db.Query(sql, args...)
}

// QueryAdmin runs a select over the administrative view of a table,
// which includes an _origin column (” for public rows, the initiator
// package for volatile rows) and the _whiteout flag.
func (p *Proxy) QueryAdmin(table string, where string, args ...sqldb.Value) (*sqldb.Rows, error) {
	key := strings.ToLower(table)
	p.mu.Lock()
	info, ok := p.primaries[key]
	if ok && p.deltas[key] == nil {
		// No deltas yet: make sure the admin view exists.
		if err := p.rebuildAdminView(info); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.deltas[key] = make(map[string]bool)
	}
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, table)
	}
	sql := "SELECT * FROM " + adminViewName(info.name)
	if where != "" {
		sql += " WHERE " + where
	}
	return p.db.Query(sql, args...)
}

// orderByColumns extracts plain column names from an ORDER BY clause.
func orderByColumns(orderBy string) []string {
	var out []string
	for _, term := range strings.Split(orderBy, ",") {
		fields := strings.Fields(strings.TrimSpace(term))
		if len(fields) == 0 {
			continue
		}
		col := fields[0]
		// Skip expressions and numeric indexes; only bare identifiers
		// need the footnote-5 workaround.
		if strings.ContainsAny(col, "()+-*/%'\"") {
			continue
		}
		if col >= "0" && col <= "99999" {
			continue
		}
		out = append(out, col)
	}
	return out
}

func indexOfFold(list []string, s string) int {
	for i, x := range list {
		if strings.EqualFold(x, s) {
			return i
		}
	}
	return -1
}
