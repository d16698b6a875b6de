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
	// primary tables) and the initiator's package for delegates
	// (operate on COW views).
	initiator string

	// Resolved-target caches, so steady-state operations skip the
	// proxy-wide mutex and the name re-derivation. gen records the
	// proxy generation the caches were built at; DiscardVolatile bumps
	// the generation, which empties them on next use.
	mu      sync.RWMutex
	gen     int64
	targets map[string]string       // lowercase table -> query/update target
	inserts map[string]insertTarget // lowercase table -> insert routing
	sqls    map[string]string       // rendered INSERT statements
	queries map[string]queryPlan    // rendered SELECT statements, at most maxStmtMemo
	updates map[string]updatePlan   // rendered UPDATE statements, at most maxStmtMemo
}

// maxStmtMemo bounds the queries and updates memos, which are keyed by
// the caller's where text: callers that inline literals would otherwise
// grow them without limit. A full memo is reset rather than evicted
// from, as sqldb's synthesized-scan memo is; steady traffic refills it.
const maxStmtMemo = 256

// insertTarget is the memoized routing decision for Conn.Insert.
type insertTarget struct {
	table string // table to insert into (primary or delta)
	delta bool   // delta insert: add _whiteout and use OR REPLACE
}

// queryPlan is a memoized rendered SELECT plus the count of ORDER BY
// columns appended to the projection that must be trimmed from results.
type queryPlan struct {
	sql   string
	extra int
}

// updatePlan is a memoized rendered UPDATE plus the column order its
// SET-clause placeholders expect values in.
type updatePlan struct {
	sql  string
	cols []string
}

// cachedTarget returns the memoized query/update target for key.
func (c *Conn) cachedTarget(key string) (string, bool) {
	gen := c.p.gen.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.gen != gen {
		return "", false
	}
	v, ok := c.targets[key]
	return v, ok
}

// cachedInsert returns the memoized insert routing for key.
func (c *Conn) cachedInsert(key string) (insertTarget, bool) {
	gen := c.p.gen.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.gen != gen {
		return insertTarget{}, false
	}
	v, ok := c.inserts[key]
	return v, ok
}

// resetIfStale empties the caches when the proxy generation moved.
// Caller holds c.mu.
func (c *Conn) resetIfStale() {
	gen := c.p.gen.Load()
	if c.gen != gen {
		c.targets = nil
		c.inserts = nil
		c.sqls = nil
		c.queries = nil
		c.updates = nil
		c.gen = gen
	}
}

// cachedQuery returns the memoized rendered SELECT for key. The key is
// raw bytes so the hot path indexes the map without materializing a
// string; string(key) in a map index compiles to an allocation-free
// lookup.
func (c *Conn) cachedQuery(key []byte) (queryPlan, bool) {
	gen := c.p.gen.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.gen != gen {
		return queryPlan{}, false
	}
	v, ok := c.queries[string(key)]
	return v, ok
}

func (c *Conn) storeQuery(key string, qp queryPlan) {
	c.mu.Lock()
	c.resetIfStale()
	if c.queries == nil || len(c.queries) >= maxStmtMemo {
		c.queries = make(map[string]queryPlan)
	}
	c.queries[key] = qp
	c.mu.Unlock()
}

// cachedUpdate returns the memoized rendered UPDATE for key (raw
// bytes, like cachedQuery, for an allocation-free lookup).
func (c *Conn) cachedUpdate(key []byte) (updatePlan, bool) {
	gen := c.p.gen.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.gen != gen {
		return updatePlan{}, false
	}
	v, ok := c.updates[string(key)]
	return v, ok
}

func (c *Conn) storeUpdate(key string, up updatePlan) {
	c.mu.Lock()
	c.resetIfStale()
	if c.updates == nil || len(c.updates) >= maxStmtMemo {
		c.updates = make(map[string]updatePlan)
	}
	c.updates[key] = up
	c.mu.Unlock()
}

func (c *Conn) storeTarget(key, val string) {
	c.mu.Lock()
	c.resetIfStale()
	if c.targets == nil {
		c.targets = make(map[string]string)
	}
	c.targets[key] = val
	c.mu.Unlock()
}

func (c *Conn) storeInsert(key string, val insertTarget) {
	c.mu.Lock()
	c.resetIfStale()
	if c.inserts == nil {
		c.inserts = make(map[string]insertTarget)
	}
	c.inserts[key] = val
	c.mu.Unlock()
}

// For returns a connection for a caller. Pass "" for initiators (and
// for providers' own administrative work on public state); pass the
// initiator package for a delegate of that initiator.
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

// target resolves the table/view name this connection must operate on,
// creating delta tables and COW views on demand for delegates.
func (c *Conn) target(table string) (string, error) {
	key := strings.ToLower(table)
	if t, ok := c.cachedTarget(key); ok {
		return t, nil
	}
	t, err := c.targetSlow(key, table)
	if err == nil {
		c.storeTarget(key, t)
	}
	return t, err
}

func (c *Conn) targetSlow(key, table string) (string, error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if info, ok := c.p.primaries[key]; ok {
		if c.initiator == "" {
			return info.name, nil
		}
		if err := c.p.ensureDelta(info, c.initiator); err != nil {
			return "", err
		}
		return COWViewName(info.name, c.initiator), nil
	}
	if v, ok := c.p.userViews[key]; ok {
		if c.initiator == "" {
			return v.name, nil
		}
		if err := c.p.ensureUserViewCOW(v, c.initiator); err != nil {
			return "", err
		}
		return COWViewName(v.name, c.initiator), nil
	}
	return "", fmt.Errorf("%w: %s", ErrUnknownTable, table)
}

// sortedCols returns values' column names sorted for deterministic SQL
// (miss-path only: hot paths sort into pooled scratch instead).
func sortedCols(values map[string]sqldb.Value) []string {
	cols := make([]string, 0, len(values))
	for k := range values {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	return cols
}

// connScratch is the per-call scratch of the hot render paths
// (Insert/Update/Query): column lists, argument vectors, and memo-key
// bytes. Conns are shared across goroutines (Proxy.For memoizes them),
// so scratch is pooled per call rather than hung off the Conn. Nothing
// handed to sqldb retains these slices: argument values are copied into
// the executor's own buffer before execution.
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

// Insert inserts a row and returns its primary key. For initiators the
// row goes to the primary table; for delegates it goes to the delta
// table with a key allocated from DeltaKeyBase up.
func (c *Conn) Insert(table string, values map[string]sqldb.Value) (int64, error) {
	key := strings.ToLower(table)
	tgt, ok := c.cachedInsert(key)
	if !ok {
		c.p.mu.Lock()
		info, isPrimary := c.p.primaries[key]
		if !isPrimary {
			c.p.mu.Unlock()
			return 0, fmt.Errorf("%w: %s", ErrUnknownTable, table)
		}
		if c.initiator == "" {
			tgt = insertTarget{table: info.name}
		} else {
			if err := c.p.ensureDelta(info, c.initiator); err != nil {
				c.p.mu.Unlock()
				return 0, err
			}
			tgt = insertTarget{table: DeltaTableName(info.name, c.initiator), delta: true}
		}
		c.p.mu.Unlock()
		c.storeInsert(key, tgt)
	}
	if !tgt.delta {
		return c.insertInto(tgt.table, values, "", nil, "")
	}
	// Keys for new volatile rows auto-increment from DeltaKeyBase: the
	// delta table's allocator was seeded at creation, so no MAX() scan
	// is needed here. _whiteout rides along as a trailing column rather
	// than through a copied map.
	return c.insertInto(tgt.table, values, "_whiteout", int64(0), "OR REPLACE")
}

// InsertVolatile inserts a row directly into the initiator's own
// volatile state — the isVolatile API initiators use for incognito
// downloads (§6.1 API 4). The connection's initiator field is empty for
// initiators, so the target initiator is explicit.
func (c *Conn) InsertVolatile(table, initiator string, values map[string]sqldb.Value) (int64, error) {
	if initiator == "" {
		return 0, fmt.Errorf("cowproxy: InsertVolatile requires an initiator")
	}
	return c.p.For(initiator).Insert(table, values)
}

// insertInto renders and executes an INSERT. The rendered SQL is
// memoized per (table, column set, conflict clause) so steady-state
// inserts reuse one string (and, downstream, one cached AST and plan).
// extraCol, when non-empty, is appended after the sorted columns with
// extraVal as its argument — the delta path's _whiteout marker.
func (c *Conn) insertInto(table string, values map[string]sqldb.Value, extraCol string, extraVal sqldb.Value, conflict string) (int64, error) {
	sc := getScratch()
	defer putScratch(sc)
	cols := sc.cols[:0]
	for k := range values {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	args := sc.args[:0]
	for _, col := range cols {
		args = append(args, values[col])
	}
	if extraCol != "" {
		cols = append(cols, extraCol)
		args = append(args, extraVal)
	}
	key := append(sc.key[:0], table...)
	key = append(key, 0)
	key = append(key, conflict...)
	key = append(key, 0)
	for i, col := range cols {
		if i > 0 {
			key = append(key, ',')
		}
		key = append(key, col...)
	}
	sc.cols, sc.args, sc.key = cols, args, key
	gen := c.p.gen.Load()
	c.mu.RLock()
	sql, ok := "", false
	if c.gen == gen {
		sql, ok = c.sqls[string(key)]
	}
	c.mu.RUnlock()
	if !ok {
		sql = renderInsert(table, cols, conflict)
		c.mu.Lock()
		c.resetIfStale()
		if c.sqls == nil {
			c.sqls = make(map[string]string)
		}
		c.sqls[string(key)] = sql
		c.mu.Unlock()
	}
	res, err := c.p.db.Exec(sql, args...)
	if err != nil {
		return 0, err
	}
	return res.LastInsertID, nil
}

func renderInsert(table string, cols []string, conflict string) string {
	placeholders := make([]string, len(cols))
	for i := range placeholders {
		placeholders[i] = "?"
	}
	verb := "INSERT"
	if conflict != "" {
		verb = "INSERT " + conflict
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
	key := append(sc.key[:0], table...)
	key = append(key, 0)
	key = append(key, where...)
	sc.key = key
	up, ok := c.cachedUpdate(key)
	if !ok || !colsMatch(up.cols, values) {
		target, err := c.target(table)
		if err != nil {
			return 0, err
		}
		cols := sortedCols(values)
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
		up = updatePlan{sql: b.String(), cols: cols}
		c.storeUpdate(string(key), up)
	}
	setArgs := sc.args[:0]
	for _, col := range up.cols {
		setArgs = append(setArgs, values[col])
	}
	setArgs = append(setArgs, args...)
	sc.args = setArgs
	res, err := c.p.db.Exec(up.sql, setArgs...)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected, nil
}

// colsMatch reports whether values assigns exactly the columns a cached
// update plan was rendered for (the common steady-state case); a
// mismatch re-renders and overwrites the cache entry.
func colsMatch(cols []string, values map[string]sqldb.Value) bool {
	if len(cols) != len(values) {
		return false
	}
	for _, col := range cols {
		if _, ok := values[col]; !ok {
			return false
		}
	}
	return true
}

// Delete deletes rows matching the where clause. For delegates the COW
// view's trigger emulates deletion with whiteout records.
func (c *Conn) Delete(table string, where string, args ...sqldb.Value) (int64, error) {
	target, err := c.target(table)
	if err != nil {
		return 0, err
	}
	sql := "DELETE FROM " + target
	if where != "" {
		sql += " WHERE " + where
	}
	res, err := c.p.db.Exec(sql, args...)
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
	key := queryKeyInto(sc.key[:0], table, columns, where, orderBy)
	sc.key = key
	qp, ok := c.cachedQuery(key)
	if !ok {
		var err error
		qp, err = c.renderQuery(table, columns, where, orderBy)
		if err != nil {
			return nil, err
		}
		c.storeQuery(string(key), qp)
	}
	rows, err := c.p.db.Query(qp.sql, args...)
	if err != nil {
		return nil, err
	}
	if qp.extra > 0 {
		rows.Columns = rows.Columns[:len(rows.Columns)-qp.extra]
		for i := range rows.Data {
			rows.Data[i] = rows.Data[i][:len(rows.Data[i])-qp.extra]
		}
	}
	return rows, nil
}

// queryKeyInto appends the memo key for a Query call to buf; the hot
// path looks it up without ever materializing a string.
func queryKeyInto(buf []byte, table string, columns []string, where, orderBy string) []byte {
	buf = append(buf, table...)
	buf = append(buf, 0)
	buf = append(buf, where...)
	buf = append(buf, 0)
	buf = append(buf, orderBy...)
	for _, col := range columns {
		buf = append(buf, 0)
		buf = append(buf, col...)
	}
	return buf
}

// renderQuery resolves the caller's view of table and renders the
// SELECT once; Query memoizes the result per connection.
func (c *Conn) renderQuery(table string, columns []string, where, orderBy string) (queryPlan, error) {
	target, err := c.target(table)
	if err != nil {
		return queryPlan{}, err
	}
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
	return queryPlan{sql: sql, extra: extra}, nil
}

// Explain renders the caller's view of the query exactly as Query
// would — same target resolution, same footnote-5 column padding —
// and runs the planner only. Remote clients use it to inspect the
// access path chosen for *their* view without touching data.
func (c *Conn) Explain(table string, columns []string, where, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	qp, err := c.renderQuery(table, columns, where, orderBy)
	if err != nil {
		return nil, err
	}
	return c.p.db.Query("EXPLAIN "+qp.sql, args...)
}

// QueryVolatile returns rows from the initiator's volatile state of a
// table — what the tmp URIs expose (§5.1). Whiteout records are
// included with their _whiteout flag so initiators can audit deletions.
func (c *Conn) QueryVolatile(table, initiator string, where string, args ...sqldb.Value) (*sqldb.Rows, error) {
	key := strings.ToLower(table)
	c.p.mu.Lock()
	info, ok := c.p.primaries[key]
	hasDelta := ok && c.p.deltas[key][initiator]
	c.p.mu.Unlock()
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
	return c.p.db.Query(sql, args...)
}

// QueryAdmin runs a select over the administrative view of a table,
// which includes an _origin column (” for public rows, the initiator
// package for volatile rows) and the _whiteout flag.
func (c *Conn) QueryAdmin(table string, where string, args ...sqldb.Value) (*sqldb.Rows, error) {
	key := strings.ToLower(table)
	c.p.mu.Lock()
	info, ok := c.p.primaries[key]
	if ok && c.p.deltas[key] == nil {
		// No deltas yet: make sure the admin view exists.
		if err := c.p.rebuildAdminView(info); err != nil {
			c.p.mu.Unlock()
			return nil, err
		}
		c.p.deltas[key] = make(map[string]bool)
	}
	c.p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, table)
	}
	sql := "SELECT * FROM " + adminViewName(info.name)
	if where != "" {
		sql += " WHERE " + where
	}
	return c.p.db.Query(sql, args...)
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
