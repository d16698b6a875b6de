// Package cowproxy implements the paper's SQLite copy-on-write proxy
// layer (§5.2): unilateral per-row, per-initiator copy-on-write for
// content-provider databases.
//
// For each primary table t and initiator A, the proxy maintains on
// demand:
//
//   - a delta table t_delta_<A> with all of t's columns plus a boolean
//     _whiteout column (Vol(A));
//   - a COW view t_view_<A>, the UNION ALL SQL view of Figure 6, with
//     INSTEAD OF UPDATE/DELETE triggers that confine modifications to
//     the delta table;
//   - for every registered user-defined SQL view, a per-initiator COW
//     view defined identically but with base tables (and nested views)
//     replaced by their COW counterparts, maintained as a hierarchy;
//   - an administrative view t_admin containing primary and all delta
//     rows with an _origin column, which tells which state each record
//     belongs to (Proxy.QueryAdmin). No provider reads it: Downloads and
//     Media carry a record's state with the request that made it.
//
// Delegate inserts go straight into the delta table with primary keys
// allocated from DeltaKeyBase upward to avoid collisions with primary
// keys (the paper's "large number N").
package cowproxy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"maxoid/internal/fault"
	"maxoid/internal/sqldb"
)

// faultSynth covers COW view synthesis (see internal/fault): the
// multi-statement creation of a delta table, COW view, and INSTEAD OF
// triggers. A failure at any step rolls the created objects back, so
// an initiator's COW machinery exists either completely or not at all
// — the all-or-nothing invariant internal/chaos checks.
var faultSynth = fault.Declare("cowproxy.synth", "COW view synthesis: fail partway through delta/view/trigger creation; rollback must leave no partial machinery")

// DeltaKeyBase is the first primary key used for rows inserted by
// delegates, the paper's N (Figure 6 shows 10000001).
const DeltaKeyBase = 10000001

// ErrUnknownTable is returned for operations on unregistered tables.
var ErrUnknownTable = errors.New("cowproxy: unknown table or view")

// Proxy wraps one content provider's database.
type Proxy struct {
	db *sqldb.DB

	mu        sync.Mutex
	primaries map[string]primaryInfo  // lowercase table name
	userViews map[string]userViewInfo // lowercase view name
	viewOrder []string                // registration order (hierarchy)
	// deltas[table][initiator] records which delta tables exist.
	deltas map[string]map[string]bool
	// cowViews[name][initiator] records which COW views exist (for both
	// primary tables and user-defined views).
	cowViews map[string]map[string]bool

	// conns memoizes one Conn per initiator so its statement memo
	// persists across calls.
	conns map[string]*Conn

	// haveRegistry memoizes that the durable _cow_registry table exists
	// (see registry.go).
	haveRegistry bool
}

type primaryInfo struct {
	name string
	cols []sqldb.ColumnDef
	pk   string // primary key column name
}

type userViewInfo struct {
	name string
	sql  string // definition SELECT
	deps []string
}

// New wraps db. Tables and views the provider defines must be
// registered through RegisterTable / RegisterUserView.
func New(db *sqldb.DB) *Proxy {
	return &Proxy{
		db:        db,
		primaries: make(map[string]primaryInfo),
		userViews: make(map[string]userViewInfo),
		deltas:    make(map[string]map[string]bool),
		cowViews:  make(map[string]map[string]bool),
	}
}

// DB exposes the underlying database for provider administrative code.
func (p *Proxy) DB() *sqldb.DB { return p.db }

// RegisterTable declares an existing base table as a primary table
// managed by the proxy. The table must have an INTEGER PRIMARY KEY.
func (p *Proxy) RegisterTable(name string) error {
	cols, ok := p.db.TableColumns(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTable, name)
	}
	pk := ""
	for _, c := range cols {
		if c.PrimaryKey {
			pk = c.Name
		}
	}
	if pk == "" {
		return fmt.Errorf("cowproxy: primary table %s needs a PRIMARY KEY column", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.primaries[strings.ToLower(name)] = primaryInfo{name: name, cols: cols, pk: pk}
	return nil
}

// RegisterUserView declares a user-defined SQL view (by its definition
// SELECT). The view is created in the database, and per-initiator COW
// views over it are derived on demand. Views may reference primary
// tables and previously registered views, forming a hierarchy.
func (p *Proxy) RegisterUserView(name, selectSQL string) error {
	deps, err := sqldb.SelectTables(selectSQL)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range deps {
		key := strings.ToLower(d)
		if _, isTable := p.primaries[key]; isTable {
			continue
		}
		if _, isView := p.userViews[key]; isView {
			continue
		}
		return fmt.Errorf("cowproxy: view %s references unregistered %s", name, d)
	}
	if _, err := p.db.Exec("CREATE VIEW IF NOT EXISTS " + name + " AS " + selectSQL); err != nil {
		return err
	}
	key := strings.ToLower(name)
	if _, exists := p.userViews[key]; !exists {
		p.viewOrder = append(p.viewOrder, key)
	}
	p.userViews[key] = userViewInfo{name: name, sql: selectSQL, deps: deps}
	return nil
}

// sanitize turns an initiator package name into an identifier fragment.
func sanitize(initiator string) string {
	var b strings.Builder
	for _, r := range initiator {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// DeltaTableName returns the delta table name for (table, initiator).
func DeltaTableName(table, initiator string) string {
	return table + "_delta_" + sanitize(initiator)
}

// COWViewName returns the COW view name for (table-or-view, initiator).
func COWViewName(name, initiator string) string {
	return name + "_view_" + sanitize(initiator)
}

// adminViewName returns the administrative view name for a table.
func adminViewName(table string) string { return table + "_admin" }

// ensureDelta creates A's delta table, COW view, and triggers for a
// primary table if they do not exist yet ("created on demand"). The
// caller must hold p.mu.
//
// Synthesis is all-or-nothing: a failure at any of the five steps
// rolls back every object the failed attempt created (and restores
// the admin view), so observers never see a delta table without its
// COW view or vice versa.
func (p *Proxy) ensureDelta(info primaryInfo, initiator string) error {
	key := strings.ToLower(info.name)
	if p.deltas[key] == nil {
		p.deltas[key] = make(map[string]bool)
	}
	if p.deltas[key][initiator] {
		return nil
	}

	delta := DeltaTableName(info.name, initiator)
	cowView := COWViewName(info.name, initiator)

	rollback := func(err error) error {
		// Cleanup of a failed synthesis must not itself be re-injected
		// (see fault.Suspend). DROP VIEW removes its triggers with it.
		fault.Suspend()
		defer fault.Resume()
		delete(p.deltas[key], initiator)
		if p.cowViews[key] != nil {
			delete(p.cowViews[key], initiator)
		}
		p.registryRemove(info.name, initiator, registryKindDelta)
		_, _ = p.db.Exec("DROP VIEW IF EXISTS " + cowView)
		_, _ = p.db.Exec("DROP TABLE IF EXISTS " + delta)
		_ = p.rebuildAdminView(info)
		return err
	}
	if err := p.synthDelta(info, delta, cowView); err != nil {
		return rollback(err)
	}
	// The registry row lands after the DDL in the journal: a recovered
	// prefix containing the row therefore contains the whole synthesis
	// (AdoptRecovered drops the registered-less remainder otherwise).
	if err := p.registryAdd(info.name, initiator, registryKindDelta); err != nil {
		return rollback(err)
	}

	p.deltas[key][initiator] = true
	if p.cowViews[key] == nil {
		p.cowViews[key] = make(map[string]bool)
	}
	p.cowViews[key][initiator] = true

	// The administrative view covers all deltas; rebuild it.
	if err := p.rebuildAdminView(info); err != nil {
		return rollback(err)
	}
	return nil
}

// synthDelta runs the multi-statement synthesis for ensureDelta. Each
// step consults the cowproxy.synth fault point, so a harness can kill
// the synthesis between any two statements.
func (p *Proxy) synthDelta(info primaryInfo, delta, cowView string) error {
	// Delta table: all primary columns plus _whiteout.
	var ddl strings.Builder
	ddl.WriteString("CREATE TABLE " + delta + " (")
	colNames := make([]string, 0, len(info.cols))
	for i, c := range info.cols {
		if i > 0 {
			ddl.WriteString(", ")
		}
		ddl.WriteString(c.Name)
		if c.Type != "" {
			ddl.WriteString(" " + c.Type)
		}
		if c.PrimaryKey {
			ddl.WriteString(" PRIMARY KEY")
		}
		colNames = append(colNames, c.Name)
	}
	ddl.WriteString(", _whiteout BOOLEAN DEFAULT 0)")
	if err := fault.Hit(faultSynth); err != nil {
		return err
	}
	if _, err := p.db.Exec(ddl.String()); err != nil {
		return err
	}
	// Seed the delta table's key allocator at N (the paper's large
	// starting number) by inserting and deleting a marker row: new
	// delegate inserts then auto-increment from DeltaKeyBase without a
	// MAX() scan.
	marker := fmt.Sprintf("INSERT INTO %s (%s, _whiteout) VALUES (%d, 1); DELETE FROM %s WHERE %s = %d",
		delta, info.pk, DeltaKeyBase-1, delta, info.pk, DeltaKeyBase-1)
	if err := fault.Hit(faultSynth); err != nil {
		return err
	}
	if _, err := p.db.Exec(marker); err != nil {
		return err
	}

	// Mirror the primary table's secondary indexes onto the delta
	// table: the COW view's delta arm sees the same workload as the
	// primary arm, so an index worth having on one is worth having on
	// the other. A failure here aborts the synthesis; the rollback's
	// DROP TABLE removes any indexes already mirrored.
	if infos, ok := p.db.TableIndexes(info.name); ok {
		for i, ix := range infos {
			using := ""
			if ix.Kind == "HASH" {
				using = " USING HASH"
			}
			ddl := fmt.Sprintf("CREATE INDEX %s_mx%d ON %s (%s)%s",
				delta, i, delta, strings.Join(ix.Columns, ", "), using)
			if err := fault.Hit(faultSynth); err != nil {
				return err
			}
			if _, err := p.db.Exec(ddl); err != nil {
				return err
			}
		}
	}

	cols := strings.Join(colNames, ", ")
	// COW view per Figure 6.
	viewSQL := fmt.Sprintf(
		"CREATE VIEW %s AS SELECT %s FROM %s WHERE %s NOT IN (SELECT %s FROM %s) UNION ALL SELECT %s FROM %s WHERE _whiteout = 0",
		cowView, cols, info.name, info.pk, info.pk, delta, cols, delta)
	if err := fault.Hit(faultSynth); err != nil {
		return err
	}
	if _, err := p.db.Exec(viewSQL); err != nil {
		return err
	}

	// INSTEAD OF triggers implementing per-row copy-on-write.
	newCols := make([]string, len(colNames))
	for i, c := range colNames {
		newCols[i] = "new." + c
	}
	updTrig := fmt.Sprintf(
		"CREATE TRIGGER %s_upd INSTEAD OF UPDATE ON %s BEGIN INSERT OR REPLACE INTO %s (%s, _whiteout) VALUES (%s, 0); END",
		cowView, cowView, delta, cols, strings.Join(newCols, ", "))
	if err := fault.Hit(faultSynth); err != nil {
		return err
	}
	if _, err := p.db.Exec(updTrig); err != nil {
		return err
	}
	// Deleting emulates a deletion with a whiteout record; only the key
	// matters, other columns keep the old values for diagnostics.
	oldCols := make([]string, len(colNames))
	for i, c := range colNames {
		oldCols[i] = "old." + c
	}
	delTrig := fmt.Sprintf(
		"CREATE TRIGGER %s_del INSTEAD OF DELETE ON %s BEGIN INSERT OR REPLACE INTO %s (%s, _whiteout) VALUES (%s, 1); END",
		cowView, cowView, delta, cols, strings.Join(oldCols, ", "))
	if err := fault.Hit(faultSynth); err != nil {
		return err
	}
	if _, err := p.db.Exec(delTrig); err != nil {
		return err
	}
	return nil
}

// rebuildAdminView recreates t_admin over the primary table and all
// existing delta tables. The caller must hold p.mu.
func (p *Proxy) rebuildAdminView(info primaryInfo) error {
	key := strings.ToLower(info.name)
	admin := adminViewName(info.name)
	if _, err := p.db.Exec("DROP VIEW IF EXISTS " + admin); err != nil {
		return err
	}
	colNames := make([]string, len(info.cols))
	for i, c := range info.cols {
		colNames[i] = c.Name
	}
	cols := strings.Join(colNames, ", ")
	var arms []string
	arms = append(arms, fmt.Sprintf("SELECT %s, '' AS _origin, 0 AS _whiteout FROM %s", cols, info.name))
	initiators := make([]string, 0, len(p.deltas[key]))
	for init := range p.deltas[key] {
		initiators = append(initiators, init)
	}
	sort.Strings(initiators)
	for _, init := range initiators {
		arms = append(arms, fmt.Sprintf("SELECT %s, '%s' AS _origin, _whiteout FROM %s",
			cols, strings.ReplaceAll(init, "'", "''"), DeltaTableName(info.name, init)))
	}
	_, err := p.db.Exec("CREATE VIEW " + admin + " AS " + strings.Join(arms, " UNION ALL "))
	return err
}

// ensureUserViewCOW creates the per-initiator COW view for a registered
// user-defined view, first ensuring COW views for everything it depends
// on (the hierarchy of Figure 5). The caller must hold p.mu.
func (p *Proxy) ensureUserViewCOW(v userViewInfo, initiator string) error {
	key := strings.ToLower(v.name)
	if p.cowViews[key] == nil {
		p.cowViews[key] = make(map[string]bool)
	}
	if p.cowViews[key][initiator] {
		return nil
	}
	for _, dep := range v.deps {
		depKey := strings.ToLower(dep)
		if info, ok := p.primaries[depKey]; ok {
			if err := p.ensureDelta(info, initiator); err != nil {
				return err
			}
			continue
		}
		if uv, ok := p.userViews[depKey]; ok {
			if err := p.ensureUserViewCOW(uv, initiator); err != nil {
				return err
			}
		}
	}
	rewritten, err := sqldb.RewriteTables(v.sql, func(name string) string {
		return COWViewName(name, initiator)
	})
	if err != nil {
		return err
	}
	if err := fault.Hit(faultSynth); err != nil {
		return err
	}
	if _, err := p.db.Exec("CREATE VIEW " + COWViewName(v.name, initiator) + " AS " + rewritten); err != nil {
		return err
	}
	if err := p.registryAdd(v.name, initiator, registryKindView); err != nil {
		fault.Suspend()
		_, _ = p.db.Exec("DROP VIEW IF EXISTS " + COWViewName(v.name, initiator))
		fault.Resume()
		return err
	}
	p.cowViews[key][initiator] = true
	return nil
}

// HasDelta reports whether a delta table exists for (table, initiator).
func (p *Proxy) HasDelta(table, initiator string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deltas[strings.ToLower(table)][initiator]
}

// Stats is a snapshot of the proxy's per-initiator COW machinery — the
// leak counters the lifecycle chaos engine compares against baseline.
type Stats struct {
	DeltaTables int // live t_delta_<A> tables across all primaries
	COWViews    int // live t_view_<A> views across tables and user views
}

// Stats counts the live delta tables and COW views.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s Stats
	for _, m := range p.deltas {
		s.DeltaTables += len(m)
	}
	for _, m := range p.cowViews {
		s.COWViews += len(m)
	}
	return s
}

// Initiators returns the initiators that currently have volatile state
// in any registered table.
func (p *Proxy) Initiators() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	set := map[string]bool{}
	for _, m := range p.deltas {
		for init := range m {
			set[init] = true
		}
	}
	out := make([]string, 0, len(set))
	for init := range set {
		out = append(out, init)
	}
	sort.Strings(out)
	return out
}

// DiscardVolatile drops all of initiator's delta tables and COW views
// across all registered tables and user views — the "clear Vol(A)"
// operation (§3.3 commit and clean-up, §6.3 Clear-Vol).
func (p *Proxy) DiscardVolatile(initiator string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The initiator's memo may name the views and tables dropped below.
	if c := p.conns[initiator]; c != nil {
		c.forget()
	}
	// Drop user-view COW views first (they depend on table COW views),
	// in reverse registration order.
	for i := len(p.viewOrder) - 1; i >= 0; i-- {
		key := p.viewOrder[i]
		if p.cowViews[key][initiator] {
			v := p.userViews[key]
			if _, err := p.db.Exec("DROP VIEW IF EXISTS " + COWViewName(v.name, initiator)); err != nil {
				return err
			}
			delete(p.cowViews[key], initiator)
		}
	}
	for key, info := range p.primaries {
		if !p.deltas[key][initiator] {
			continue
		}
		if _, err := p.db.Exec("DROP VIEW IF EXISTS " + COWViewName(info.name, initiator)); err != nil {
			return err
		}
		if _, err := p.db.Exec("DROP TABLE IF EXISTS " + DeltaTableName(info.name, initiator)); err != nil {
			return err
		}
		delete(p.deltas[key], initiator)
		delete(p.cowViews[key], initiator)
		if err := p.rebuildAdminView(info); err != nil {
			return err
		}
	}
	p.registryDiscard(initiator)
	return nil
}
