// Durable COW registry: the proxy's in-memory deltas/cowViews maps
// record which per-initiator machinery exists, but after a crash the
// maps are gone while the replayed database still contains the delta
// tables, COW views, and triggers. The _cow_registry table makes the
// maps reconstructible: every successful synthesis appends a row (and
// every discard removes them) through the same journaled Exec path as
// the DDL itself, so the registry and the machinery it describes are
// recovered from the same WAL prefix. AdoptRecovered rebuilds the maps
// from the registry and repairs the one window the prefix leaves open:
// a crash after the DDL but before the registry insert leaves orphan
// machinery the registry does not know about, which adoption drops
// (synthesis is all-or-nothing, and an unregistered synthesis never
// acked).
package cowproxy

import (
	"sort"
	"strings"

	"maxoid/internal/fault"
)

// registryTable holds one row per synthesized COW object set.
const registryTable = "_cow_registry"

// Registry kinds: a "delta" row covers the delta table, the table COW
// view, and its triggers (created as one unit); a "view" row covers a
// user-view COW view.
const (
	registryKindDelta = "delta"
	registryKindView  = "view"
)

// ensureRegistry creates the registry table on first use. The caller
// must hold p.mu.
func (p *Proxy) ensureRegistry() error {
	if p.haveRegistry {
		return nil
	}
	_, err := p.db.Exec("CREATE TABLE IF NOT EXISTS " + registryTable +
		" (_id INTEGER PRIMARY KEY, base TEXT NOT NULL, initiator TEXT NOT NULL, kind TEXT NOT NULL)")
	if err == nil {
		p.haveRegistry = true
	}
	return err
}

// registryAdd records a synthesized object set. The initiator is kept
// raw (sanitize is lossy), so adoption restores the exact map keys.
func (p *Proxy) registryAdd(base, initiator, kind string) error {
	if err := p.ensureRegistry(); err != nil {
		return err
	}
	_, err := p.db.Exec("INSERT INTO "+registryTable+" (base, initiator, kind) VALUES (?, ?, ?)",
		base, initiator, kind)
	return err
}

// registryRemove deletes the row for one object set, if any.
func (p *Proxy) registryRemove(base, initiator, kind string) {
	if !p.haveRegistry && !p.db.HasTable(registryTable) {
		return
	}
	p.haveRegistry = true
	_, _ = p.db.Exec("DELETE FROM "+registryTable+" WHERE base = ? AND initiator = ? AND kind = ?",
		base, initiator, kind)
}

// registryDiscard deletes all of an initiator's rows.
func (p *Proxy) registryDiscard(initiator string) {
	if !p.haveRegistry && !p.db.HasTable(registryTable) {
		return
	}
	p.haveRegistry = true
	_, _ = p.db.Exec("DELETE FROM "+registryTable+" WHERE initiator = ?", initiator)
}

// AdoptRecovered rebuilds the proxy's in-memory machinery maps from the
// durable registry after a crash-recovery reopen. Call it after the
// provider has re-registered its tables and views (RegisterTable /
// RegisterUserView are idempotent against a replayed schema).
//
// Adoption also repairs the two inconsistencies a crash can leave:
// orphan delta tables or COW views whose synthesis never reached its
// registry insert are dropped, and every admin view is rebuilt so its
// arms match the adopted delta set exactly.
func (p *Proxy) AdoptRecovered() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Any memo may name machinery the repair below drops.
	for _, c := range p.conns {
		c.forget()
	}
	if !p.db.HasTable(registryTable) {
		return nil
	}
	p.haveRegistry = true
	rows, err := p.db.Query("SELECT base, initiator, kind FROM " + registryTable + " ORDER BY _id")
	if err != nil {
		return err
	}
	for _, row := range rows.Data {
		base, _ := row[0].(string)
		initiator, _ := row[1].(string)
		kind, _ := row[2].(string)
		key := strings.ToLower(base)
		switch kind {
		case registryKindDelta:
			if p.deltas[key] == nil {
				p.deltas[key] = make(map[string]bool)
			}
			p.deltas[key][initiator] = true
			if p.cowViews[key] == nil {
				p.cowViews[key] = make(map[string]bool)
			}
			p.cowViews[key][initiator] = true
		case registryKindView:
			if p.cowViews[key] == nil {
				p.cowViews[key] = make(map[string]bool)
			}
			p.cowViews[key][initiator] = true
		}
	}
	return p.repairRecovered()
}

// repairRecovered drops machinery the registry does not account for and
// rebuilds the admin views. Repair is recovery cleanup, not workload:
// it must not be re-injected. The caller must hold p.mu.
func (p *Proxy) repairRecovered() error {
	fault.Suspend()
	defer fault.Resume()

	// Names adoption expects to exist, lowercased.
	expectTables := map[string]bool{}
	expectViews := map[string]bool{}
	for key, m := range p.deltas {
		info, ok := p.primaries[key]
		if !ok {
			continue
		}
		for init := range m {
			expectTables[strings.ToLower(DeltaTableName(info.name, init))] = true
			expectViews[strings.ToLower(COWViewName(info.name, init))] = true
		}
	}
	for key, m := range p.cowViews {
		uv, ok := p.userViews[key]
		if !ok {
			continue
		}
		for init := range m {
			expectViews[strings.ToLower(COWViewName(uv.name, init))] = true
		}
	}

	// Orphan COW views first (they may read orphan delta tables).
	// DROP VIEW removes the view's triggers with it.
	for _, name := range p.db.ViewNames() {
		if !p.orphanCOWView(name, expectViews) {
			continue
		}
		if _, err := p.db.Exec("DROP VIEW IF EXISTS " + name); err != nil {
			return err
		}
	}
	for _, name := range p.db.TableNames() {
		if !p.orphanDeltaTable(name, expectTables) {
			continue
		}
		if _, err := p.db.Exec("DROP TABLE IF EXISTS " + name); err != nil {
			return err
		}
	}

	keys := make([]string, 0, len(p.primaries))
	for key := range p.primaries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := p.rebuildAdminView(p.primaries[key]); err != nil {
			return err
		}
	}
	return nil
}

// orphanDeltaTable reports whether name is a delta table of a
// registered primary that the registry does not list.
func (p *Proxy) orphanDeltaTable(name string, expect map[string]bool) bool {
	low := strings.ToLower(name)
	if expect[low] {
		return false
	}
	for key := range p.primaries {
		if strings.HasPrefix(low, key+"_delta_") {
			return true
		}
	}
	return false
}

// orphanCOWView reports whether name is a COW view of a registered base
// (primary table or user view) that the registry does not list.
func (p *Proxy) orphanCOWView(name string, expect map[string]bool) bool {
	low := strings.ToLower(name)
	if expect[low] {
		return false
	}
	for key := range p.primaries {
		if strings.HasPrefix(low, key+"_view_") {
			return true
		}
	}
	for key := range p.userViews {
		if strings.HasPrefix(low, key+"_view_") {
			return true
		}
	}
	return false
}
