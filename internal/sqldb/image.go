package sqldb

import (
	"errors"
	"maps"
	"slices"
	"strings"
)

// Checkpoint images. A durability layer checkpoints a database in
// three steps. Freeze holds every writer off while readers keep
// running; Image copies what writers change in place — row values,
// each table's index list, the ID allocators — and keeps the catalog
// objects (column definitions, index definitions, views, triggers) by
// pointer, because DDL replaces those objects and never mutates them;
// Thaw lets the writers resume. Units then formats the image as
// replayable journal units with the writers running, so the freeze
// costs them a copy, not the SQL formatting.

// ErrTxnOpen reports a Freeze refused because a transaction is open:
// its uncommitted effects are not a state any replay reproduces.
var ErrTxnOpen = errors.New("sqldb: transaction open")

// Freeze holds off every mutating batch until Thaw; queries keep
// running. It takes the catalog lock shared, then every table lock
// shared in sorted-name order, the order batches take them in. No
// transaction can begin while frozen (BEGIN needs the catalog lock
// exclusively); when one is already open, Freeze holds nothing and
// returns ErrTxnOpen.
func (db *DB) Freeze() error {
	db.mu.RLock()
	if db.txn != nil {
		db.mu.RUnlock()
		return ErrTxnOpen
	}
	names := make([]string, 0, len(db.tables))
	for k := range db.tables {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		db.tables[k].mu.RLock()
	}
	return nil
}

// Thaw ends a Freeze.
func (db *DB) Thaw() {
	for _, t := range db.tables {
		t.mu.RUnlock()
	}
	db.mu.RUnlock()
}

// Image is a copy of one frozen database, encoded by Units.
type Image struct {
	tables   []tableImage
	views    map[string]*view    // keyed by lowercase name
	triggers map[string]*trigger // keyed by lowercase name
	lastID   int64
}

// tableImage is one table of an Image.
type tableImage struct {
	key     string // lowercase name, the catalog key
	name    string
	cols    []ColumnDef
	indexes []*index // copied: DROP INDEX shifts the table's slice in place
	rows    int
	vals    []Value // row values in storage order, len(cols) per row
	nextID  int64
}

// Image copies the frozen database; the caller holds Freeze. Each
// table's row values go into one fresh array, since UPDATE mutates
// rows in place.
func (db *DB) Image() *Image {
	im := &Image{
		tables:   make([]tableImage, 0, len(db.tables)),
		views:    maps.Clone(db.views),
		triggers: maps.Clone(db.byName),
		lastID:   db.lastID.Load(),
	}
	for k, t := range db.tables {
		vals := make([]Value, 0, len(t.rows)*len(t.cols))
		for _, r := range t.rows {
			vals = append(vals, r...)
		}
		im.tables = append(im.tables, tableImage{
			key:     k,
			name:    t.name,
			cols:    t.cols,
			indexes: slices.Clone(t.indexes),
			rows:    len(t.rows),
			vals:    vals,
			nextID:  t.nextID,
		})
	}
	return im
}

// Counters returns the image's ID allocators: the state row replay
// cannot rebuild, since deleted rows leave high-water marks behind.
func (im *Image) Counters() Counters {
	cs := Counters{LastInsertID: im.lastID, NextIDs: make(map[string]int64, len(im.tables))}
	for _, ti := range im.tables {
		cs.NextIDs[ti.key] = ti.nextID
	}
	return cs
}

// insertChunk is the most rows one INSERT unit of Units carries.
const insertChunk = 128

// Units emits the image as replayable journal units. Schema first
// (tables with their indexes, views in dependency order, triggers),
// then every table's rows as chunked parameterized INSERTs in storage
// order — literals cannot represent blobs, parameters carry every
// value type exactly — so replaying the units into an empty database
// reproduces catalog and storage. A unit's Args alias the image.
func (im *Image) Units(emit func(u JournalUnit) error) error {
	slices.SortFunc(im.tables, func(a, b tableImage) int { return strings.Compare(a.key, b.key) })
	emitSQL := func(sql string) error { return emit(JournalUnit{SQL: sql, N: 1}) }

	for i := range im.tables {
		ti := &im.tables[i]
		if err := emitSQL(formatCreateTable(ti.name, ti.cols)); err != nil {
			return err
		}
		slices.SortFunc(ti.indexes, func(a, b *index) int { return strings.Compare(a.name, b.name) })
		for _, ix := range ti.indexes {
			if err := emitSQL(formatCreateIndex(ix)); err != nil {
				return err
			}
		}
	}

	if err := im.viewUnits(emitSQL); err != nil {
		return err
	}

	trNames := make([]string, 0, len(im.triggers))
	for k := range im.triggers {
		trNames = append(trNames, k)
	}
	slices.Sort(trNames)
	for _, k := range trNames {
		tr := im.triggers[k]
		if err := emitSQL(formatCreateTrigger(tr.name, tr.event, tr.view, tr.body)); err != nil {
			return err
		}
	}

	for i := range im.tables {
		if err := im.tables[i].rowUnits(emit); err != nil {
			return err
		}
	}
	return nil
}

// viewUnits emits the views, each after the views it selects from.
func (im *Image) viewUnits(emitSQL func(string) error) error {
	viewNames := make([]string, 0, len(im.views))
	for k := range im.views {
		viewNames = append(viewNames, k)
	}
	slices.Sort(viewNames)
	emitted := make(map[string]bool, len(viewNames))
	var emitView func(k string) error
	emitView = func(k string) error {
		if emitted[k] {
			return nil
		}
		emitted[k] = true
		v := im.views[k]
		// Dependencies first. The walk is read-only: v.def is shared
		// with queries planning and executing concurrently.
		var depErr error
		walkSelectRefs(v.def, func(ref *TableRef) {
			lk := strings.ToLower(ref.Name)
			if _, ok := im.views[lk]; ok && lk != k && depErr == nil {
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

// rowUnits emits the table's rows as INSERTs of up to insertChunk
// rows. Every full chunk shares one statement text.
func (ti *tableImage) rowUnits(emit func(u JournalUnit) error) error {
	if ti.rows == 0 {
		return nil
	}
	var head strings.Builder
	head.WriteString("INSERT INTO " + quoteIdent(ti.name) + " (")
	for i, c := range ti.cols {
		if i > 0 {
			head.WriteString(", ")
		}
		head.WriteString(quoteIdent(c.Name))
	}
	head.WriteString(") VALUES ")
	oneRow := "(" + strings.Repeat("?, ", len(ti.cols)-1) + "?)"
	text := func(rows int) string {
		var b strings.Builder
		b.Grow(head.Len() + rows*(len(oneRow)+2))
		b.WriteString(head.String())
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(oneRow)
		}
		return b.String()
	}

	n := len(ti.cols)
	var full string
	for start := 0; start < ti.rows; start += insertChunk {
		end := min(start+insertChunk, ti.rows)
		sql := full
		if end-start < insertChunk {
			sql = text(end - start)
		} else if full == "" {
			full = text(insertChunk)
			sql = full
		}
		if err := emit(JournalUnit{SQL: sql, Args: ti.vals[start*n : end*n : end*n], N: 1}); err != nil {
			return err
		}
	}
	return nil
}
