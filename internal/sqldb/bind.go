package sqldb

import (
	"fmt"
	"strings"
)

// Binding: every name a statement uses is resolved once per catalog
// generation, before the statement reads a row, the way SQLite
// resolves names when it prepares a statement. The binder plans each
// select (view merging, planner.go), then copies the statement's
// expressions with every column reference replaced by a slotRef (how
// many row scopes out, which column of that row), every table and view
// name replaced by its catalog object, every "pk IN (SELECT pk FROM t)"
// replaced by t, and every IN, EXISTS and scalar subquery replaced by
// its own binding. The executor then runs the binding: no name is
// looked up while rows are read.
//
// Scopes nest exactly as at execution: a core's source row, then the
// rows of the enclosing queries, innermost first; columns are scanned
// in order and the first match wins. ORDER BY sees the output row,
// then (for a single core without DISTINCT or aggregates) the source
// row, then the outer query. A trigger body sees one row holding NEW's
// columns then OLD's. A view body and a FROM-clause subquery bind in
// their own scope only, as in SQLite: they never see the caller's row.
//
// A binding hangs off what it binds: a batch statement's off the
// compiled batch, a view body's off the view, a trigger body's off the
// trigger. Each is a memo under the catalog generation (db.gen), so
// DDL, ROLLBACK and a failed COMMIT invalidate it like any plan.
// Bindings hold catalog objects by pointer; a binding of an old
// generation keeps them reachable until its statement runs again or
// leaves the statement cache.

// bstmt is a statement bound to one catalog generation: a
// *boundSelect, *boundInsert, *boundUpdate or *boundDelete. DDL,
// transaction control and EXPLAIN run from their ASTs unbound.
type bstmt interface{ bound() }

func (*boundSelect) bound() {}
func (*boundInsert) bound() {}
func (*boundUpdate) bound() {}
func (*boundDelete) bound() {}

// slotRef is a bound column reference: the row depth scopes out from
// the innermost one, and the column's position in that row.
type slotRef struct{ depth, slot int }

// boundSub is a bound EXISTS or scalar subquery.
type boundSub struct {
	sel    *boundSelect
	exists bool // EXISTS rather than a scalar subquery
	not    bool // NOT EXISTS
}

// boundIn is a bound "x [NOT] IN (subquery)". A subquery of the shape
// "SELECT pk FROM t" (pk set), the COW views' NOT IN, is answered from
// t itself (pkProbe, pkKeySet); any other is run (sel set).
type boundIn struct {
	x   Expr
	not bool
	pk  *table
	sel *boundSelect
}

func (*slotRef) expr()  {}
func (*boundSub) expr() {}
func (*boundIn) expr()  {}

// slotRefs are the slot references every binding shares, so binding a
// column allocates nothing for the common shallow, narrow positions.
var slotRefs = func() (refs [4][32]slotRef) {
	for d := range refs {
		for s := range refs[d] {
			refs[d][s] = slotRef{depth: d, slot: s}
		}
	}
	return refs
}()

func newSlotRef(depth, slot int) *slotRef {
	if depth < len(slotRefs) && slot < len(slotRefs[0]) {
		return &slotRefs[depth][slot]
	}
	return &slotRef{depth: depth, slot: slot}
}

// boundSelect is a planned (possibly compound) select.
type boundSelect struct {
	cores      []*boundCore
	cols       []string // output column names
	order      []boundOrder
	srcOrder   bool // ORDER BY may read the single core's source row
	limit      Expr
	offset     Expr
	merged     bool // a view was merged into it (Stats.FlattenedQueries)
	correlated bool // some reference reaches a row outside it
}

// boundOrder is one ORDER BY term: an output column (ord >= 0) or an
// expression over the output row, the source row and outer rows.
type boundOrder struct {
	expr Expr
	ord  int
	desc bool
}

// outCol returns the output column the term reads, by position or by
// name, or -1 when it is any other expression.
func (o boundOrder) outCol() int {
	if ref, ok := o.expr.(*slotRef); ok && ref.depth == 0 {
		return ref.slot
	}
	return o.ord
}

// orderColumn returns the column of core bc's table that bs's ORDER BY
// reads, for the core's access path to yield (accessShape.order): a
// single term naming an output column that is a column of the table,
// or with srcOrder a table column the select list leaves out. It is -1
// for any other ORDER BY, and for a core whose rows an aggregate
// regroups.
func (bs *boundSelect) orderColumn(bc *boundCore) int {
	if len(bs.order) != 1 || bc.tbl == nil || bc.agg != nil {
		return -1
	}
	term := bs.order[0]
	if ref, ok := term.expr.(*slotRef); ok && ref.depth == 1 && bs.srcOrder {
		return ref.slot
	}
	if col := term.outCol(); col >= 0 && col < len(bc.exprs) {
		if ref, ok := bc.exprs[col].(*slotRef); ok && ref.depth == 0 {
			return ref.slot
		}
	}
	return -1
}

// boundCore is one arm of a select. A core over exactly one base table
// reads it through the access-path layer (tbl and shape); any other
// FROM clause is a list of sources joined left to right.
type boundCore struct {
	tbl      *table
	shape    accessShape
	srcs     []boundSource
	width    int // columns in a source row
	where    Expr
	exprs    []Expr // the select list, * expanded
	plain    bool   // every expr is a column of the source row
	agg      *boundAgg
	distinct bool
}

// boundSource is one FROM-clause source: a base table, a view (run
// materialized) or a subquery, with the join's ON condition.
type boundSource struct {
	tbl   *table
	view  *view
	sub   *boundSelect
	width int // columns in a row of it
	on    Expr
	left  bool // LEFT OUTER JOIN
}

// boundAgg is the grouping half of an aggregate core.
type boundAgg struct {
	groupBy []Expr
	having  Expr
	star    bool // * in an aggregate select list: an error once a group projects
}

// boundInsert is a bound INSERT into a table or, through its INSTEAD OF
// INSERT triggers, a view.
type boundInsert struct {
	tbl      *table
	view     *view
	trs      []*trigger
	replace  bool     // INSERT OR REPLACE
	cols     []int    // the target column of each value
	rows     [][]Expr // VALUES rows
	sel      *boundSelect
	defaults []Expr // per table column not given a value: its DEFAULT
}

// boundUpdate is a bound UPDATE of a table or, through its INSTEAD OF
// UPDATE triggers, a view (whose rows scan finds).
type boundUpdate struct {
	tbl   *table
	view  *view
	trs   []*trigger
	set   []int  // the column each SET assigns
	exprs []Expr // the value each SET assigns
	where Expr
	shape accessShape
	scan  *boundSelect
}

// boundDelete is a bound DELETE from a table or, through its INSTEAD OF
// DELETE triggers, a view (whose rows scan finds).
type boundDelete struct {
	tbl   *table
	view  *view
	trs   []*trigger
	where Expr
	shape accessShape
	scan  *boundSelect
}

// bound returns m's value for the current catalog generation,
// computing it with bind on a miss.
func bound[T any](ex *executor, m *memo[T], bind func(*binder) T) (T, error) {
	if v, ok := m.get(ex.db.gen); ok {
		ex.db.statPlanHit.Add(1)
		return v, nil
	}
	b := &binder{ex: ex}
	v := bind(b)
	if b.err != nil {
		var zero T
		return zero, b.err
	}
	ex.db.statPlanMiss.Add(1)
	m.put(ex.db.gen, v)
	return v, nil
}

// bindStmt returns the binding m holds for s, binding s on a miss. It
// returns nil for statements that run unbound.
func (ex *executor) bindStmt(s Stmt, m *memo[bstmt]) (bstmt, error) {
	switch s.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
		return bound(ex, m, func(b *binder) bstmt { return b.stmt(s) })
	}
	return nil, nil
}

// viewBody returns v's definition bound in its own scope.
func (ex *executor) viewBody(v *view) (*boundSelect, error) {
	return bound(ex, &v.bound, func(b *binder) *boundSelect { return b.selectStmt(v.def) })
}

// triggerBody returns tr's bound body statements (nil entries run
// unbound). The body sees one row: NEW's columns then OLD's, over the
// columns of v, the view tr is on.
func (ex *executor) triggerBody(tr *trigger, v *view) ([]bstmt, error) {
	return bound(ex, &tr.bound, func(b *binder) []bstmt {
		var frame []colBinding
		if tr.event != "DELETE" {
			frame = viewCols(v, "new")
		}
		if tr.event != "INSERT" {
			frame = append(frame, viewCols(v, "old")...)
		}
		b.push(frame)
		out := make([]bstmt, len(tr.body))
		for i, s := range tr.body {
			out[i] = b.stmt(s)
		}
		return out
	})
}

// binder resolves one statement's names. frames are the column lists
// of the rows in scope, innermost last; frames below floor are hidden
// (a view body's or FROM subquery's caller). low records the lowest
// frame any reference reached, which tells a select it is correlated.
// The first error sticks: later results are discarded with it.
type binder struct {
	ex     *executor
	frames [][]colBinding
	floor  int
	low    int
	err    error
}

func (b *binder) push(cols []colBinding) { b.frames = append(b.frames, cols) }
func (b *binder) pop()                   { b.frames = b.frames[:len(b.frames)-1] }

func (b *binder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *binder) stmt(s Stmt) bstmt {
	switch st := s.(type) {
	case *SelectStmt:
		return b.selectStmt(st)
	case *InsertStmt:
		return b.insert(st)
	case *UpdateStmt:
		return b.update(st)
	case *DeleteStmt:
		return b.delete(st)
	}
	return nil
}

// column resolves a column reference against the visible frames.
func (b *binder) column(ref *ColRef) Expr {
	top := len(b.frames) - 1
	for i := top; i >= b.floor; i-- {
		for j, c := range b.frames[i] {
			if (ref.Table == "" || strings.EqualFold(c.qual, ref.Table)) && strings.EqualFold(c.name, ref.Col) {
				b.low = min(b.low, i)
				return newSlotRef(top-i, j)
			}
		}
	}
	if ref.Table != "" {
		b.fail("sqldb: no such column: %s.%s", ref.Table, ref.Col)
	} else {
		b.fail("sqldb: no such column: %s", ref.Col)
	}
	return nil
}

// selectStmt plans sel and binds the plan in the current scope.
func (b *binder) selectStmt(sel *SelectStmt) *boundSelect {
	planned := b.ex.mergeViews(sel, nil)
	return b.planned(planned, planned != sel)
}

// planned binds an already planned select. The cores of a merged
// select hold only the view's own expressions (the planner merges only
// queries that name nothing but view columns), so they bind in the
// view's scope; LIMIT and OFFSET still bind in the caller's.
func (b *binder) planned(sel *SelectStmt, merged bool) *boundSelect {
	bs := &boundSelect{merged: merged, cores: make([]*boundCore, len(sel.Cores))}
	base, low, floor := len(b.frames), b.low, b.floor
	b.low = base
	if merged {
		b.floor = base
	}
	var src []colBinding
	for i, core := range sel.Cores {
		bc, names, cols := b.core(core)
		bs.cores[i] = bc
		if i == 0 {
			bs.cols, src = names, cols
		} else if len(names) != len(bs.cols) {
			b.fail("sqldb: SELECTs to the left and right of UNION ALL do not have the same number of result columns")
		}
	}
	b.floor = floor
	if len(sel.OrderBy) > 0 {
		first := bs.cores[0]
		bs.srcOrder = len(bs.cores) == 1 && first.agg == nil && !first.distinct
		if bs.srcOrder {
			b.push(src)
		}
		out := make([]colBinding, len(bs.cols))
		for i, name := range bs.cols {
			out[i] = colBinding{name: name}
		}
		b.push(out)
		bs.order = make([]boundOrder, len(sel.OrderBy))
		for i, term := range sel.OrderBy {
			bs.order[i] = boundOrder{ord: -1, desc: term.Desc}
			// An integer literal in range names an output column (1-based).
			if lit, ok := term.Expr.(*Lit); ok {
				if n, isInt := lit.Val.(int64); isInt && n >= 1 && int(n) <= len(bs.cols) {
					bs.order[i].ord = int(n - 1)
					continue
				}
			}
			bs.order[i].expr = b.expr(term.Expr)
		}
		b.frames = b.frames[:base]
		for _, bc := range bs.cores {
			bc.shape.order, bc.shape.desc = bs.orderColumn(bc), bs.order[0].desc
		}
	}
	bs.limit, bs.offset = b.expr(sel.Limit), b.expr(sel.Offset)
	bs.correlated = b.low < base
	b.low = min(low, b.low)
	return bs
}

// core binds one arm, returning its output column names and the
// columns of its source row.
func (b *binder) core(core *SelectCore) (*boundCore, []string, []colBinding) {
	bc := &boundCore{distinct: core.Distinct}
	var cols []colBinding
	if core.From != nil {
		src, c := b.source(*core.From)
		cols = c
		if src.tbl != nil && len(core.Joins) == 0 {
			bc.tbl = src.tbl
		} else {
			bc.srcs = append(bc.srcs, src)
		}
		for _, j := range core.Joins {
			src, c := b.source(j.Ref)
			cols = append(cols[:len(cols):len(cols)], c...)
			b.push(cols)
			src.on, src.left = b.expr(j.On), j.Left
			b.pop()
			bc.srcs = append(bc.srcs, src)
		}
	}
	bc.width = len(cols)
	b.push(cols)
	defer b.pop()
	bc.where = b.expr(core.Where)
	if bc.tbl != nil {
		bc.shape = accessShapeOf(bc.tbl, bc.where)
	}
	names := make([]string, 0, len(core.Cols))
	bc.exprs = make([]Expr, 0, len(core.Cols))
	if core.GroupBy != nil || b.ex.hasAggregate(core.Cols) {
		bc.agg = &boundAgg{having: b.expr(core.Having)}
		bc.agg.groupBy, _ = b.exprs(core.GroupBy)
		for _, rc := range core.Cols {
			names = append(names, exprName(rc))
			bc.agg.star = bc.agg.star || rc.Star || rc.TableStar != ""
			bc.exprs = append(bc.exprs, b.expr(rc.Expr))
		}
		return bc, names, cols
	}
	for _, rc := range core.Cols {
		if !rc.Star && rc.TableStar == "" {
			names = append(names, exprName(rc))
			bc.exprs = append(bc.exprs, b.expr(rc.Expr))
			continue
		}
		n := len(names)
		for i, c := range cols {
			if rc.Star || strings.EqualFold(c.qual, rc.TableStar) {
				names = append(names, c.name)
				bc.exprs = append(bc.exprs, newSlotRef(0, i))
			}
		}
		if len(names) == n && rc.TableStar != "" {
			b.fail("sqldb: no such table: %s", rc.TableStar)
		}
	}
	bc.plain = true
	for _, e := range bc.exprs {
		if ref, ok := e.(*slotRef); !ok || ref.depth != 0 {
			bc.plain = false
		}
	}
	return bc, names, cols
}

// source binds one FROM-clause table, view or subquery.
func (b *binder) source(ref TableRef) (boundSource, []colBinding) {
	if ref.Sub != nil {
		floor := b.floor
		b.floor = len(b.frames)
		sub := b.selectStmt(ref.Sub)
		b.floor = floor
		cols := make([]colBinding, len(sub.cols))
		for i, c := range sub.cols {
			cols[i] = colBinding{qual: ref.Alias, name: c}
		}
		return boundSource{sub: sub, width: len(cols)}, cols
	}
	key := strings.ToLower(ref.Name)
	if t, ok := b.ex.db.tables[key]; ok {
		return boundSource{tbl: t, width: len(t.cols)}, tableCols(t, refQual(ref))
	}
	if v, ok := b.ex.db.views[key]; ok {
		return boundSource{view: v, width: len(v.cols)}, viewCols(v, refQual(ref))
	}
	b.fail("sqldb: no such table: %s", ref.Name)
	return boundSource{}, nil
}

// refQual is the qualifier a table or view reference exposes.
func refQual(ref TableRef) string {
	if ref.Alias != "" {
		return ref.Alias
	}
	return ref.Name
}

func tableCols(t *table, qual string) []colBinding {
	out := make([]colBinding, len(t.cols))
	for i, c := range t.cols {
		out[i] = colBinding{qual: qual, name: c.Name}
	}
	return out
}

func viewCols(v *view, qual string) []colBinding {
	out := make([]colBinding, len(v.cols))
	for i, c := range v.cols {
		out[i] = colBinding{qual: qual, name: c}
	}
	return out
}

// expr binds an expression. Subtrees without column references or
// subqueries are shared with the AST, not copied.
func (b *binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case *ColRef:
		return b.column(x)
	case *Unary:
		if in := b.expr(x.X); in != x.X {
			return &Unary{Op: x.Op, X: in}
		}
	case *Binary:
		if l, r := b.expr(x.L), b.expr(x.R); l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
	case *InExpr:
		in := b.expr(x.X)
		if x.Sub != nil {
			if t := b.pkTable(x.Sub); t != nil {
				return &boundIn{x: in, not: x.Not, pk: t}
			}
			return &boundIn{x: in, not: x.Not, sel: b.selectStmt(x.Sub)}
		}
		if list, changed := b.exprs(x.List); changed || in != x.X {
			return &InExpr{X: in, Not: x.Not, List: list}
		}
	case *IsNull:
		if in := b.expr(x.X); in != x.X {
			return &IsNull{X: in, Not: x.Not}
		}
	case *Between:
		if in, lo, hi := b.expr(x.X), b.expr(x.Lo), b.expr(x.Hi); in != x.X || lo != x.Lo || hi != x.Hi {
			return &Between{X: in, Not: x.Not, Lo: lo, Hi: hi}
		}
	case *Call:
		if args, changed := b.exprs(x.Args); changed {
			return &Call{Name: x.Name, Star: x.Star, Args: args}
		}
	case *SubqueryExpr:
		return &boundSub{sel: b.selectStmt(x.Select)}
	case *ExistsExpr:
		return &boundSub{sel: b.selectStmt(x.Select), exists: true, not: x.Not}
	case *CaseExpr:
		out := &CaseExpr{Operand: b.expr(x.Operand), Else: b.expr(x.Else)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, struct{ Cond, Result Expr }{b.expr(w.Cond), b.expr(w.Result)})
		}
		return out
	}
	return e
}

// exprs binds a list, reporting whether any element changed; an
// unchanged list comes back as is.
func (b *binder) exprs(list []Expr) ([]Expr, bool) {
	out := make([]Expr, len(list))
	changed := false
	for i, e := range list {
		out[i] = b.expr(e)
		changed = changed || out[i] != e
	}
	if !changed {
		return list, false
	}
	return out, true
}

// pkTable recognizes "SELECT pk FROM t" over a base table t with an
// integer primary key pk, which IN answers from t.byPK.
func (b *binder) pkTable(sel *SelectStmt) *table {
	if len(sel.Cores) != 1 || sel.OrderBy != nil || sel.Limit != nil || sel.Offset != nil {
		return nil
	}
	core := sel.Cores[0]
	if core.From == nil || core.From.Sub != nil || len(core.Joins) > 0 || core.Where != nil ||
		core.GroupBy != nil || core.Having != nil || core.Distinct || len(core.Cols) != 1 {
		return nil
	}
	ref, ok := core.Cols[0].Expr.(*ColRef)
	if !ok || (ref.Table != "" && !strings.EqualFold(ref.Table, refQual(*core.From))) {
		return nil
	}
	t, ok := b.ex.db.tables[strings.ToLower(core.From.Name)]
	if !ok || t.pk < 0 || !strings.EqualFold(ref.Col, t.cols[t.pk].Name) {
		return nil
	}
	return t
}

// target resolves the table or view an INSERT, UPDATE or DELETE
// writes, with the view's INSTEAD OF triggers for event, and the
// columns of the row a SET or a column list names.
func (b *binder) target(name, event string) (*table, *view, []*trigger, []colBinding) {
	key := strings.ToLower(name)
	if t, ok := b.ex.db.tables[key]; ok {
		return t, nil, nil, tableCols(t, t.name)
	}
	v, ok := b.ex.db.views[key]
	if !ok {
		b.fail("sqldb: no such table: %s", name)
		return nil, nil, nil, nil
	}
	var trs []*trigger
	for _, tr := range b.ex.db.triggers[key] {
		if tr.event == event {
			trs = append(trs, tr)
		}
	}
	return nil, v, trs, viewCols(v, v.name)
}

// targetColumn finds a named column of the written table or view.
func (b *binder) targetColumn(t *table, v *view, row []colBinding, name string) int {
	for i, c := range row {
		if strings.EqualFold(c.name, name) {
			return i
		}
	}
	if t != nil {
		b.fail("sqldb: table %s has no column %s", t.name, name)
	} else {
		b.fail("sqldb: view %s has no column %s", v.name, name)
	}
	return 0
}

func (b *binder) insert(st *InsertStmt) bstmt {
	t, v, trs, row := b.target(st.Table, "INSERT")
	bi := &boundInsert{tbl: t, view: v, trs: trs, replace: st.OrReplace, rows: make([][]Expr, len(st.Rows))}
	if b.err != nil {
		return nil
	}
	if st.Select != nil {
		bi.sel = b.selectStmt(st.Select)
	}
	for i, r := range st.Rows {
		bi.rows[i], _ = b.exprs(r)
	}
	if len(st.Cols) == 0 {
		bi.cols = make([]int, len(row))
		for i := range row {
			bi.cols[i] = i
		}
	}
	for _, c := range st.Cols {
		bi.cols = append(bi.cols, b.targetColumn(t, v, row, c))
	}
	if t == nil {
		return bi
	}
	// Defaults, for the columns given no value, run with no row in scope.
	given := make([]bool, len(t.cols))
	for _, ci := range bi.cols {
		given[ci] = true
	}
	own := &binder{ex: b.ex}
	for i, c := range t.cols {
		if !given[i] && c.Default != nil {
			if bi.defaults == nil {
				bi.defaults = make([]Expr, len(t.cols))
			}
			bi.defaults[i] = own.expr(c.Default)
		}
	}
	if own.err != nil {
		b.fail("%w", own.err)
	}
	return bi
}

func (b *binder) update(st *UpdateStmt) bstmt {
	t, v, trs, row := b.target(st.Table, "UPDATE")
	if b.err != nil {
		return nil
	}
	bu := &boundUpdate{tbl: t, view: v, trs: trs, set: make([]int, len(st.Set)), exprs: make([]Expr, len(st.Set))}
	if v != nil {
		// The view's rows come from a scan of it under the WHERE; SET
		// then reads each scanned row.
		bu.scan = b.selectStmt(viewScan(v, st.Where))
	}
	b.push(row)
	defer b.pop()
	for i, a := range st.Set {
		bu.set[i] = b.targetColumn(t, v, row, a.Col)
		bu.exprs[i] = b.expr(a.Expr)
	}
	if t != nil {
		bu.where = b.expr(st.Where)
		bu.shape = accessShapeOf(t, bu.where)
	}
	return bu
}

func (b *binder) delete(st *DeleteStmt) bstmt {
	t, v, trs, row := b.target(st.Table, "DELETE")
	if b.err != nil {
		return nil
	}
	bd := &boundDelete{tbl: t, view: v, trs: trs}
	if v != nil {
		bd.scan = b.selectStmt(viewScan(v, st.Where))
		return bd
	}
	b.push(row)
	defer b.pop()
	bd.where = b.expr(st.Where)
	bd.shape = accessShapeOf(t, bd.where)
	return bd
}

// viewScan is the SELECT * FROM <view> WHERE … that finds an UPDATE's
// or DELETE's target rows on view v; planning merges the view into it
// instead of materializing it.
func viewScan(v *view, where Expr) *SelectStmt {
	return &SelectStmt{Cores: []*SelectCore{{
		Cols:  []ResultCol{{Star: true}},
		From:  &TableRef{Name: v.name},
		Where: where,
	}}}
}

func indexOfFold(list []string, s string) int {
	for i, x := range list {
		if strings.EqualFold(x, s) {
			return i
		}
	}
	return -1
}
