package sqldb

import "fmt"

// EXPLAIN runs the planner only: the target statement is planned (view
// merging included), each table reference's access path is chosen,
// and the choices are reported without executing the statement. Output
// mirrors SQLite's EXPLAIN QUERY PLAN: one row per table touched, with
// a human-readable detail string, and for a select with an ORDER BY a
// last row saying how the order is served: "ORDER BY: PLAN ORDER" (the
// one arm's access path yields it), "ORDER BY: MERGE n ARMS" (every
// arm's does, and the arms are merged) or "ORDER BY: SORT".

// explainColumns is the fixed output shape of EXPLAIN.
var explainColumns = []string{"table", "detail"}

func (ex *executor) execExplain(st *ExplainStmt) (*Rows, error) {
	out := &Rows{Columns: explainColumns}
	if err := ex.explainStmt(st.Target, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (ex *executor) explainStmt(s Stmt, out *Rows) error {
	switch st := s.(type) {
	case *SelectStmt:
		return ex.explainSelect(st, out)
	case *InsertStmt:
		out.Data = append(out.Data, []Value{st.Table, "INSERT INTO " + st.Table})
		if st.Select != nil {
			return ex.explainSelect(st.Select, out)
		}
		return nil
	case *UpdateStmt:
		return ex.explainWrite(st, "UPDATE", st.Where, out)
	case *DeleteStmt:
		return ex.explainWrite(st, "DELETE", st.Where, out)
	case *ExplainStmt:
		return ex.explainStmt(st.Target, out)
	default:
		out.Data = append(out.Data, []Value{"", fmt.Sprintf("%T", s)})
		return nil
	}
}

// explainWrite reports the access path an UPDATE or DELETE would use to
// find its target rows; on a view it reports the trigger redirection.
func (ex *executor) explainWrite(s Stmt, verb string, where Expr, out *Rows) error {
	bind := &binder{ex: ex}
	b := bind.stmt(s)
	if bind.err != nil {
		return bind.err
	}
	var t *table
	var v *view
	var shape *accessShape
	switch x := b.(type) {
	case *boundUpdate:
		t, v, shape = x.tbl, x.view, &x.shape
	case *boundDelete:
		t, v, shape = x.tbl, x.view, &x.shape
	}
	if t != nil {
		ap := ex.chooseAccess(t, shape)
		out.Data = append(out.Data, []Value{t.name, verb + " " + ap.describe()})
		return nil
	}
	out.Data = append(out.Data, []Value{v.name, fmt.Sprintf("%s VIEW %s VIA INSTEAD OF TRIGGERS", verb, v.name)})
	// The row lookup on the view is the executor's own view scan.
	return ex.explainSelect(viewScan(v, where), out)
}

// explainSelect plans a select (applying the same view merging the
// executor uses), names each merged view, binds the plan and reports
// each core's access path.
func (ex *executor) explainSelect(sel *SelectStmt, out *Rows) error {
	planned := ex.mergeViews(sel, func(v *view, cores int) {
		detail := "MERGE VIEW " + v.name
		if cores > 1 {
			detail = fmt.Sprintf("FLATTEN UNION ALL VIEW %s INTO %d ARMS", v.name, cores)
		}
		out.Data = append(out.Data, []Value{v.name, detail})
	})
	bind := &binder{ex: ex}
	bound := bind.planned(planned, planned != sel)
	if bind.err != nil {
		return bind.err
	}
	ordered := true
	for i, core := range planned.Cores {
		inOrder, err := ex.explainCore(core, bound.cores[i], out)
		if err != nil {
			return err
		}
		ordered = ordered && inOrder
	}
	if len(bound.order) > 0 {
		detail := "ORDER BY: SORT"
		switch n := len(bound.cores); {
		case ordered && n == 1:
			detail = "ORDER BY: PLAN ORDER"
		case ordered:
			detail = fmt.Sprintf("ORDER BY: MERGE %d ARMS", n)
		}
		out.Data = append(out.Data, []Value{"", detail})
	}
	return nil
}

// explainCore reports one core's sources, and whether its rows come in
// the order of the select's ORDER BY (as execCore decides). Only a
// single-table FROM consults the access-path layer (matching
// buildFrom); join sources and subqueries scan.
func (ex *executor) explainCore(core *SelectCore, bc *boundCore, out *Rows) (bool, error) {
	if core.From == nil {
		out.Data = append(out.Data, []Value{"", "NO TABLE (constant select)"})
		return false, nil
	}
	if t := bc.tbl; t != nil {
		ap := ex.chooseAccess(t, &bc.shape)
		out.Data = append(out.Data, []Value{t.name, ap.describe()})
		return ap.ordered && bc.agg == nil, nil
	}
	refs := []TableRef{*core.From}
	for _, j := range core.Joins {
		refs = append(refs, j.Ref)
	}
	for i, ref := range refs {
		switch src := bc.srcs[i]; {
		case src.sub != nil:
			out.Data = append(out.Data, []Value{ref.Alias, "SCAN SUBQUERY"})
			if err := ex.explainSelect(ref.Sub, out); err != nil {
				return false, err
			}
		case src.tbl != nil:
			out.Data = append(out.Data, []Value{src.tbl.name, fmt.Sprintf("SCAN %s (~%d rows)", src.tbl.name, len(src.tbl.rows))})
		default:
			out.Data = append(out.Data, []Value{src.view.name, "MATERIALIZE VIEW " + src.view.name})
			if err := ex.explainSelect(src.view.def, out); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}
