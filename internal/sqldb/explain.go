package sqldb

import (
	"fmt"
	"strings"
)

// EXPLAIN runs the planner only: the target statement is planned (view
// merging included), each table reference's access path is chosen,
// and the choices are reported without executing the statement. Output
// mirrors SQLite's EXPLAIN QUERY PLAN: one row per table touched, with
// a human-readable detail string.

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
		return ex.explainWrite(st.Table, "UPDATE", st.Where, &st.scan, out)
	case *DeleteStmt:
		return ex.explainWrite(st.Table, "DELETE", st.Where, &st.scan, out)
	case *ExplainStmt:
		return ex.explainStmt(st.Target, out)
	default:
		out.Data = append(out.Data, []Value{"", fmt.Sprintf("%T", s)})
		return nil
	}
}

// explainWrite reports the access path an UPDATE or DELETE would use to
// find its target rows; on a view it reports the trigger redirection.
func (ex *executor) explainWrite(target, verb string, where Expr, scan *memo[*SelectStmt], out *Rows) error {
	key := strings.ToLower(target)
	if t, ok := ex.db.tables[key]; ok {
		ap := ex.chooseAccess(t, t.name, where)
		out.Data = append(out.Data, []Value{t.name, verb + " " + ap.describe()})
		return nil
	}
	if v, ok := ex.db.views[key]; ok {
		out.Data = append(out.Data, []Value{v.name, fmt.Sprintf("%s VIEW %s VIA INSTEAD OF TRIGGERS", verb, v.name)})
		// The row lookup on the view is the executor's own view scan.
		return ex.explainSelect(ex.viewScan(scan, v, where), out)
	}
	return fmt.Errorf("sqldb: no such table: %s", target)
}

// explainSelect plans a select (applying the same view merging the
// executor uses), names each merged view, and reports each core's
// access path.
func (ex *executor) explainSelect(sel *SelectStmt, out *Rows) error {
	planned := ex.mergeViews(sel, func(v *view, cores int) {
		detail := "MERGE VIEW " + v.name
		if cores > 1 {
			detail = fmt.Sprintf("FLATTEN UNION ALL VIEW %s INTO %d ARMS", v.name, cores)
		}
		out.Data = append(out.Data, []Value{v.name, detail})
	})
	for _, core := range planned.Cores {
		if err := ex.explainCore(core, out); err != nil {
			return err
		}
	}
	return nil
}

func (ex *executor) explainCore(core *SelectCore, out *Rows) error {
	if core.From == nil {
		out.Data = append(out.Data, []Value{"", "NO TABLE (constant select)"})
		return nil
	}
	refs := []TableRef{*core.From}
	for _, j := range core.Joins {
		refs = append(refs, j.Ref)
	}
	// Only a single-table FROM consults the access-path layer today
	// (matching buildFrom); join sources and subqueries scan.
	single := core.From.Sub == nil && len(core.Joins) == 0
	for i, ref := range refs {
		switch {
		case ref.Sub != nil:
			out.Data = append(out.Data, []Value{ref.Alias, "SCAN SUBQUERY"})
			if err := ex.explainSelect(ref.Sub, out); err != nil {
				return err
			}
		default:
			key := strings.ToLower(ref.Name)
			if t, ok := ex.db.tables[key]; ok {
				alias := ref.Alias
				if alias == "" {
					alias = ref.Name
				}
				if single && i == 0 {
					ap := ex.chooseAccess(t, alias, core.Where)
					out.Data = append(out.Data, []Value{t.name, ap.describe()})
				} else {
					out.Data = append(out.Data, []Value{t.name, fmt.Sprintf("SCAN %s (~%d rows)", t.name, len(t.rows))})
				}
				continue
			}
			if v, ok := ex.db.views[key]; ok {
				out.Data = append(out.Data, []Value{v.name, "MATERIALIZE VIEW " + v.name})
				if err := ex.explainSelect(v.def, out); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("sqldb: no such table: %s", ref.Name)
		}
	}
	return nil
}
