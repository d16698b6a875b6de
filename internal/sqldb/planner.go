package sqldb

import (
	"strings"
)

// plan merges views into the queries that read them, mirroring the
// SQLite query planner behavior the paper's COW proxy depends on (§5.2
// and footnote 5):
//
//   - A simple SELECT over a view is rewritten to read the view's
//     sources: the outer WHERE is pushed into the view's core, or into
//     each arm of a UNION ALL view, so the query never materializes the
//     view. Merging repeats until no view is left to merge, so a user
//     view over a COW view (images_view_A over files_view_A) becomes
//     the COW view's two arms over base tables.
//   - As in SQLite 3.8.6, if the outer query has an ORDER BY clause,
//     merging is only performed when the query selects "*" or the
//     ORDER BY columns are a subset of the selected columns. Otherwise
//     the view is materialized (the slow path the proxy works around by
//     adding ORDER BY columns to the query columns).
//   - Every column the outer query names must be an output column of
//     the view. A merged query would resolve any other name against the
//     view's sources, exposing columns the view hides; materializing
//     reports "no such column" instead. So a merged core holds only the
//     view's own expressions, and binds in the view's scope (bind.go).
//
// The binder plans every select it binds; EXPLAIN plans again to name
// the merges.
// mergeViews merges views into sel until none is left to merge,
// calling step (when non-nil) with each merged view and the number of
// cores the merge produced. A chain of merges names each view at most
// once, so the bound only matters for a catalog with a view cycle.
func (ex *executor) mergeViews(sel *SelectStmt, step func(v *view, cores int)) *SelectStmt {
	for range len(ex.db.views) {
		next, v := ex.mergeView(sel)
		if next == nil {
			break
		}
		if step != nil {
			step(v, len(next.Cores))
		}
		sel = next
	}
	return sel
}

// mergeView merges the view a single-core select reads from, returning
// the rewritten select and the merged view, or nil when the select
// must run as written.
func (ex *executor) mergeView(sel *SelectStmt) (*SelectStmt, *view) {
	if len(sel.Cores) != 1 {
		return nil, nil
	}
	core := sel.Cores[0]
	if core.From == nil || core.From.Name == "" || core.From.Sub != nil {
		return nil, nil
	}
	if len(core.Joins) > 0 || core.GroupBy != nil || core.Distinct || ex.hasAggregate(core.Cols) {
		return nil, nil
	}
	v, ok := ex.db.views[strings.ToLower(core.From.Name)]
	if !ok || !ex.mergeable(v) {
		return nil, nil
	}

	quals := viewQualifiers(core, v)

	// The 3.8.6 ORDER BY restriction.
	if len(sel.OrderBy) > 0 && !orderByFlattenable(sel, core, v, quals) {
		return nil, nil
	}

	// Output projection column names for the rewritten arms.
	outNames := outputNames(core, v)

	// The column guard: the outer query may name only view columns. A
	// star beside other columns is left to the materialized path too.
	// Without a star, orderByFlattenable has already held ORDER BY to
	// the query's own output columns.
	if !viewColsOnly(core.Where, quals, v.cols) {
		return nil, nil
	}
	if isStarOnly(core.Cols) {
		for _, term := range sel.OrderBy {
			if !viewColsOnly(term.Expr, quals, v.cols) {
				return nil, nil
			}
		}
	} else {
		for _, rc := range core.Cols {
			if rc.Star || rc.TableStar != "" || !viewColsOnly(rc.Expr, quals, v.cols) {
				return nil, nil
			}
		}
	}

	newSel := &SelectStmt{
		OrderBy: stripOrderQualifiers(sel.OrderBy, quals),
		Limit:   sel.Limit,
		Offset:  sel.Offset,
	}
	for _, arm := range v.def.Cores {
		subst := make(map[string]Expr, len(v.cols))
		for i, name := range v.cols {
			subst[strings.ToLower(name)] = arm.Cols[i].Expr
		}
		newCore := &SelectCore{
			From:  arm.From,
			Joins: arm.Joins,
		}
		// Push the outer WHERE into the arm, AND-ed with the arm's own.
		where := arm.Where
		if core.Where != nil {
			pushed := substExpr(core.Where, quals, subst)
			if where == nil {
				where = pushed
			} else {
				where = &Binary{Op: "AND", L: where, R: pushed}
			}
		}
		newCore.Where = where
		// Outer projection, rewritten in terms of the arm's expressions.
		if isStarOnly(core.Cols) {
			for i, name := range v.cols {
				newCore.Cols = append(newCore.Cols, ResultCol{Expr: arm.Cols[i].Expr, Alias: name})
			}
		} else {
			for ci, rc := range core.Cols {
				newCore.Cols = append(newCore.Cols, ResultCol{
					Expr:  substExpr(rc.Expr, quals, subst),
					Alias: outNames[ci],
				})
			}
		}
		newSel.Cores = append(newSel.Cores, newCore)
	}
	return newSel, v
}

// mergeable reports whether a view's definition can be merged into a
// query over it: distinct column names, no ORDER BY or LIMIT, and every
// core an explicit (non-star) projection matching the view's column
// list, without DISTINCT, grouping or aggregates. The COW proxy's views
// and the providers' user views all have this shape.
func (ex *executor) mergeable(v *view) bool {
	if len(v.def.OrderBy) > 0 || v.def.Limit != nil {
		return false
	}
	for i, name := range v.cols {
		if indexOfFold(v.cols[:i], name) >= 0 {
			return false // a reference to it names the first; subst would take the last
		}
	}
	for _, arm := range v.def.Cores {
		if len(arm.Cols) != len(v.cols) {
			return false
		}
		for _, rc := range arm.Cols {
			if rc.Star || rc.TableStar != "" {
				return false
			}
		}
		if arm.Distinct || arm.GroupBy != nil || ex.hasAggregate(arm.Cols) {
			return false
		}
	}
	return true
}

// viewColsOnly reports whether every column reference in e is one of
// names, unqualified or qualified by one of quals. Subqueries fail the
// check: a reference inside one may bind to the view's row from a scope
// the merge does not rewrite.
func viewColsOnly(e Expr, quals, names []string) bool {
	switch x := e.(type) {
	case nil, *Lit, *Param:
		return true
	case *ColRef:
		return (x.Table == "" || containsFold(quals, x.Table)) && containsFold(names, x.Col)
	case *Unary:
		return viewColsOnly(x.X, quals, names)
	case *Binary:
		return viewColsOnly(x.L, quals, names) && viewColsOnly(x.R, quals, names)
	case *InExpr:
		if x.Sub != nil || !viewColsOnly(x.X, quals, names) {
			return false
		}
		for _, le := range x.List {
			if !viewColsOnly(le, quals, names) {
				return false
			}
		}
		return true
	case *IsNull:
		return viewColsOnly(x.X, quals, names)
	case *Between:
		return viewColsOnly(x.X, quals, names) && viewColsOnly(x.Lo, quals, names) && viewColsOnly(x.Hi, quals, names)
	case *Call:
		for _, a := range x.Args {
			if !viewColsOnly(a, quals, names) {
				return false
			}
		}
		return true
	case *CaseExpr:
		if !viewColsOnly(x.Operand, quals, names) || !viewColsOnly(x.Else, quals, names) {
			return false
		}
		for _, w := range x.Whens {
			if !viewColsOnly(w.Cond, quals, names) || !viewColsOnly(w.Result, quals, names) {
				return false
			}
		}
		return true
	}
	return false // subqueries
}

// viewQualifiers returns the qualifiers that refer to the view in the
// outer query (its name and alias).
func viewQualifiers(core *SelectCore, v *view) []string {
	quals := []string{strings.ToLower(v.name)}
	if core.From.Alias != "" {
		quals = append(quals, strings.ToLower(core.From.Alias))
	}
	return quals
}

func isStarOnly(cols []ResultCol) bool {
	return len(cols) == 1 && cols[0].Star
}

// outputNames computes the output column names of the outer query.
func outputNames(core *SelectCore, v *view) []string {
	if isStarOnly(core.Cols) {
		return v.cols
	}
	names := make([]string, len(core.Cols))
	for i, rc := range core.Cols {
		names[i] = exprName(rc)
	}
	return names
}

// orderByFlattenable implements the SQLite 3.8.6 rule: with an ORDER BY
// present, flattening requires SELECT * or that every ORDER BY term is a
// plain column reference contained in the selected columns (or a 1-based
// output column index).
func orderByFlattenable(sel *SelectStmt, core *SelectCore, v *view, quals []string) bool {
	if isStarOnly(core.Cols) {
		return true
	}
	outNames := outputNames(core, v)
	for _, term := range sel.OrderBy {
		switch t := term.Expr.(type) {
		case *Lit:
			if n, ok := t.Val.(int64); ok && n >= 1 && int(n) <= len(outNames) {
				continue
			}
			return false
		case *ColRef:
			if t.Table != "" && !containsFold(quals, t.Table) {
				return false
			}
			if indexOfFold(outNames, t.Col) < 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// stripOrderQualifiers removes view qualifiers from ORDER BY column
// references so they resolve against the compound output columns.
func stripOrderQualifiers(terms []OrderTerm, quals []string) []OrderTerm {
	out := make([]OrderTerm, len(terms))
	for i, t := range terms {
		out[i] = t
		if ref, ok := t.Expr.(*ColRef); ok && ref.Table != "" && containsFold(quals, ref.Table) {
			out[i].Expr = &ColRef{Col: ref.Col}
		}
	}
	return out
}

// substExpr rewrites references to the view's columns using subst,
// leaving everything else shared (expressions are immutable once parsed).
func substExpr(e Expr, quals []string, subst map[string]Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Lit, *Param:
		return e
	case *ColRef:
		if x.Table == "" || containsFold(quals, x.Table) {
			if repl, ok := subst[strings.ToLower(x.Col)]; ok {
				return repl
			}
		}
		return x
	case *Unary:
		return &Unary{Op: x.Op, X: substExpr(x.X, quals, subst)}
	case *Binary:
		return &Binary{Op: x.Op, L: substExpr(x.L, quals, subst), R: substExpr(x.R, quals, subst)}
	case *InExpr:
		out := &InExpr{X: substExpr(x.X, quals, subst), Not: x.Not, Sub: x.Sub}
		for _, le := range x.List {
			out.List = append(out.List, substExpr(le, quals, subst))
		}
		return out
	case *IsNull:
		return &IsNull{X: substExpr(x.X, quals, subst), Not: x.Not}
	case *Between:
		return &Between{
			X:   substExpr(x.X, quals, subst),
			Not: x.Not,
			Lo:  substExpr(x.Lo, quals, subst),
			Hi:  substExpr(x.Hi, quals, subst),
		}
	case *Call:
		out := &Call{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, substExpr(a, quals, subst))
		}
		return out
	case *CaseExpr:
		out := &CaseExpr{Operand: substExpr(x.Operand, quals, subst), Else: substExpr(x.Else, quals, subst)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, struct{ Cond, Result Expr }{
				substExpr(w.Cond, quals, subst),
				substExpr(w.Result, quals, subst),
			})
		}
		return out
	}
	return e
}
