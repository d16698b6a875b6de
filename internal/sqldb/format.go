package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatSelect renders a select statement back to SQL. Together with
// RewriteTables it lets the COW proxy re-derive a user-defined view's
// definition with base tables replaced by their COW views (paper §5.2,
// "User-defined SQL views").
func FormatSelect(sel *SelectStmt) string {
	var b strings.Builder
	writeSelect(&b, sel)
	return b.String()
}

// RewriteTables parses a single SELECT statement and renames every
// table/view reference (in FROM clauses, joins, and subqueries) through
// the rename function, returning the rewritten SQL.
func RewriteTables(sql string, rename func(name string) string) (string, error) {
	stmts, err := parseAll(sql)
	if err != nil {
		return "", err
	}
	if len(stmts) != 1 {
		return "", fmt.Errorf("sqldb: RewriteTables requires exactly one statement")
	}
	sel, ok := stmts[0].(*SelectStmt)
	if !ok {
		return "", fmt.Errorf("sqldb: RewriteTables requires a SELECT statement")
	}
	rewriteSelectTables(sel, rename)
	return FormatSelect(sel), nil
}

// SelectTables returns the distinct table/view names referenced by a
// SELECT statement, in first-appearance order.
func SelectTables(sql string) ([]string, error) {
	stmts, err := parseAll(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqldb: SelectTables requires exactly one statement")
	}
	sel, ok := stmts[0].(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: SelectTables requires a SELECT statement")
	}
	var names []string
	seen := map[string]bool{}
	walkSelectRefs(sel, func(ref *TableRef) {
		key := strings.ToLower(ref.Name)
		if !seen[key] {
			seen[key] = true
			names = append(names, ref.Name)
		}
	})
	return names, nil
}

// rewriteSelectTables renames every table/view reference of sel in
// place. Only freshly parsed statements may be rewritten: catalog ASTs
// are shared with concurrent planning and execution, so walks over
// them (Image.Units) must use walkSelectRefs read-only.
func rewriteSelectTables(sel *SelectStmt, rename func(string) string) {
	walkSelectRefs(sel, func(ref *TableRef) {
		orig := ref.Name
		ref.Name = rename(orig)
		// Keep qualified column references (orig.col) resolving by
		// aliasing the renamed table back to the original name.
		if ref.Alias == "" && !strings.EqualFold(ref.Name, orig) {
			ref.Alias = orig
		}
	})
}

// walkSelectRefs calls visit on every named table/view reference of
// sel — FROM clauses, joins and subqueries at any depth — in
// first-appearance order. It never writes to the AST itself.
func walkSelectRefs(sel *SelectStmt, visit func(ref *TableRef)) {
	for _, core := range sel.Cores {
		if core.From != nil {
			walkRef(core.From, visit)
			for i := range core.Joins {
				walkRef(&core.Joins[i].Ref, visit)
				walkExprRefs(core.Joins[i].On, visit)
			}
		}
		for _, rc := range core.Cols {
			walkExprRefs(rc.Expr, visit)
		}
		walkExprRefs(core.Where, visit)
		for _, g := range core.GroupBy {
			walkExprRefs(g, visit)
		}
	}
	for _, o := range sel.OrderBy {
		walkExprRefs(o.Expr, visit)
	}
}

func walkRef(ref *TableRef, visit func(ref *TableRef)) {
	if ref.Sub != nil {
		walkSelectRefs(ref.Sub, visit)
		return
	}
	visit(ref)
}

func walkExprRefs(e Expr, visit func(ref *TableRef)) {
	switch x := e.(type) {
	case *Unary:
		walkExprRefs(x.X, visit)
	case *Binary:
		walkExprRefs(x.L, visit)
		walkExprRefs(x.R, visit)
	case *InExpr:
		walkExprRefs(x.X, visit)
		for _, le := range x.List {
			walkExprRefs(le, visit)
		}
		if x.Sub != nil {
			walkSelectRefs(x.Sub, visit)
		}
	case *IsNull:
		walkExprRefs(x.X, visit)
	case *Between:
		walkExprRefs(x.X, visit)
		walkExprRefs(x.Lo, visit)
		walkExprRefs(x.Hi, visit)
	case *Call:
		for _, a := range x.Args {
			walkExprRefs(a, visit)
		}
	case *SubqueryExpr:
		walkSelectRefs(x.Select, visit)
	case *ExistsExpr:
		walkSelectRefs(x.Select, visit)
	case *CaseExpr:
		walkExprRefs(x.Operand, visit)
		for _, w := range x.Whens {
			walkExprRefs(w.Cond, visit)
			walkExprRefs(w.Result, visit)
		}
		walkExprRefs(x.Else, visit)
	}
}

// --- SQL rendering ---

func writeSelect(b *strings.Builder, sel *SelectStmt) {
	for i, core := range sel.Cores {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		writeCore(b, core)
	}
	if len(sel.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range sel.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, o.Expr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if sel.Limit != nil {
		b.WriteString(" LIMIT ")
		writeExpr(b, sel.Limit)
		if sel.Offset != nil {
			b.WriteString(" OFFSET ")
			writeExpr(b, sel.Offset)
		}
	}
}

func writeCore(b *strings.Builder, core *SelectCore) {
	b.WriteString("SELECT ")
	if core.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, rc := range core.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case rc.Star:
			b.WriteString("*")
		case rc.TableStar != "":
			b.WriteString(rc.TableStar + ".*")
		default:
			writeExpr(b, rc.Expr)
			if rc.Alias != "" {
				b.WriteString(" AS " + quoteIdent(rc.Alias))
			}
		}
	}
	if core.From != nil {
		b.WriteString(" FROM ")
		writeRef(b, *core.From)
		for _, j := range core.Joins {
			if j.Left {
				b.WriteString(" LEFT OUTER JOIN ")
			} else {
				b.WriteString(" JOIN ")
			}
			writeRef(b, j.Ref)
			if j.On != nil {
				b.WriteString(" ON ")
				writeExpr(b, j.On)
			}
		}
	}
	if core.Where != nil {
		b.WriteString(" WHERE ")
		writeExpr(b, core.Where)
	}
	if len(core.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range core.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, g)
		}
	}
}

func writeRef(b *strings.Builder, ref TableRef) {
	if ref.Sub != nil {
		b.WriteString("(")
		writeSelect(b, ref.Sub)
		b.WriteString(")")
	} else {
		b.WriteString(quoteIdent(ref.Name))
	}
	if ref.Alias != "" {
		b.WriteString(" AS " + quoteIdent(ref.Alias))
	}
}

func writeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *Lit:
		writeLit(b, x.Val)
	case *Param:
		b.WriteString("?")
	case *ColRef:
		if x.Table != "" {
			b.WriteString(quoteIdent(x.Table) + ".")
		}
		b.WriteString(quoteIdent(x.Col))
	case *Unary:
		if x.Op == "NOT" {
			b.WriteString("NOT (")
			writeExpr(b, x.X)
			b.WriteString(")")
		} else {
			b.WriteString(x.Op + "(")
			writeExpr(b, x.X)
			b.WriteString(")")
		}
	case *Binary:
		b.WriteString("(")
		writeExpr(b, x.L)
		b.WriteString(" " + x.Op + " ")
		writeExpr(b, x.R)
		b.WriteString(")")
	case *InExpr:
		b.WriteString("(")
		writeExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		if x.Sub != nil {
			writeSelect(b, x.Sub)
		} else {
			for i, le := range x.List {
				if i > 0 {
					b.WriteString(", ")
				}
				writeExpr(b, le)
			}
		}
		b.WriteString("))")
	case *IsNull:
		b.WriteString("(")
		writeExpr(b, x.X)
		if x.Not {
			b.WriteString(" IS NOT NULL)")
		} else {
			b.WriteString(" IS NULL)")
		}
	case *Between:
		b.WriteString("(")
		writeExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		writeExpr(b, x.Lo)
		b.WriteString(" AND ")
		writeExpr(b, x.Hi)
		b.WriteString(")")
	case *Call:
		if strings.HasPrefix(x.Name, "CAST_") {
			b.WriteString("CAST(")
			writeExpr(b, x.Args[0])
			b.WriteString(" AS " + strings.TrimPrefix(x.Name, "CAST_") + ")")
			return
		}
		b.WriteString(x.Name + "(")
		if x.Star {
			b.WriteString("*")
		}
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteString(")")
	case *SubqueryExpr:
		b.WriteString("(")
		writeSelect(b, x.Select)
		b.WriteString(")")
	case *ExistsExpr:
		if x.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		writeSelect(b, x.Select)
		b.WriteString(")")
	case *CaseExpr:
		b.WriteString("CASE")
		if x.Operand != nil {
			b.WriteString(" ")
			writeExpr(b, x.Operand)
		}
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			writeExpr(b, w.Cond)
			b.WriteString(" THEN ")
			writeExpr(b, w.Result)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			writeExpr(b, x.Else)
		}
		b.WriteString(" END")
	default:
		b.WriteString("?unknown?")
	}
}

func writeLit(b *strings.Builder, v Value) {
	switch x := v.(type) {
	case nil:
		b.WriteString("NULL")
	case string:
		b.WriteString("'" + strings.ReplaceAll(x, "'", "''") + "'")
	case float64:
		// Plain decimal notation, which re-lexes exactly (the lexer also
		// reads exponents); a trailing ".0" keeps an integral float
		// re-parsing as a float.
		s := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		b.WriteString(s)
	default:
		fmt.Fprintf(b, "%v", x)
	}
}

// FormatStmt renders any statement node back to parseable SQL. The
// checkpoint image (Image.Units) uses it to serialize catalog objects —
// view definitions and trigger bodies round-trip through it.
func FormatStmt(s Stmt) string {
	var b strings.Builder
	writeStmt(&b, s)
	return b.String()
}

func writeStmt(b *strings.Builder, s Stmt) {
	switch x := s.(type) {
	case *SelectStmt:
		writeSelect(b, x)
	case *InsertStmt:
		b.WriteString("INSERT ")
		if x.OrReplace {
			b.WriteString("OR REPLACE ")
		}
		b.WriteString("INTO " + quoteIdent(x.Table))
		if len(x.Cols) > 0 {
			b.WriteString(" (")
			for i, c := range x.Cols {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(quoteIdent(c))
			}
			b.WriteString(")")
		}
		if x.Select != nil {
			b.WriteString(" ")
			writeSelect(b, x.Select)
			return
		}
		b.WriteString(" VALUES ")
		for i, row := range x.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, e := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				writeExpr(b, e)
			}
			b.WriteString(")")
		}
	case *UpdateStmt:
		b.WriteString("UPDATE " + quoteIdent(x.Table) + " SET ")
		for i, a := range x.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteIdent(a.Col) + " = ")
			writeExpr(b, a.Expr)
		}
		if x.Where != nil {
			b.WriteString(" WHERE ")
			writeExpr(b, x.Where)
		}
	case *DeleteStmt:
		b.WriteString("DELETE FROM " + quoteIdent(x.Table))
		if x.Where != nil {
			b.WriteString(" WHERE ")
			writeExpr(b, x.Where)
		}
	case *CreateTableStmt:
		b.WriteString("CREATE TABLE ")
		if x.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		b.WriteString(quoteIdent(x.Name) + " (")
		for i := range x.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			writeColumnDef(b, &x.Cols[i])
		}
		b.WriteString(")")
	case *CreateViewStmt:
		b.WriteString("CREATE VIEW ")
		if x.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		b.WriteString(quoteIdent(x.Name) + " AS ")
		writeSelect(b, x.Select)
	case *CreateTriggerStmt:
		b.WriteString("CREATE TRIGGER ")
		if x.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		b.WriteString(quoteIdent(x.Name) + " INSTEAD OF " + x.Event + " ON " + quoteIdent(x.View) + " BEGIN ")
		for _, bs := range x.Body {
			writeStmt(b, bs)
			b.WriteString("; ")
		}
		b.WriteString("END")
	case *CreateIndexStmt:
		b.WriteString("CREATE INDEX ")
		if x.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		b.WriteString(quoteIdent(x.Name) + " ON " + quoteIdent(x.Table) + " (")
		for i, c := range x.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteIdent(c))
		}
		b.WriteString(")")
		if x.Using != "" {
			b.WriteString(" USING " + x.Using)
		}
	case *DropStmt:
		b.WriteString("DROP " + x.Kind + " ")
		if x.IfExists {
			b.WriteString("IF EXISTS ")
		}
		b.WriteString(quoteIdent(x.Name))
	case *TxnStmt:
		b.WriteString(x.Kind)
	case *ExplainStmt:
		b.WriteString("EXPLAIN ")
		writeStmt(b, x.Target)
	default:
		b.WriteString("?unknown?")
	}
}

func writeColumnDef(b *strings.Builder, c *ColumnDef) {
	b.WriteString(quoteIdent(c.Name))
	if c.Type != "" {
		b.WriteString(" " + c.Type)
	}
	if c.PrimaryKey {
		b.WriteString(" PRIMARY KEY")
	}
	if c.NotNull {
		b.WriteString(" NOT NULL")
	}
	if c.Default != nil {
		b.WriteString(" DEFAULT ")
		writeExpr(b, c.Default)
	}
}

// formatCreateTable renders a catalog table's schema (Image.Units).
func formatCreateTable(name string, cols []ColumnDef) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE " + quoteIdent(name) + " (")
	for i := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		writeColumnDef(&b, &cols[i])
	}
	b.WriteString(")")
	return b.String()
}

// formatCreateIndex renders a catalog index's definition (Image.Units).
func formatCreateIndex(ix *index) string {
	var b strings.Builder
	b.WriteString("CREATE INDEX " + quoteIdent(ix.name) + " ON " + quoteIdent(ix.table) + " (")
	for i, c := range ix.colNames {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(c))
	}
	b.WriteString(")")
	if ix.kind == indexHash {
		b.WriteString(" USING HASH")
	}
	return b.String()
}

// formatCreateTrigger renders a catalog trigger (Image.Units).
func formatCreateTrigger(name, event, view string, body []Stmt) string {
	var b strings.Builder
	b.WriteString("CREATE TRIGGER " + quoteIdent(name) + " INSTEAD OF " + event + " ON " + quoteIdent(view) + " BEGIN ")
	for _, s := range body {
		writeStmt(&b, s)
		b.WriteString("; ")
	}
	b.WriteString("END")
	return b.String()
}

// quoteIdent quotes identifiers that cannot stand bare: keywords,
// empty names, leading digits, or special characters. The lexer has no
// escape sequence inside quoted identifiers, but its three quoting
// styles forbid disjoint characters ('"', '`', ']'), and no lexable
// identifier can contain all three — so one style always round-trips.
func quoteIdent(s string) string {
	needs := s == "" || keywords[strings.ToUpper(s)] || s[0] >= '0' && s[0] <= '9'
	if !needs {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				needs = true
				break
			}
		}
	}
	switch {
	case !needs:
		return s
	case !strings.Contains(s, `"`):
		return `"` + s + `"`
	case !strings.Contains(s, "`"):
		return "`" + s + "`"
	default:
		return "[" + s + "]"
	}
}
