package sqldb

import (
	"fmt"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	pos    int
	params int // number of ? placeholders seen so far
}

// parseAll parses a semicolon-separated sequence of statements.
func parseAll(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses an already-lexed token stream. The prepared-
// statement layer parses normalized streams (literals replaced by
// parameters) directly, without rebuilding text.
func parseTokens(toks []token) ([]Stmt, error) {
	p := &parser{toks: toks}
	var stmts []Stmt
	for {
		for p.acceptOp(";") {
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }
func (p *parser) errf(format string, args ...interface{}) error {
	t := p.peek()
	return fmt.Errorf("sqldb: parse error near %q (pos %d): %s", t.text, t.pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// ident accepts an identifier; type keywords double as identifiers
// (SQLite allows e.g. a column named "text").
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "INTEGER", "TEXT", "REAL", "BLOB", "BOOLEAN", "KEY", "REPLACE", "ALL", "DEFAULT", "END":
			p.pos++
			return strings.ToLower(t.text), nil
		}
	}
	return "", p.errf("expected identifier")
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement")
	}
	switch t.text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT", "REPLACE":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT":
		return p.parseSelect()
	case "BEGIN":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &TxnStmt{Kind: "BEGIN"}, nil
	case "COMMIT":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &TxnStmt{Kind: "COMMIT"}, nil
	case "ROLLBACK":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &TxnStmt{Kind: "ROLLBACK"}, nil
	case "EXPLAIN":
		p.next()
		inner, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Target: inner}, nil
	}
	return nil, p.errf("unsupported statement %s", t.text)
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("VIEW"):
		return p.parseCreateView()
	case p.acceptKeyword("TRIGGER"):
		return p.parseCreateTrigger()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex()
	}
	return nil, p.errf("expected TABLE, VIEW, TRIGGER, or INDEX")
}

func (p *parser) parseCreateIndex() (Stmt, error) {
	ine := p.parseIfNotExists()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		break
	}
	// USING HASH|ORDERED is parsed context-sensitively: USING is not a
	// reserved word, so existing identifiers keep working.
	var using string
	if t := p.peek(); t.kind == tokIdent && upperASCII(t.text) == "USING" {
		p.pos++
		kind, err := p.ident()
		if err != nil {
			return nil, err
		}
		using = upperASCII(kind)
		if using != "HASH" && using != "ORDERED" {
			return nil, p.errf("expected HASH or ORDERED after USING")
		}
	}
	return &CreateIndexStmt{Name: name, IfNotExists: ine, Table: table, Cols: cols, Using: using}, nil
}

func (p *parser) parseIfNotExists() bool {
	if p.acceptKeyword("IF") {
		// NOT EXISTS is mandatory after IF here.
		p.acceptKeyword("NOT")
		p.acceptKeyword("EXISTS")
		return true
	}
	return false
}

func (p *parser) parseCreateTable() (Stmt, error) {
	ine := p.parseIfNotExists()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTableStmt{Name: name, IfNotExists: ine, Cols: cols}, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var def ColumnDef
	name, err := p.ident()
	if err != nil {
		return def, err
	}
	def.Name = name
	// Optional type.
	if t := p.peek(); t.kind == tokKeyword {
		switch t.text {
		case "INTEGER", "TEXT", "REAL", "BLOB", "BOOLEAN":
			def.Type = t.text
			p.pos++
		}
	}
	// Constraints.
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return def, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return def, err
			}
			def.NotNull = true
		case p.acceptKeyword("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return def, err
			}
			def.Default = e
		default:
			return def, nil
		}
	}
}

func (p *parser) parseCreateView() (Stmt, error) {
	ine := p.parseIfNotExists()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name, IfNotExists: ine, Select: sel}, nil
}

func (p *parser) parseCreateTrigger() (Stmt, error) {
	ine := p.parseIfNotExists()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INSTEAD"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("OF"); err != nil {
		return nil, err
	}
	var event string
	switch {
	case p.acceptKeyword("INSERT"):
		event = "INSERT"
	case p.acceptKeyword("UPDATE"):
		event = "UPDATE"
	case p.acceptKeyword("DELETE"):
		event = "DELETE"
	default:
		return nil, p.errf("expected INSERT, UPDATE, or DELETE")
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	view, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("BEGIN"); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.acceptKeyword("END") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
		if err := p.expectOp(";"); err != nil {
			return nil, err
		}
	}
	return &CreateTriggerStmt{Name: name, IfNotExists: ine, Event: event, View: view, Body: body}, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	var kind string
	switch {
	case p.acceptKeyword("TABLE"):
		kind = "TABLE"
	case p.acceptKeyword("VIEW"):
		kind = "VIEW"
	case p.acceptKeyword("TRIGGER"):
		kind = "TRIGGER"
	case p.acceptKeyword("INDEX"):
		kind = "INDEX"
	default:
		return nil, p.errf("expected TABLE, VIEW, TRIGGER, or INDEX")
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Kind: kind, Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	orReplace := false
	if p.acceptKeyword("REPLACE") { // REPLACE INTO is sugar
		orReplace = true
	} else {
		p.next() // INSERT
		if p.acceptKeyword("OR") {
			if err := p.expectKeyword("REPLACE"); err != nil {
				return nil, err
			}
			orReplace = true
		}
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptOp("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.acceptKeyword("VALUES") {
		var rows [][]Expr
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptOp(",") {
					continue
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				break
			}
			rows = append(rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return &InsertStmt{OrReplace: orReplace, Table: table, Cols: cols, Rows: rows}, nil
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &InsertStmt{OrReplace: orReplace, Table: table, Cols: cols, Select: sel}, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	var assigns []Assign
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, Assign{Col: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	var where Expr
	if p.acceptKeyword("WHERE") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &UpdateStmt{Table: table, Set: assigns, Where: where}, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		where = e
	}
	return &DeleteStmt{Table: table, Where: where}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	sel := &SelectStmt{}
	for {
		core, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		sel.Cores = append(sel.Cores, core)
		if p.acceptKeyword("UNION") {
			if err := p.expectKeyword("ALL"); err != nil {
				return nil, p.errf("only UNION ALL is supported")
			}
			if err := p.expectKeyword("SELECT"); err != nil {
				return nil, err
			}
			p.backup()
			continue
		}
		break
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			term := OrderTerm{Expr: e}
			if p.acceptKeyword("DESC") {
				term.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, term)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
		if p.acceptKeyword("OFFSET") {
			o, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Offset = o
		}
	}
	return sel, nil
}

func (p *parser) parseSelectCore() (*SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	if p.acceptKeyword("DISTINCT") {
		core.Distinct = true
	}
	for {
		col, err := p.parseResultCol()
		if err != nil {
			return nil, err
		}
		core.Cols = append(core.Cols, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		core.From = &ref
		for {
			join, ok, err := p.parseJoin()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			core.Joins = append(core.Joins, join)
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *parser) parseResultCol() (ResultCol, error) {
	if p.acceptOp("*") {
		return ResultCol{Star: true}, nil
	}
	// t.* lookahead
	if t := p.peek(); t.kind == tokIdent {
		save := p.pos
		name := p.next().text
		if p.acceptOp(".") && p.acceptOp("*") {
			return ResultCol{TableStar: name}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return ResultCol{}, err
	}
	col := ResultCol{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return ResultCol{}, err
		}
		col.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		col.Alias = p.next().text
	}
	return col, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.acceptOp("(") {
		sel, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectOp(")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Sub: sel}
		if p.acceptKeyword("AS") {
			alias, err := p.ident()
			if err != nil {
				return TableRef{}, err
			}
			ref.Alias = alias
		} else if t := p.peek(); t.kind == tokIdent {
			ref.Alias = p.next().text
		}
		return ref, nil
	}
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseJoin() (Join, bool, error) {
	var join Join
	switch {
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		if err := p.expectKeyword("JOIN"); err != nil {
			return join, false, err
		}
		join.Left = true
	case p.acceptKeyword("INNER"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return join, false, err
		}
	case p.acceptKeyword("JOIN"):
	default:
		return join, false, nil
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return join, false, err
	}
	join.Ref = ref
	if p.acceptKeyword("ON") {
		e, err := p.parseExpr()
		if err != nil {
			return join, false, err
		}
		join.On = e
	}
	return join, true, nil
}

// Expression parsing with precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// Don't consume AND that belongs to a BETWEEN (handled there).
		if t := p.peek(); t.kind == tokKeyword && t.text == "AND" {
			p.pos++
			r, err := p.parseNot()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "AND", L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokOp && (t.text == "=" || t.text == "==" || t.text == "!=" || t.text == "<>" ||
			t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">="):
			op := t.text
			if op == "==" {
				op = "="
			}
			if op == "<>" {
				op = "!="
			}
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		case t.kind == tokKeyword && t.text == "IS":
			p.pos++
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Not: not}
		case t.kind == tokKeyword && t.text == "LIKE":
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "LIKE", L: l, R: r}
		case t.kind == tokKeyword && t.text == "NOT":
			// x NOT IN / NOT LIKE / NOT BETWEEN
			save := p.pos
			p.pos++
			switch {
			case p.acceptKeyword("IN"):
				in, err := p.parseInTail(l, true)
				if err != nil {
					return nil, err
				}
				l = in
			case p.acceptKeyword("LIKE"):
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &Unary{Op: "NOT", X: &Binary{Op: "LIKE", L: l, R: r}}
			case p.acceptKeyword("BETWEEN"):
				b, err := p.parseBetweenTail(l, true)
				if err != nil {
					return nil, err
				}
				l = b
			default:
				p.pos = save
				return l, nil
			}
		case t.kind == tokKeyword && t.text == "IN":
			p.pos++
			in, err := p.parseInTail(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case t.kind == tokKeyword && t.text == "BETWEEN":
			p.pos++
			b, err := p.parseBetweenTail(l, false)
			if err != nil {
				return nil, err
			}
			l = b
		default:
			return l, nil
		}
	}
}

func (p *parser) parseInTail(l Expr, not bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokKeyword && t.text == "SELECT" {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: l, Not: not, Sub: sel}, nil
	}
	var list []Expr
	if !p.acceptOp(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	return &InExpr{X: l, Not: not, List: list}, nil
}

func (p *parser) parseBetweenTail(l Expr, not bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Between{X: l, Not: not, Lo: lo, Hi: hi}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		v, ok := numberValue(t.text)
		if !ok {
			return nil, p.errf("bad number")
		}
		return &Lit{Val: v}, nil
	case tokString:
		p.pos++
		return &Lit{Val: t.text}, nil
	case tokParam:
		p.pos++
		idx := p.params
		p.params++
		return &Param{Index: idx}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Lit{Val: nil}, nil
		case "NEW", "OLD":
			p.pos++
			qual := strings.ToLower(t.text)
			if err := p.expectOp("."); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: qual, Col: col}, nil
		case "EXISTS":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sel}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			typ, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &Call{Name: "CAST_" + upperASCII(typ), Args: []Expr{e}}, nil
		case "REPLACE": // REPLACE(x, from, to) function
			p.pos++
			return p.parseCallTail("REPLACE")
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		p.pos++
		name := t.text
		if p.acceptOp("(") {
			p.backup()
			return p.parseCallTail(upperASCII(name))
		}
		if p.acceptOp(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Col: col}, nil
		}
		return &ColRef{Col: name}, nil
	case tokOp:
		if t.text == "(" {
			p.pos++
			// Scalar subquery or parenthesized expression.
			if inner := p.peek(); inner.kind == tokKeyword && inner.text == "SELECT" {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token in expression")
}

// parseCallTail parses "(args)" after a function name.
func (p *parser) parseCallTail(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	call := &Call{Name: name}
	if p.acceptOp("*") {
		call.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptOp(")") {
		return call, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	if t := p.peek(); !(t.kind == tokKeyword && (t.text == "WHEN" || t.text == "END")) {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = operand
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, struct{ Cond, Result Expr }{cond, res})
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
