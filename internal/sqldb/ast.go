package sqldb

// Statement nodes.

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       string // INTEGER, TEXT, REAL, BLOB, BOOLEAN (affinity only)
	PrimaryKey bool
	NotNull    bool
	Default    Expr
}

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

// CreateViewStmt is CREATE VIEW [IF NOT EXISTS] name AS select.
type CreateViewStmt struct {
	Name        string
	IfNotExists bool
	Select      *SelectStmt
}

// CreateTriggerStmt is CREATE TRIGGER name INSTEAD OF event ON view
// BEGIN body END. Only INSTEAD OF triggers on views are supported, which
// is all the COW proxy needs.
type CreateTriggerStmt struct {
	Name        string
	IfNotExists bool
	Event       string // INSERT, UPDATE, DELETE
	View        string
	Body        []Stmt
}

// CreateIndexStmt is CREATE INDEX [IF NOT EXISTS] name ON table
// (cols...) [USING HASH|ORDERED]. ORDERED (the default) supports point
// and range probes; HASH supports point probes only.
type CreateIndexStmt struct {
	Name        string
	IfNotExists bool
	Table       string
	Cols        []string
	Using       string // "", "HASH", or "ORDERED"
}

// ExplainStmt is EXPLAIN stmt: run the planner only and report the
// chosen access path for each table touched.
type ExplainStmt struct {
	Target Stmt
}

// DropStmt is DROP TABLE|VIEW|TRIGGER|INDEX [IF EXISTS] name.
type DropStmt struct {
	Kind     string // TABLE, VIEW, TRIGGER, INDEX
	Name     string
	IfExists bool
}

// TxnStmt is BEGIN [TRANSACTION], COMMIT, or ROLLBACK.
type TxnStmt struct {
	Kind string // BEGIN, COMMIT, ROLLBACK
}

// InsertStmt is INSERT [OR REPLACE] INTO table [(cols)] VALUES (...),(...)
// or INSERT INTO table [(cols)] select.
type InsertStmt struct {
	OrReplace bool
	Table     string
	Cols      []string
	Rows      [][]Expr
	Select    *SelectStmt
}

// Assign is one SET clause in an UPDATE.
type Assign struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE table SET assigns [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []Assign
	Where Expr

	scan memo[*SelectStmt] // row scan when Table is a view (viewScan)
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr

	scan memo[*SelectStmt] // row scan when Table is a view (viewScan)
}

// OrderTerm is one ORDER BY term.
type OrderTerm struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a possibly compound (UNION ALL) select with trailing
// ORDER BY / LIMIT applying to the whole compound.
type SelectStmt struct {
	Cores   []*SelectCore
	OrderBy []OrderTerm
	Limit   Expr
	Offset  Expr

	plan memo[*SelectStmt] // planner output (planner.go)
}

// ResultCol is one column of a select list.
type ResultCol struct {
	Star      bool   // *
	TableStar string // t.*
	Expr      Expr
	Alias     string
}

// TableRef names a table, view, or subquery in FROM.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt
}

// Join is one JOIN clause.
type Join struct {
	Left bool // LEFT OUTER JOIN vs INNER JOIN
	Ref  TableRef
	On   Expr
}

// SelectCore is one arm of a compound select.
type SelectCore struct {
	Distinct bool
	Cols     []ResultCol
	From     *TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr

	expand memo[coreMemo] // select-list expansion and validation (exec.go)
}

func (*CreateTableStmt) stmt()   {}
func (*CreateViewStmt) stmt()    {}
func (*CreateTriggerStmt) stmt() {}
func (*CreateIndexStmt) stmt()   {}
func (*ExplainStmt) stmt()       {}
func (*DropStmt) stmt()          {}
func (*TxnStmt) stmt()           {}
func (*InsertStmt) stmt()        {}
func (*UpdateStmt) stmt()        {}
func (*DeleteStmt) stmt()        {}
func (*SelectStmt) stmt()        {}

// Expression nodes.

// Expr is any SQL expression.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ Val Value }

// Param is a ? placeholder, bound positionally at execution.
type Param struct{ Index int }

// ColRef references a column, optionally qualified (table.col, NEW.col).
type ColRef struct {
	Table string
	Col   string
}

// Unary is -x or NOT x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operation (arithmetic, comparison, AND/OR, ||, LIKE).
type Binary struct {
	Op   string
	L, R Expr
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
	Sub  *SelectStmt
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X      Expr
	Not    bool
	Lo, Hi Expr
}

// Call is a function call, possibly aggregate (COUNT, MAX, MIN, SUM...).
type Call struct {
	Name string
	Star bool // COUNT(*)
	Args []Expr
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Select *SelectStmt }

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not    bool
	Select *SelectStmt
}

// CaseExpr is CASE [x] WHEN..THEN.. [ELSE..] END.
type CaseExpr struct {
	Operand Expr // may be nil
	Whens   []struct{ Cond, Result Expr }
	Else    Expr
}

func (*Lit) expr()          {}
func (*Param) expr()        {}
func (*ColRef) expr()       {}
func (*Unary) expr()        {}
func (*Binary) expr()       {}
func (*InExpr) expr()       {}
func (*IsNull) expr()       {}
func (*Between) expr()      {}
func (*Call) expr()         {}
func (*SubqueryExpr) expr() {}
func (*ExistsExpr) expr()   {}
func (*CaseExpr) expr()     {}
