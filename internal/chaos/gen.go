package chaos

import (
	"math/rand"
	"strconv"
	"strings"

	"maxoid/internal/sqldb"
)

// OpKind enumerates the structured operations the generator emits.
type OpKind int

const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
	OpSelect
	OpBegin
	OpCommit
	OpRollback
)

// Pred is a simple WHERE predicate: column <cmp> literal, a NULL test,
// or a two-sided range between Val and Hi. Small on purpose — the
// oracle's value comes from volume and value-type mixing, not predicate
// complexity.
type Pred struct {
	Col string
	Cmp string // "=", "!=", "<", "<=", ">", ">=", "IS NULL", "IS NOT NULL", "RANGE", "BETWEEN"
	Val sqldb.Value
	Hi  sqldb.Value // upper bound of RANGE (Val <= col < Hi) and BETWEEN (inclusive)
}

// Op is one structured workload operation. The generator emits the
// same Op to both engines: SQL() renders the text sqldb executes, and
// Ref.Apply/Ref.Select consume the struct directly, so no second SQL
// parser exists to accidentally share bugs with the first.
type Op struct {
	Kind  OpKind
	Table string
	Cols  []string      // insert columns / update SET columns
	Vals  []sqldb.Value // parallel to Cols
	Where *Pred
}

// oracleTables is the fixed schema: first column is the INTEGER
// PRIMARY KEY, remaining columns are dynamically typed like SQLite's.
var oracleTables = []string{"t0", "t1"}

var oracleCols = []string{"_id", "a", "b", "c"}

// lit renders a value as a SQL literal.
func lit(v sqldb.Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'f', -1, 64)
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	}
	return "NULL"
}

// SQL renders the operation as the statement sent to sqldb.
func (op Op) SQL() string {
	switch op.Kind {
	case OpBegin:
		return "BEGIN"
	case OpCommit:
		return "COMMIT"
	case OpRollback:
		return "ROLLBACK"
	case OpInsert:
		vals := make([]string, len(op.Vals))
		for i, v := range op.Vals {
			vals[i] = lit(v)
		}
		return "INSERT INTO " + op.Table + " (" + strings.Join(op.Cols, ", ") + ") VALUES (" + strings.Join(vals, ", ") + ")"
	case OpUpdate:
		sets := make([]string, len(op.Cols))
		for i, c := range op.Cols {
			sets[i] = c + " = " + lit(op.Vals[i])
		}
		return "UPDATE " + op.Table + " SET " + strings.Join(sets, ", ") + op.whereSQL()
	case OpDelete:
		return "DELETE FROM " + op.Table + op.whereSQL()
	case OpSelect:
		return "SELECT " + strings.Join(oracleCols, ", ") + " FROM " + op.Table + op.whereSQL() + " ORDER BY _id"
	}
	return ""
}

func (op Op) whereSQL() string {
	p := op.Where
	if p == nil {
		return ""
	}
	switch p.Cmp {
	case "IS NULL", "IS NOT NULL":
		return " WHERE " + p.Col + " " + p.Cmp
	case "RANGE":
		return " WHERE " + p.Col + " >= " + lit(p.Val) + " AND " + p.Col + " < " + lit(p.Hi)
	case "BETWEEN":
		return " WHERE " + p.Col + " BETWEEN " + lit(p.Val) + " AND " + lit(p.Hi)
	}
	return " WHERE " + p.Col + " " + p.Cmp + " " + lit(p.Val)
}

// Gen produces a deterministic randomized workload from a seed.
type Gen struct {
	r     *rand.Rand
	inTxn bool
}

// NewGen creates a generator. Workloads from equal seeds are identical.
func NewGen(seed int64) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed))}
}

var stringPool = []string{"red", "green", "blue", "cyan", "m m", ""}

// value draws a dynamically typed value. textBias shifts the mix for
// text-flavored columns; NULLs and cross-type values appear everywhere
// so comparisons exercise the engine's type-ordering rules.
func (g *Gen) value(textBias bool) sqldb.Value {
	n := g.r.Intn(100)
	if textBias {
		n = (n + 40) % 100
	}
	switch {
	case n < 50:
		return int64(g.r.Intn(10))
	case n < 60:
		return nil
	case n < 70:
		// Only non-integral floats: an integral float would render as an
		// integer literal and come back from the parser as int64.
		return float64(2*g.r.Intn(10)+1) / 2
	default:
		return stringPool[g.r.Intn(len(stringPool))]
	}
}

var cmps = []string{"=", "!=", "<", "<=", ">", ">="}

// bound draws a range bound near k: mostly the integer itself,
// sometimes a non-integral float beside it, sometimes any value (NULL
// and text included) so the probe's fallback to a scan is exercised.
func (g *Gen) bound(k int64) sqldb.Value {
	switch n := g.r.Intn(10); {
	case n < 7:
		return k
	case n < 9:
		return float64(k) + 0.5
	default:
		return g.value(false)
	}
}

// pred draws a WHERE predicate (or nil for a full scan).
func (g *Gen) pred() *Pred {
	n := g.r.Intn(100)
	switch {
	case n < 20:
		return nil
	case n < 30:
		cmp := "IS NULL"
		if n < 25 {
			cmp = "IS NOT NULL"
		}
		return &Pred{Col: oracleCols[1+g.r.Intn(3)], Cmp: cmp}
	case n < 42:
		// Primary-key equality, exercising sqldb's indexed fast paths.
		return &Pred{Col: "_id", Cmp: "=", Val: int64(1 + g.r.Intn(60))}
	case n < 50:
		// Two-sided primary-key range, sqldb's range probe: from empty
		// and inverted up to wider than the table.
		cmp := "RANGE"
		if g.r.Intn(2) == 0 {
			cmp = "BETWEEN"
		}
		lo := int64(g.r.Intn(64)) - 2
		return &Pred{Col: "_id", Cmp: cmp, Val: g.bound(lo), Hi: g.bound(lo + int64(g.r.Intn(40)) - 4)}
	default:
		return &Pred{Col: oracleCols[1+g.r.Intn(3)], Cmp: cmps[g.r.Intn(len(cmps))], Val: g.value(false)}
	}
}

// Next draws the next workload operation.
func (g *Gen) Next() Op {
	table := oracleTables[g.r.Intn(len(oracleTables))]
	n := g.r.Intn(100)
	switch {
	case n < 35: // INSERT
		cols := []string{}
		vals := []sqldb.Value{}
		if g.r.Intn(100) < 30 {
			// Explicit primary key from a small range, so duplicate-key
			// errors happen and both engines must agree on them.
			cols = append(cols, "_id")
			vals = append(vals, sqldb.Value(int64(1+g.r.Intn(60))))
		}
		for i, c := range oracleCols[1:] {
			if g.r.Intn(100) < 80 {
				cols = append(cols, c)
				vals = append(vals, g.value(i == 1))
			}
		}
		if len(cols) == 0 {
			cols = append(cols, "a")
			vals = append(vals, g.value(false))
		}
		return Op{Kind: OpInsert, Table: table, Cols: cols, Vals: vals}
	case n < 55: // UPDATE (never the primary key)
		cols := []string{}
		vals := []sqldb.Value{}
		for i, c := range oracleCols[1:] {
			if g.r.Intn(100) < 50 {
				cols = append(cols, c)
				vals = append(vals, g.value(i == 1))
			}
		}
		if len(cols) == 0 {
			cols = append(cols, "c")
			vals = append(vals, g.value(false))
		}
		return Op{Kind: OpUpdate, Table: table, Cols: cols, Vals: vals, Where: g.pred()}
	case n < 67: // DELETE
		return Op{Kind: OpDelete, Table: table, Where: g.pred()}
	case n < 90: // SELECT
		return Op{Kind: OpSelect, Table: table, Where: g.pred()}
	default: // transaction control, mostly well-formed
		if g.r.Intn(100) < 8 {
			// Deliberately possibly-invalid, to exercise error agreement.
			return Op{Kind: []OpKind{OpBegin, OpCommit, OpRollback}[g.r.Intn(3)]}
		}
		if g.inTxn {
			g.inTxn = false
			if g.r.Intn(100) < 70 {
				return Op{Kind: OpCommit}
			}
			return Op{Kind: OpRollback}
		}
		g.inTxn = true
		return Op{Kind: OpBegin}
	}
}
