package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// eval evaluates an expression. grp is non-nil when evaluating a select
// list in aggregate context; aggregates then compute over grp's rows.
func (ex *executor) eval(e Expr, sc *scope, grp *groupData) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil
	case *Param:
		if x.Index >= len(ex.args) {
			return nil, fmt.Errorf("sqldb: missing argument for placeholder %d", x.Index+1)
		}
		return ex.args[x.Index], nil
	case *slotRef:
		for d := x.depth; d > 0; d-- {
			sc = sc.parent
		}
		return sc.row[x.slot], nil
	case *Unary:
		return ex.evalUnary(x, sc, grp)
	case *Binary:
		return ex.evalBinary(x, sc, grp)
	case *InExpr:
		return ex.evalIn(x, sc, grp)
	case *boundIn:
		return ex.evalInSub(x, sc, grp)
	case *IsNull:
		v, err := ex.eval(x.X, sc, grp)
		if err != nil {
			return nil, err
		}
		isNull := v == nil
		if x.Not {
			isNull = !isNull
		}
		return boolVal(isNull), nil
	case *Between:
		v, err := ex.eval(x.X, sc, grp)
		if err != nil {
			return nil, err
		}
		lo, err := ex.eval(x.Lo, sc, grp)
		if err != nil {
			return nil, err
		}
		hi, err := ex.eval(x.Hi, sc, grp)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		in := compare(v, lo) >= 0 && compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return boolVal(in), nil
	case *Call:
		return ex.evalCall(x, sc, grp)
	case *boundSub:
		rows, err := ex.execSelect(x.sel, sc)
		if err != nil {
			return nil, err
		}
		if x.exists {
			return boolVal((len(rows.Data) > 0) != x.not), nil
		}
		if len(rows.Data) == 0 || len(rows.Data[0]) == 0 {
			return nil, nil
		}
		return rows.Data[0][0], nil
	case *CaseExpr:
		return ex.evalCase(x, sc, grp)
	}
	return nil, fmt.Errorf("sqldb: unsupported expression %T", e)
}

func boolVal(b bool) Value {
	if b {
		return int64(1)
	}
	return int64(0)
}

func (ex *executor) evalUnary(x *Unary, sc *scope, grp *groupData) (Value, error) {
	v, err := ex.eval(x.X, sc, grp)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "-":
		switch n := v.(type) {
		case nil:
			return nil, nil
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		}
		return nil, fmt.Errorf("sqldb: cannot negate %T", v)
	case "NOT":
		if v == nil {
			return nil, nil
		}
		return boolVal(!truthy(v)), nil
	}
	return nil, fmt.Errorf("sqldb: unsupported unary op %s", x.Op)
}

func (ex *executor) evalBinary(x *Binary, sc *scope, grp *groupData) (Value, error) {
	// AND/OR use three-valued logic with short-circuiting.
	switch x.Op {
	case "AND":
		l, err := ex.eval(x.L, sc, grp)
		if err != nil {
			return nil, err
		}
		if l != nil && !truthy(l) {
			return boolVal(false), nil
		}
		r, err := ex.eval(x.R, sc, grp)
		if err != nil {
			return nil, err
		}
		if r != nil && !truthy(r) {
			return boolVal(false), nil
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return boolVal(true), nil
	case "OR":
		l, err := ex.eval(x.L, sc, grp)
		if err != nil {
			return nil, err
		}
		if l != nil && truthy(l) {
			return boolVal(true), nil
		}
		r, err := ex.eval(x.R, sc, grp)
		if err != nil {
			return nil, err
		}
		if r != nil && truthy(r) {
			return boolVal(true), nil
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return boolVal(false), nil
	}

	l, err := ex.eval(x.L, sc, grp)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(x.R, sc, grp)
	if err != nil {
		return nil, err
	}

	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l == nil || r == nil {
			return nil, nil
		}
		c := compare(l, r)
		switch x.Op {
		case "=":
			return boolVal(c == 0), nil
		case "!=":
			return boolVal(c != 0), nil
		case "<":
			return boolVal(c < 0), nil
		case "<=":
			return boolVal(c <= 0), nil
		case ">":
			return boolVal(c > 0), nil
		case ">=":
			return boolVal(c >= 0), nil
		}
	case "||":
		if l == nil || r == nil {
			return nil, nil
		}
		return AsString(l) + AsString(r), nil
	case "LIKE":
		if l == nil || r == nil {
			return nil, nil
		}
		return boolVal(likeMatch(AsString(l), AsString(r))), nil
	case "+", "-", "*", "/", "%":
		return arith(x.Op, l, r)
	}
	return nil, fmt.Errorf("sqldb: unsupported binary op %s", x.Op)
}

func arith(op string, l, r Value) (Value, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, nil // SQLite: division by zero yields NULL
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, nil
			}
			return li % ri, nil
		}
	}
	if !isNumeric(l) || !isNumeric(r) {
		// SQLite applies numeric affinity; treat non-numerics as 0.
		lf, rf := coerceNumeric(l), coerceNumeric(r)
		return arith(op, lf, rf)
	}
	lf, rf := asFloat(l), asFloat(r)
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	case "%":
		if rf == 0 {
			return nil, nil
		}
		return math.Mod(lf, rf), nil
	}
	return nil, fmt.Errorf("sqldb: unsupported arithmetic op %s", op)
}

// coerceNumeric converts any value to a numeric value (0 on failure).
func coerceNumeric(v Value) Value {
	if isNumeric(v) {
		return v
	}
	if n, ok := AsInt(v); ok {
		return n
	}
	return int64(0)
}

// evalIn evaluates x [NOT] IN (list). Each element is compared as it
// is evaluated, and every element is evaluated, so an element's error
// surfaces even after an earlier element matched.
func (ex *executor) evalIn(x *InExpr, sc *scope, grp *groupData) (Value, error) {
	v, err := ex.eval(x.X, sc, grp)
	if err != nil {
		return nil, err
	}
	found := false
	for _, le := range x.List {
		lv, err := ex.eval(le, sc, grp)
		if err != nil {
			return nil, err
		}
		if !found && v != nil && lv != nil && valuesEqual(v, lv) {
			found = true
		}
	}
	if v == nil {
		return nil, nil
	}
	return boolVal(found != x.Not), nil
}

// evalInSub evaluates x [NOT] IN (subquery).
func (ex *executor) evalInSub(x *boundIn, sc *scope, grp *groupData) (Value, error) {
	v, err := ex.eval(x.x, sc, grp)
	if err != nil || v == nil {
		return nil, err
	}
	var found bool
	if x.pk != nil {
		var exact bool
		if found, exact = pkProbe(x.pk, v); !exact {
			found = ex.pkKeySet(x)[valueKey(v)]
		}
	} else {
		set, err := ex.inSubquerySet(x, sc)
		if err != nil {
			return nil, err
		}
		found = set[valueKey(v)]
	}
	return boolVal(found != x.not), nil
}

// pkProbe answers "v IN (SELECT pk FROM t)" from t's primary-key map
// under the rule the IN-list probe keeps (pkInPlan): byPK must reach
// every row, and a numeric v must lie inside ±2^53. A key equal to v
// under the subquery set's valueKey equality then sits at AsInt(v), so
// comparing that one stored key decides. exact is false when the probe
// cannot decide; pkKeySet then answers.
func pkProbe(t *table, v Value) (found, exact bool) {
	if len(t.byPK) != len(t.rows) {
		return false, false
	}
	var id int64
	switch x := v.(type) {
	case int64:
		if x <= -maxExactKey || x >= maxExactKey {
			return false, false
		}
		if t.intKeys {
			// The key byPK holds under x is x itself: the COW views'
			// case, decided without reading the row.
			_, found = t.byPK[x]
			return found, true
		}
		id = x
	case float64:
		if !(x > -maxExactKey && x < maxExactKey) {
			return false, false
		}
		id = int64(x)
	case string:
		var ok bool
		if id, ok = AsInt(x); !ok {
			return false, true // text no key parses to
		}
	default: // blobs: byPK holds none
		return false, true
	}
	pos, ok := t.byPK[id]
	return ok && sameKey(t.rows[pos][t.pk], v), true
}

// sameKey reports valueKey(a) == valueKey(b) without building either
// key, for a text or numeric b that is not NaN.
func sameKey(a, b Value) bool {
	if x, ok := b.(string); ok {
		y, ok := a.(string)
		return ok && y == x
	}
	if !isNumeric(a) || !isNumeric(b) {
		return false
	}
	return asFloat(a) == asFloat(b)
}

// pkKeySet returns the value set of "SELECT pk FROM t", built from t's
// rows once per statement like any other uncorrelated IN subquery's.
func (ex *executor) pkKeySet(x *boundIn) map[string]bool {
	if set, ok := ex.inCache[x]; ok {
		return set
	}
	t := x.pk
	set := make(map[string]bool, len(t.rows))
	for _, row := range t.rows {
		if key := row[t.pk]; key != nil {
			set[valueKey(key)] = true
		}
	}
	if ex.inCache == nil {
		ex.inCache = make(map[*boundIn]map[string]bool)
	}
	ex.inCache[x] = set
	return set
}

// inSubquerySet returns the value set of an IN subquery. A subquery
// that reads no outer row is evaluated once per statement and memoized;
// a correlated one runs again for every row.
func (ex *executor) inSubquerySet(x *boundIn, sc *scope) (map[string]bool, error) {
	if x.sel.correlated {
		rows, err := ex.execSelect(x.sel, sc)
		if err != nil {
			return nil, err
		}
		return rowsToSet(rows)
	}
	if set, ok := ex.inCache[x]; ok {
		return set, nil
	}
	rows, err := ex.execSelect(x.sel, nil)
	if err != nil {
		return nil, err
	}
	set, err := rowsToSet(rows)
	if err != nil {
		return nil, err
	}
	if ex.inCache == nil {
		ex.inCache = make(map[*boundIn]map[string]bool)
	}
	ex.inCache[x] = set
	return set, nil
}

func rowsToSet(rows *Rows) (map[string]bool, error) {
	set := make(map[string]bool, len(rows.Data))
	for _, row := range rows.Data {
		if len(row) != 1 {
			return nil, fmt.Errorf("sqldb: IN subquery must return one column")
		}
		if row[0] != nil {
			set[valueKey(row[0])] = true
		}
	}
	return set, nil
}

func (ex *executor) evalCase(x *CaseExpr, sc *scope, grp *groupData) (Value, error) {
	var operand Value
	var err error
	if x.Operand != nil {
		operand, err = ex.eval(x.Operand, sc, grp)
		if err != nil {
			return nil, err
		}
	}
	for _, w := range x.Whens {
		cond, err := ex.eval(w.Cond, sc, grp)
		if err != nil {
			return nil, err
		}
		matched := false
		if x.Operand != nil {
			matched = operand != nil && cond != nil && valuesEqual(operand, cond)
		} else {
			matched = truthy(cond)
		}
		if matched {
			return ex.eval(w.Result, sc, grp)
		}
	}
	if x.Else != nil {
		return ex.eval(x.Else, sc, grp)
	}
	return nil, nil
}

func (ex *executor) evalCall(x *Call, sc *scope, grp *groupData) (Value, error) {
	// Aggregates in aggregate context.
	if grp != nil {
		// Each group row is read through one scope beside sc.
		rowScope := ex.newScope(sc.parent, nil)
		switch x.Name {
		case "COUNT":
			if x.Star {
				return int64(len(grp.rows)), nil
			}
			var n int64
			for _, row := range grp.rows {
				rowScope.row = row
				v, err := ex.eval(x.Args[0], rowScope, nil)
				if err != nil {
					return nil, err
				}
				if v != nil {
					n++
				}
			}
			return n, nil
		case "MAX", "MIN":
			if len(x.Args) == 1 {
				var best Value
				for _, row := range grp.rows {
					rowScope.row = row
					v, err := ex.eval(x.Args[0], rowScope, nil)
					if err != nil {
						return nil, err
					}
					if v == nil {
						continue
					}
					if best == nil ||
						(x.Name == "MAX" && compare(v, best) > 0) ||
						(x.Name == "MIN" && compare(v, best) < 0) {
						best = v
					}
				}
				return best, nil
			}
		case "SUM", "TOTAL", "AVG":
			var sum float64
			var n int64
			allInt := true
			for _, row := range grp.rows {
				rowScope.row = row
				v, err := ex.eval(x.Args[0], rowScope, nil)
				if err != nil {
					return nil, err
				}
				if v == nil {
					continue
				}
				if _, ok := v.(int64); !ok {
					allInt = false
				}
				sum += asFloat(coerceNumeric(v))
				n++
			}
			switch x.Name {
			case "SUM":
				if n == 0 {
					return nil, nil
				}
				if allInt {
					return int64(sum), nil
				}
				return sum, nil
			case "TOTAL":
				return sum, nil
			case "AVG":
				if n == 0 {
					return nil, nil
				}
				return sum / float64(n), nil
			}
		}
	}

	// Scalar functions.
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a, sc, grp)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch x.Name {
	case "LENGTH":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		return int64(len(AsString(args[0]))), nil
	case "UPPER":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		return strings.ToUpper(AsString(args[0])), nil
	case "LOWER":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		return strings.ToLower(AsString(args[0])), nil
	case "ABS":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		switch n := args[0].(type) {
		case int64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case float64:
			return math.Abs(n), nil
		}
		return nil, nil
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	case "SUBSTR":
		if len(args) < 2 || args[0] == nil {
			return nil, nil
		}
		s := AsString(args[0])
		start, _ := AsInt(args[1])
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return "", nil
		}
		rest := s[start-1:]
		if len(args) >= 3 {
			n, _ := AsInt(args[2])
			if n < int64(len(rest)) {
				rest = rest[:n]
			}
		}
		return rest, nil
	case "REPLACE":
		if len(args) != 3 || args[0] == nil {
			return nil, nil
		}
		return strings.ReplaceAll(AsString(args[0]), AsString(args[1]), AsString(args[2])), nil
	case "MAX": // scalar form max(a, b, ...)
		var best Value
		for _, a := range args {
			if a == nil {
				return nil, nil
			}
			if best == nil || compare(a, best) > 0 {
				best = a
			}
		}
		return best, nil
	case "MIN":
		var best Value
		for _, a := range args {
			if a == nil {
				return nil, nil
			}
			if best == nil || compare(a, best) < 0 {
				best = a
			}
		}
		return best, nil
	case "COUNT":
		return nil, fmt.Errorf("sqldb: misuse of aggregate COUNT()")
	case "LAST_INSERT_ROWID":
		return ex.db.lastID.Load(), nil
	case "CAST_INTEGER", "CAST_INT":
		if args[0] == nil {
			return nil, nil
		}
		n, _ := AsInt(args[0])
		return n, nil
	case "CAST_TEXT":
		if args[0] == nil {
			return nil, nil
		}
		return AsString(args[0]), nil
	case "CAST_REAL":
		if args[0] == nil {
			return nil, nil
		}
		return asFloat(coerceNumeric(args[0])), nil
	}
	return nil, fmt.Errorf("sqldb: no such function: %s", x.Name)
}
