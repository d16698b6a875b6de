package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file is the access-path half of the planner split. For one base
// table under a WHERE clause it chooses between a sequential scan, the
// primary-key point or range probe, an index point probe, and an index
// range scan — by exact candidate counts, not heuristics: every probe's
// candidate set size is O(log n) (ordered), O(1) (hash) or O(width)
// (primary-key range) to measure, so the "cost model" compares real
// row counts. The chosen path only narrows the candidate set; callers
// re-apply the full WHERE to candidates, so a probe can never change
// results, only skip rows that cannot match.
//
// Probes never under-select because expression evaluation and index
// keys share one total order: =, <, <=, >, >= and BETWEEN all evaluate
// via compare() (see eval.go), which is the same order index entries
// are sorted and hashed by. NULL key components are stored (sorting
// first), so probes touching NULL — a stored NULL inside an unbounded
// range, or a literal NULL constraint — may over-select rows the WHERE
// then rejects, but can never miss one it would accept.
//
// Primary-key probes go through byPK, which maps AsInt(key) to a row
// position. They are used only while byPK holds every row
// (len(byPK) == len(rows)); an UPDATE that stored a NULL, non-numeric
// text or duplicate key breaks that and sends the table back to scans
// until the keys are unique integers again. A range probe looks up
// every integer in [floor(lo), ceil(hi)]: any numeric key x with
// lo <= x <= hi has AsInt(x) — x truncated — inside that interval, so
// the probe can only over-select. compare() orders numerics as
// float64, which is exact for integers only below 2^53 in magnitude,
// so bounds outside ±2^53 scan instead.

type accessKind int

const (
	accessSeqScan accessKind = iota
	accessPKProbe
	accessIndexEq
	accessIndexRange
)

// accessPlan is a chosen access path with its candidate positions
// already resolved (the caller holds the table lock from choice
// through consumption, so positions cannot go stale).
type accessPlan struct {
	kind accessKind
	tbl  *table
	ix   *index // nil unless an index path

	positions []int // candidate row positions; nil for seq scan
	est       int   // candidate count (exact), table size for scans

	eqCols   []string // display: equality columns consumed
	rangeCol string   // display: range column, "" if none
	loOp     string   // display: ">?" or ">=?", "" if unbounded below
	hiOp     string   // display: "<?" or "<=?", "" if unbounded above

	// Inline buffers for the single-position / single-column shapes the
	// pk-probe path produces, so a point lookup allocates no side slices.
	posBuf [1]int
	eqBuf  [1]string
}

// colConstraint accumulates the usable constraints on one column from
// the top-level AND conjuncts of a WHERE clause.
type colConstraint struct {
	hasEq  bool
	eq     Value
	hasLo  bool
	lo     Value
	loIncl bool
	hasHi  bool
	hi     Value
	hiIncl bool
}

// chooseAccess picks the cheapest access path for table t (referred to
// as alias) under where. It never fails: anything unanalyzable falls
// back to a sequential scan.
func (ex *executor) chooseAccess(t *table, alias string, where Expr) *accessPlan {
	scan := ex.newPlan()
	scan.kind, scan.tbl, scan.est = accessSeqScan, t, len(t.rows)
	if where == nil {
		return scan
	}
	cons := ex.constraintMap()
	ex.collectConstraints(t, alias, where, cons)
	if len(cons) == 0 {
		return scan
	}
	best := scan
	// Primary-key probes, only while byPK reaches every row (see the
	// exactness argument at the top of this file).
	if c, ok := cons[t.pk]; ok && t.pk >= 0 && len(t.byPK) == len(t.rows) {
		// Point probe: at most one row, always wins when available. The
		// scan plan is repurposed in place: nothing else references it.
		if c.hasEq {
			if id, isInt := AsInt(c.eq); isInt {
				plan := scan
				plan.kind, plan.est = accessPKProbe, 0
				plan.eqBuf[0] = t.cols[t.pk].Name
				plan.eqCols = plan.eqBuf[:1]
				if pos, found := t.byPK[id]; found {
					plan.posBuf[0] = pos
					plan.positions = plan.posBuf[:1]
					plan.est = 1
				}
				return plan
			}
		}
		if plan := ex.pkRangePlan(t, c); plan != nil {
			best = plan
		}
	}
	for _, ix := range t.indexes {
		plan := planForIndex(ix, t, cons)
		if plan != nil && plan.est < best.est {
			best = plan
		}
	}
	return best
}

// pkRangePlan probes byPK once for every integer key in
// [floor(lo), ceil(hi)] of a two-sided range on the primary key. It
// returns nil (scan instead) unless both bounds are numeric and inside
// ±2^53, and the range is at most as wide as the table. Candidates are
// returned in storage order, the order a scan would produce them.
func (ex *executor) pkRangePlan(t *table, c *colConstraint) *accessPlan {
	if !c.hasLo || !c.hasHi {
		return nil
	}
	first, okLo := pkBound(c.lo, math.Floor)
	last, okHi := pkBound(c.hi, math.Ceil)
	if !okLo || !okHi || last-first >= int64(len(t.rows)) {
		return nil
	}
	width := 0 // an inverted range holds no key
	if last >= first {
		width = int(last-first) + 1
	}
	positions := ex.intsBuf(width)[:0]
	for id := first; id <= last; id++ {
		if pos, ok := t.byPK[id]; ok {
			positions = append(positions, pos)
		}
	}
	sort.Ints(positions)
	plan := ex.newPlan()
	plan.kind, plan.tbl = accessPKProbe, t
	plan.positions, plan.est = positions, len(positions)
	plan.setRange(t.cols[t.pk].Name, c)
	return plan
}

// maxExactKey bounds the keys a range probe may enumerate: below 2^53
// in magnitude every int64 converts to float64 exactly, so compare()
// orders keys and bounds as integers do.
const maxExactKey = 1 << 53

// pkBound turns a range bound into an integer key, rounding a float
// with round (math.Floor for the lower bound, math.Ceil for the upper).
func pkBound(v Value, round func(float64) float64) (int64, bool) {
	var f float64
	switch x := v.(type) {
	case int64:
		f = float64(x)
	case float64:
		f = round(x)
	default: // NULL, text and blob bounds are not numeric ranges
		return 0, false
	}
	if !(f > -maxExactKey && f < maxExactKey) { // also rejects NaN
		return 0, false
	}
	return int64(f), true
}

// setRange records the range constraint on col for describe; only
// constant strings are stored, so executing a plan renders nothing.
func (ap *accessPlan) setRange(col string, c *colConstraint) {
	ap.rangeCol, ap.loOp, ap.hiOp = col, "", ""
	if c.hasLo {
		ap.loOp = ">?"
		if c.loIncl {
			ap.loOp = ">=?"
		}
	}
	if c.hasHi {
		ap.hiOp = "<?"
		if c.hiIncl {
			ap.hiOp = "<=?"
		}
	}
}

// planForIndex builds the best plan this one index supports for the
// given constraints, or nil if the index is unusable.
func planForIndex(ix *index, t *table, cons map[int]*colConstraint) *accessPlan {
	// Longest equality prefix of the index key.
	var eqVals []Value
	var eqCols []string
	for _, c := range ix.cols {
		cc, ok := cons[c]
		if !ok || !cc.hasEq {
			break
		}
		eqVals = append(eqVals, cc.eq)
		eqCols = append(eqCols, t.cols[c].Name)
	}
	if ix.kind == indexHash {
		// Hash buckets key the full composite value: all columns must
		// be pinned by equality.
		if len(eqVals) != len(ix.cols) {
			return nil
		}
		bucket := ix.buckets[hashKey(eqVals)]
		return &accessPlan{
			kind:      accessIndexEq,
			tbl:       t,
			ix:        ix,
			positions: append([]int(nil), bucket...),
			est:       len(bucket),
			eqCols:    eqCols,
		}
	}
	// Ordered: equality prefix, optionally extended by a range on the
	// next key column.
	plan := &accessPlan{tbl: t, ix: ix, eqCols: eqCols}
	var lo, hi Value
	var loIncl, hiIncl bool
	if len(eqVals) == len(ix.cols) {
		plan.kind = accessIndexEq
	} else {
		next := ix.cols[len(eqVals)]
		cc, ok := cons[next]
		if !ok || (!cc.hasLo && !cc.hasHi) {
			if len(eqVals) == 0 {
				return nil
			}
			plan.kind = accessIndexEq // pure prefix probe
		} else {
			plan.kind = accessIndexRange
			plan.setRange(t.cols[next].Name, cc)
			lo, loIncl = cc.lo, cc.loIncl
			hi, hiIncl = cc.hi, cc.hiIncl
		}
	}
	var start, end int
	if plan.kind == accessIndexEq && len(eqVals) == len(ix.cols) {
		start, end = ix.eqRange(eqVals)
	} else {
		start, end = ix.rangeBounds(eqVals, lo, loIncl, hi, hiIncl)
	}
	plan.est = end - start
	plan.positions = make([]int, 0, end-start)
	for _, e := range ix.entries[start:end] {
		plan.positions = append(plan.positions, e.row)
	}
	return plan
}

// collectConstraints walks the top-level AND conjuncts of where and
// records per-column equality and range constraints whose other side is
// a constant (literal or bound parameter).
func (ex *executor) collectConstraints(t *table, alias string, where Expr, out map[int]*colConstraint) {
	switch x := where.(type) {
	case *Binary:
		if x.Op == "AND" {
			ex.collectConstraints(t, alias, x.L, out)
			ex.collectConstraints(t, alias, x.R, out)
			return
		}
		switch x.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			return
		}
		// col OP const, or const OP col (flip the operator).
		ci, v, op, ok := ex.constraintSides(t, alias, x.L, x.R, x.Op)
		if !ok {
			return
		}
		c := ex.constraintFor(out, ci)
		switch op {
		case "=":
			c.hasEq = true
			c.eq = v
		case ">":
			c.tightenLo(v, false)
		case ">=":
			c.tightenLo(v, true)
		case "<":
			c.tightenHi(v, false)
		case "<=":
			c.tightenHi(v, true)
		}
	case *Between:
		if x.Not {
			return
		}
		ci, ok := resolveCol(t, alias, x.X)
		if !ok {
			return
		}
		lo, okLo := ex.constValue(x.Lo)
		hi, okHi := ex.constValue(x.Hi)
		if !okLo || !okHi {
			return
		}
		c := ex.constraintFor(out, ci)
		c.tightenLo(lo, true)
		c.tightenHi(hi, true)
	}
}

func (ex *executor) constraintFor(m map[int]*colConstraint, ci int) *colConstraint {
	c, ok := m[ci]
	if !ok {
		c = ex.newConstraint()
		m[ci] = c
	}
	return c
}

// tightenLo/tightenHi merge multiple range conjuncts on one column by
// keeping the most restrictive bound.
func (c *colConstraint) tightenLo(v Value, incl bool) {
	if !c.hasLo || compare(v, c.lo) > 0 || (compare(v, c.lo) == 0 && !incl) {
		c.hasLo, c.lo, c.loIncl = true, v, incl
	}
}

func (c *colConstraint) tightenHi(v Value, incl bool) {
	if !c.hasHi || compare(v, c.hi) < 0 || (compare(v, c.hi) == 0 && !incl) {
		c.hasHi, c.hi, c.hiIncl = true, v, incl
	}
}

// constraintSides identifies which side of a comparison is the column
// and which the constant, flipping the operator when the column is on
// the right.
func (ex *executor) constraintSides(t *table, alias string, l, r Expr, op string) (int, Value, string, bool) {
	if ci, ok := resolveCol(t, alias, l); ok {
		if v, okv := ex.constValue(r); okv {
			return ci, v, op, true
		}
	}
	if ci, ok := resolveCol(t, alias, r); ok {
		if v, okv := ex.constValue(l); okv {
			return ci, v, flipOp(op), true
		}
	}
	return 0, nil, "", false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// resolveCol maps an expression to a column position of t when it is a
// plain reference to that table (unqualified names bind to the table
// first, matching scope.lookup's innermost-wins resolution).
func resolveCol(t *table, alias string, e Expr) (int, bool) {
	ref, ok := e.(*ColRef)
	if !ok {
		return 0, false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, alias) && !strings.EqualFold(ref.Table, t.name) {
		return 0, false
	}
	ci := t.colIndex(ref.Col)
	if ci < 0 {
		return 0, false
	}
	return ci, true
}

// constValue evaluates a constant expression (literal or bound
// parameter). ok=false means the conjunct cannot drive a probe.
func (ex *executor) constValue(e Expr) (Value, bool) {
	switch e.(type) {
	case *Lit, *Param:
		v, err := ex.eval(e, nil, nil)
		if err != nil {
			return nil, false
		}
		return v, true
	}
	return nil, false
}

// fetchRows materializes the candidate rows (sharing row slices with
// the table, like the scan path does).
func (ap *accessPlan) fetchRows() [][]Value {
	if ap.kind == accessSeqScan {
		rows := make([][]Value, len(ap.tbl.rows))
		copy(rows, ap.tbl.rows)
		return rows
	}
	rows := make([][]Value, 0, len(ap.positions))
	for _, pos := range ap.positions {
		rows = append(rows, ap.tbl.rows[pos])
	}
	return rows
}

// sortedPositions returns candidate positions in ascending order for
// deterministic mutation (hash buckets are unordered).
func (ap *accessPlan) sortedPositions() []int {
	out := append([]int(nil), ap.positions...)
	sort.Ints(out)
	return out
}

// describe renders the plan in EXPLAIN output style.
func (ap *accessPlan) describe() string {
	switch ap.kind {
	case accessPKProbe:
		if ap.rangeCol != "" {
			return fmt.Sprintf("SEARCH %s USING PRIMARY KEY (%s) (~%d rows)",
				ap.tbl.name, strings.Join(ap.rangeTerms(nil), " AND "), ap.est)
		}
		return fmt.Sprintf("SEARCH %s USING PRIMARY KEY (%s=?)", ap.tbl.name, ap.eqCols[0])
	case accessIndexEq, accessIndexRange:
		var terms []string
		for _, c := range ap.eqCols {
			terms = append(terms, c+"=?")
		}
		terms = ap.rangeTerms(terms)
		return fmt.Sprintf("SEARCH %s USING %s INDEX %s (%s) (~%d rows)",
			ap.tbl.name, ap.ix.kind, ap.ix.name, strings.Join(terms, " AND "), ap.est)
	}
	return fmt.Sprintf("SCAN %s (~%d rows)", ap.tbl.name, ap.est)
}

// rangeTerms appends the plan's range terms, e.g. "_id>=?", to terms.
func (ap *accessPlan) rangeTerms(terms []string) []string {
	for _, op := range [2]string{ap.loOp, ap.hiOp} {
		if op != "" {
			terms = append(terms, ap.rangeCol+op)
		}
	}
	return terms
}

// countAccess records the executed access path in the DB statistics.
func (db *DB) countAccess(kind accessKind) {
	switch kind {
	case accessSeqScan:
		db.statSeqScan.Add(1)
	case accessPKProbe:
		db.statPKProbe.Add(1)
	default:
		db.statIdxProbe.Add(1)
	}
}
