package sqldb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file is the access-path half of the planner split. For one base
// table under a WHERE clause it chooses between a sequential scan, the
// primary-key point or range probe, an index point probe, and an index
// range scan — by exact candidate counts, not heuristics: every probe's
// candidate set size is O(log n) (ordered), O(1) (hash) or O(width)
// (primary-key range) to measure, so the "cost model" compares real
// row counts.
//
// A chosen path reports two things besides its candidates. Its answered
// conjuncts are the top-level WHERE conjuncts every candidate satisfies
// exactly; the filter (filter, exec.go) takes them as TRUE and
// evaluates only the rest, the residual. Its order says whether the
// candidates already come in the order the arm's ORDER BY asks for
// (accessShape.order), so the executor skips the sort, or merges the
// arms of a flattened UNION ALL. A conjunct is answered only under
// these rules, and everything else (hash probes, IN lists, sequential
// scans) is re-filtered in full:
//
//   - Primary-key probe: every key is an integer (intKeys), byPK reaches
//     every row, no constant the probe consumed on the key is NULL, a
//     point probe's constant is an integer inside ±2^53 and the column's
//     only `=`, and a range walks the exact integer interval its bounds
//     admit.
//   - Ordered-index probe: each equality-prefix column is pinned by
//     exactly one `=`, and no constant on it is NULL; a range on the
//     next key column is answered when it has a lower bound and no
//     constant on that column is NULL. Without a lower bound the walk
//     starts at the NULL keys, which sort first and satisfy no range.
//
// Probes never under-select because expression evaluation and index
// keys share one total order: =, <, <=, >, >= and BETWEEN all evaluate
// via compare() (see eval.go), which is the same order ordered index
// entries are sorted by. NULL key components are stored in ordered
// indexes (sorting first), so probes touching NULL — a stored NULL
// inside a range without a lower bound, or a literal NULL constraint —
// may over-select rows the residual then rejects, but can never miss
// one it would accept. Hash indexes leave out keys holding a NULL,
// which no `=` can match (index.go).
//
// Primary-key probes go through byPK, which maps AsInt(key) to a row
// position. They are used only while byPK holds every row
// (len(byPK) == len(rows)); an UPDATE that stored a NULL, non-numeric
// text or duplicate key breaks that and sends the table back to scans
// until the keys are unique integers again. While every key is an
// integer, a range probe looks up exactly the integers its bounds
// admit, in key order when the arm orders by the key. Otherwise it
// looks up every integer in [floor(lo), ceil(hi)], in storage order:
// any numeric key x with lo <= x <= hi has AsInt(x) — x truncated —
// inside that interval, so the probe can only over-select; byPK's
// AsInt order is not compare() order once a key is text, so it yields
// no order either. compare() orders numerics as float64, which is
// exact for integers only below 2^53 in magnitude, so bounds outside
// ±2^53 scan instead. An IN list of constants on the primary key
// probes byPK once per element (pkInPlan).
//
// The order a plan yields:
//   - a primary-key range over integer keys walked in key order,
//     ascending or descending (keys are unique, so there are no ties);
//   - an ordered index walk whose first key column past the equality
//     prefix is the ORDER BY column. Index order is (key, row
//     position), so ties come in index order: by the key columns after
//     the ORDER BY column, then by row position, which is storage order
//     only when the ORDER BY column is the last key column. That is the
//     order a stable sort of the walk's candidates leaves them in, as
//     the executor sorted them before plans yielded order. A
//     descending walk emits the runs of equal keys last to first, each
//     run in index order, which is where the stable sort of the
//     ascending walk puts them;
//   - a point probe, which finds at most one row, under an ORDER BY of
//     a table column.
//
// What a WHERE offers a probe (its access shape) is found once per
// binding; each execution only evaluates the constants.

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

	// answered has the bit (accessCond.bit) of every conjunct each
	// candidate satisfies; exact says that is every conjunct, so the
	// candidates are the WHERE's rows. ordered says the candidates come
	// in the order of the arm's ORDER BY (accessShape.order).
	answered uint64
	exact    bool
	ordered  bool

	eqCols   []string // display: equality columns consumed
	rangeCol string   // display: range column, "" if none
	loOp     string   // display: ">?" or ">=?", "" if unbounded below
	hiOp     string   // display: "<?" or "<=?", "" if unbounded above
	in       bool     // display: a primary-key IN-list probe

	// Inline buffers for the single-position / single-column shapes the
	// pk-probe path produces, so a point lookup allocates no side slices.
	posBuf [1]int
	eqBuf  [1]string
}

// accessShape is what an access path can use of a table's bound WHERE,
// found once per binding: each top-level AND conjunct that compares a
// column of the table with a literal or parameter (either way round),
// a BETWEEN of two of them, or an IN list of them on the primary key.
// Which values the constants take is left to each execution.
type accessShape struct {
	conds []accessCond
	cols  []int     // the table column of each constrained column
	pk    int       // index into cols of the primary key, -1 if unconstrained
	ixs   []ixShape // the indexes whose leading key column is constrained

	// order is the table column a single-term ORDER BY of the arm reads,
	// -1 when there is none (set by the binder, orderColumn); desc is
	// its direction. leaves counts the WHERE's top-level conjuncts.
	order  int
	desc   bool
	leaves uint8
}

// accessCond is one usable conjunct on constrained column col (an index
// into accessShape.cols). x is the constant of a comparison, the
// *Between of a BETWEEN, or the *InExpr of an IN list. conj is the
// conjunct's position among the WHERE's top-level conjuncts, left to
// right, capped at maxAnswered.
type accessCond struct {
	op   condOp
	conj uint8
	col  int
	x    Expr
}

// maxAnswered bounds the conjuncts a plan can answer: the first 64,
// one bit each of accessPlan.answered.
const maxAnswered = 64

// bit returns the conjunct's bit in accessPlan.answered, 0 past the
// first maxAnswered conjuncts.
func (c *accessCond) bit() uint64 {
	if c.conj >= maxAnswered {
		return 0
	}
	return 1 << c.conj
}

type condOp uint8

const (
	condEq condOp = iota
	condLt
	condLe
	condGt
	condGe
	condBetween
	condIn
)

// ixShape is an index with, per key column, the constrained column
// that pins it (an index into accessShape.cols), -1 where none does.
type ixShape struct {
	ix   *index
	cons []int
}

// colConstraint accumulates one execution's constraints on one column:
// the last `=` value, the tightest bounds, and for a probe to answer,
// the bits (accessCond.bit) of the `=` and range conjuncts folded in.
type colConstraint struct {
	hasEq     bool
	eq        Value
	eqs       int    // `=` conjuncts folded in
	eqBits    uint64 // their bits
	hasLo     bool
	lo        Value
	loIncl    bool
	hasHi     bool
	hi        Value
	hiIncl    bool
	rangeBits uint64 // the bits of the range conjuncts folded in
	null      bool   // some constant folded in is NULL
	in        []Expr // an IN list on the primary key
}

// accessShapeOf finds the access shape of table t under its bound
// WHERE, whose depth-0 slots are t's columns.
func accessShapeOf(t *table, where Expr) accessShape {
	s := accessShape{pk: -1, order: -1}
	s.leaves = uint8(min(s.collect(t, where, 0), maxAnswered+1))
	if len(s.conds) == 0 {
		return accessShape{pk: -1, order: -1}
	}
	s.pk = slices.Index(s.cols, t.pk)
	for _, ix := range t.indexes {
		cons := make([]int, len(ix.cols))
		for k, c := range ix.cols {
			cons[k] = slices.Index(s.cols, c)
		}
		if cons[0] >= 0 {
			s.ixs = append(s.ixs, ixShape{ix: ix, cons: cons})
		}
	}
	return s
}

// collect adds the usable conjuncts of e, whose first top-level
// conjunct is number conj, and returns the number of the next one.
func (s *accessShape) collect(t *table, e Expr, conj int) int {
	switch x := e.(type) {
	case nil:
		return conj
	case *Binary:
		if x.Op == "AND" {
			return s.collect(t, x.R, s.collect(t, x.L, conj))
		}
		op, ok := compareOps[x.Op]
		if !ok {
			break
		}
		// col OP const, or const OP col (flip the operator).
		if col, ok := localColumn(x.L); ok && isConst(x.R) {
			s.add(op, col, x.R, conj)
		} else if col, ok := localColumn(x.R); ok && isConst(x.L) {
			s.add(flipOp[op], col, x.L, conj)
		}
	case *Between:
		if col, ok := localColumn(x.X); ok && !x.Not && isConst(x.Lo) && isConst(x.Hi) {
			s.add(condBetween, col, x, conj)
		}
	case *InExpr:
		if col, ok := localColumn(x.X); ok && !x.Not && col == t.pk && slices.IndexFunc(x.List, notConst) < 0 {
			s.add(condIn, col, x, conj)
		}
	}
	return conj + 1
}

func (s *accessShape) add(op condOp, col int, x Expr, conj int) {
	i := slices.Index(s.cols, col)
	if i < 0 {
		i = len(s.cols)
		s.cols = append(s.cols, col)
	}
	s.conds = append(s.conds, accessCond{op: op, conj: uint8(min(conj, maxAnswered)), col: i, x: x})
}

// localColumn reports the column of a reference to the innermost row.
func localColumn(e Expr) (int, bool) {
	ref, ok := e.(*slotRef)
	if !ok || ref.depth != 0 {
		return 0, false
	}
	return ref.slot, true
}

func isConst(e Expr) bool {
	switch e.(type) {
	case *Lit, *Param:
		return true
	}
	return false
}

func notConst(e Expr) bool { return !isConst(e) }

// compareOps maps each comparison a probe can serve to its op, and
// flipOp turns "const OP col" around into "col OP const".
var (
	compareOps = map[string]condOp{"=": condEq, "<": condLt, "<=": condLe, ">": condGt, ">=": condGe}
	flipOp     = [...]condOp{condEq: condEq, condLt: condGt, condLe: condGe, condGt: condLt, condGe: condLe}
)

// chooseAccess picks the cheapest access path for table t under its
// access shape, and marks what it answers and the order it yields. It
// never fails: anything unusable falls back to a sequential scan.
func (ex *executor) chooseAccess(t *table, s *accessShape) *accessPlan {
	scan := ex.newPlan()
	scan.kind, scan.tbl, scan.est = accessSeqScan, t, len(t.rows)
	if len(s.conds) == 0 {
		return scan
	}
	cons := ex.constraints(len(s.cols))
	for i := range s.conds {
		ex.constrain(cons, &s.conds[i])
	}
	best := scan
	// Primary-key probes, only while byPK reaches every row (see the
	// exactness argument at the top of this file).
	if s.pk >= 0 && len(t.byPK) == len(t.rows) {
		c := &cons[s.pk]
		exact := t.intKeys && !c.null
		// Point probe: at most one row, always wins when available. The
		// scan plan is repurposed in place: nothing else references it.
		if c.hasEq {
			if id, isInt := AsInt(c.eq); isInt {
				plan := scan
				plan.kind, plan.est, plan.ordered = accessPKProbe, 0, s.order >= 0
				plan.eqBuf[0] = t.cols[t.pk].Name
				plan.eqCols = plan.eqBuf[:1]
				if pos, found := t.byPK[id]; found {
					plan.posBuf[0] = pos
					plan.positions = plan.posBuf[:1]
					plan.est = 1
				}
				if exact && c.eqs == 1 && exactKey(c.eq) {
					plan.answer(s, c.eqBits)
				}
				return plan
			}
		}
		if plan := ex.pkRangePlan(t, c, t.intKeys && s.order == t.pk, s.desc); plan != nil {
			if exact {
				plan.answer(s, c.rangeBits)
			}
			best = plan
		}
		if c.in != nil {
			if plan := ex.pkInPlan(t, c.in); plan != nil && (best == scan || plan.est < best.est) {
				best = plan
			}
		}
	}
	for i := range s.ixs {
		if plan := ex.planForIndex(&s.ixs[i], t, cons, s); plan != nil && plan.est < best.est {
			best = plan
		}
	}
	return best
}

// answer records the conjuncts in bits as answered.
func (ap *accessPlan) answer(s *accessShape, bits uint64) {
	ap.answered |= bits
	ap.exact = int(s.leaves) <= maxAnswered && ap.answered == 1<<s.leaves-1
}

// exactKey reports whether v is an integer inside ±2^53. Then, while
// every key is an integer, the key byPK holds under AsInt(v) is the
// only key equal to v under compare().
func exactKey(v Value) bool {
	switch x := v.(type) {
	case int64:
		return x > -maxExactKey && x < maxExactKey
	case float64:
		return x > -maxExactKey && x < maxExactKey && x == math.Trunc(x)
	}
	return false
}

// constrain folds one conjunct's constants into cons. A constant that
// does not evaluate (an unbound parameter) leaves its conjunct unused;
// an IN list is kept for pkInPlan but never answered.
func (ex *executor) constrain(cons []colConstraint, cond *accessCond) {
	c := &cons[cond.col]
	switch cond.op {
	case condBetween:
		x := cond.x.(*Between)
		lo, okLo := ex.constValue(x.Lo)
		hi, okHi := ex.constValue(x.Hi)
		if okLo && okHi {
			c.null = c.null || lo == nil || hi == nil
			c.tightenLo(lo, true)
			c.tightenHi(hi, true)
			c.rangeBits |= cond.bit()
		}
		return
	case condIn:
		if c.in == nil {
			c.in = cond.x.(*InExpr).List
		}
		return
	}
	v, ok := ex.constValue(cond.x)
	if !ok {
		return
	}
	c.null = c.null || v == nil
	switch cond.op {
	case condEq:
		c.hasEq, c.eq = true, v
		c.eqs++
		c.eqBits |= cond.bit()
		return
	case condGt:
		c.tightenLo(v, false)
	case condGe:
		c.tightenLo(v, true)
	case condLt:
		c.tightenHi(v, false)
	case condLe:
		c.tightenHi(v, true)
	}
	c.rangeBits |= cond.bit()
}

// pkInPlan probes byPK once per element of an IN list on the primary
// key and returns the distinct positions found, in storage order (the
// order a scan would produce). The probe is exact, like the range
// probe: byPK indexes every row by AsInt(key), so a key equal to a
// numeric element e under compare sits at AsInt(e) (below 2^53 in
// magnitude every int64 is exact as a float64, and a float key
// truncates as the element does), and a key equal to a text element
// is that same text, which AsInt maps as it maps the element. NULL and
// blob elements, and text no key can parse to, probe nothing; any
// numeric element outside ±2^53, or NaN, sends the statement back to a
// scan (nil).
func (ex *executor) pkInPlan(t *table, list []Expr) *accessPlan {
	positions := ex.intsBuf(len(list))[:0]
	for _, e := range list {
		v, ok := ex.constValue(e)
		if !ok {
			return nil
		}
		var id int64
		switch x := v.(type) {
		case int64:
			if x <= -maxExactKey || x >= maxExactKey {
				return nil
			}
			id = x
		case float64:
			if !(x > -maxExactKey && x < maxExactKey) {
				return nil
			}
			id = int64(x)
		case string:
			if id, ok = AsInt(x); !ok {
				continue
			}
		default: // NULL and blobs equal no key byPK holds
			continue
		}
		if pos, found := t.byPK[id]; found {
			positions = append(positions, pos)
		}
	}
	slices.Sort(positions)
	positions = slices.Compact(positions)
	plan := ex.newPlan()
	plan.kind, plan.tbl, plan.in = accessPKProbe, t, true
	plan.positions, plan.est = positions, len(positions)
	plan.eqBuf[0] = t.cols[t.pk].Name
	plan.eqCols = plan.eqBuf[:1]
	return plan
}

// pkRangePlan probes byPK once for every integer key a two-sided range
// on the primary key admits (pkBound). It returns nil (scan instead)
// unless both bounds are numeric and inside ±2^53, and the range is at
// most as wide as the table. With keyOrder (every key an integer, and
// the arm orders by the key) the candidates come in key order,
// descending with desc; otherwise in storage order, the order a scan
// would produce them.
func (ex *executor) pkRangePlan(t *table, c *colConstraint, keyOrder, desc bool) *accessPlan {
	if !c.hasLo || !c.hasHi {
		return nil
	}
	first, okLo := pkBound(c.lo, c.loIncl, true, t.intKeys)
	last, okHi := pkBound(c.hi, c.hiIncl, false, t.intKeys)
	if !okLo || !okHi || last-first >= int64(len(t.rows)) {
		return nil
	}
	width := 0 // an inverted range holds no key
	if last >= first {
		width = int(last-first) + 1
	}
	positions := ex.intsBuf(width)[:0]
	id, step := first, int64(1)
	if keyOrder && desc {
		id, step = last, -1
	}
	for range width {
		if pos, ok := t.byPK[id]; ok {
			positions = append(positions, pos)
		}
		id += step
	}
	if !keyOrder {
		sort.Ints(positions)
	}
	plan := ex.newPlan()
	plan.kind, plan.tbl, plan.ordered = accessPKProbe, t, keyOrder
	plan.positions, plan.est = positions, len(positions)
	plan.setRange(t.cols[t.pk].Name, c)
	return plan
}

// maxExactKey bounds the keys a range probe may enumerate: below 2^53
// in magnitude every int64 converts to float64 exactly, so compare()
// orders keys and bounds as integers do.
const maxExactKey = 1 << 53

// pkBound turns a range bound into the integer key at that end of the
// range (lower, or upper). With intKeys (every key an integer) it is
// the first or last integer the bound admits, compared as compare()
// does, through float64; otherwise floor(lo) or ceil(hi), inside which
// AsInt puts every numeric key the range admits.
func pkBound(v Value, incl, lower, intKeys bool) (int64, bool) {
	var f float64
	switch x := v.(type) {
	case int64:
		f = float64(x)
	case float64:
		f = x
	default: // NULL, text and blob bounds are not numeric ranges
		return 0, false
	}
	switch {
	case !intKeys && lower:
		f = math.Floor(f)
	case !intKeys:
		f = math.Ceil(f)
	case lower && incl:
		f = math.Ceil(f)
	case lower:
		f = math.Floor(f) + 1
	case incl:
		f = math.Floor(f)
	default:
		f = math.Ceil(f) - 1
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

// planForIndex builds the best plan one index supports under cons, or
// nil if the index is unusable; it decides that before allocating.
func (ex *executor) planForIndex(is *ixShape, t *table, cons []colConstraint, s *accessShape) *accessPlan {
	ix := is.ix
	// Longest equality prefix of the index key.
	k := 0
	for _, ci := range is.cons {
		if ci < 0 || !cons[ci].hasEq {
			break
		}
		k++
	}
	// Ordered: the prefix, optionally extended by a range on the next
	// key column. Hash buckets key the full composite value: every
	// column must be pinned by equality.
	var rc *colConstraint
	if k < len(ix.cols) {
		if ci := is.cons[k]; ci >= 0 && (cons[ci].hasLo || cons[ci].hasHi) {
			rc = &cons[ci]
		}
	}
	if ix.kind == indexHash && k != len(ix.cols) || k == 0 && rc == nil {
		return nil
	}
	eqVals := ex.values(k)
	for i := range eqVals {
		eqVals[i] = cons[is.cons[i]].eq
	}
	plan := ex.newPlan()
	plan.kind, plan.tbl, plan.ix, plan.eqCols = accessIndexEq, t, ix, ix.colNames[:k]
	if ix.kind == indexHash {
		bucket := ix.buckets[rowKey(eqVals)]
		plan.positions, plan.est = append([]int(nil), bucket...), len(bucket)
		return plan
	}
	var start, end int
	switch {
	case k == len(ix.cols):
		start, end = ix.eqRange(eqVals)
	case rc == nil: // pure prefix probe
		start, end = ix.rangeBounds(eqVals, nil, false, nil, false)
	default:
		plan.kind = accessIndexRange
		plan.setRange(t.cols[ix.cols[k]].Name, rc)
		start, end = ix.rangeBounds(eqVals, rc.lo, rc.loIncl, rc.hi, rc.hiIncl)
	}
	plan.est = end - start
	// The walk is sorted by the first key column past the prefix.
	plan.ordered = k < len(ix.cols) && ix.cols[k] == s.order
	plan.positions = ix.walk(start, end, k, plan.ordered && s.desc, make([]int, 0, end-start))
	var bits uint64
	for i := range k {
		c := &cons[is.cons[i]]
		if c.eqs != 1 || c.null {
			return plan
		}
		bits |= c.eqBits
	}
	if rc != nil && rc.hasLo && !rc.null {
		bits |= rc.rangeBits
	}
	plan.answer(s, bits)
	return plan
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
		if ap.in {
			return fmt.Sprintf("SEARCH %s USING PRIMARY KEY (%s IN (?,…))", ap.tbl.name, ap.eqCols[0])
		}
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
