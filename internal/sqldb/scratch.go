package sqldb

import "sync"

// Executor pooling and scratch arenas. A statement execution makes
// dozens of small, strictly statement-scoped allocations — access
// plans, evaluation scopes, constraint records, index buffers. The
// executor owns fixed-capacity arenas for exactly the objects the
// profiler proved transient, and the executor itself is recycled
// through a sync.Pool across calls.
//
// Ownership rule (see DESIGN.md): arena-backed memory must never
// escape into anything that outlives the statement — not the returned
// *Rows (Columns and Data are always freshly allocated), not table
// storage (inserted/updated rows stay heap-allocated), and not the
// statement bindings (bind.go builds them on the heap). Arenas reset at top-level statement boundaries only, so
// nested execution (subqueries, trigger bodies, view materialization)
// allocates monotonically within a statement and every live pointer
// stays valid. When an arena fills, allocation falls back to the heap:
// pooling is a fast path, never a capacity limit.
const (
	scratchValues = 64 // Value arena capacity
	scratchScopes = 32 // scope arena capacity (fixed: parent pointers)
	scratchCons   = 16 // colConstraint arena capacity
	scratchInts   = 32 // int arena capacity
	scratchPlans  = 8  // accessPlan arena capacity (fixed: returned as pointers)
)

// scratch holds the executor's per-statement arenas. Scopes, plans and
// constraints are handed out from fixed arrays (never resized, so the
// pointers stay valid); values, ints and bools are handed out as
// sub-slices of lazily allocated backing slices.
type scratch struct {
	values   []Value
	vUsed    int
	ints     []int
	iUsed    int
	bools    []bool
	boolUsed int

	scopes [scratchScopes]scope
	sUsed  int

	cons     [scratchCons]colConstraint
	consUsed int

	plans [scratchPlans]accessPlan
	pUsed int
}

// reset recycles all arena space. Called only at top-level statement
// boundaries, when nothing statement-scoped can still be live.
func (s *scratch) reset() {
	s.vUsed, s.iUsed, s.boolUsed, s.sUsed, s.consUsed, s.pUsed = 0, 0, 0, 0, 0, 0
}

// values returns an n-element Value slice from the arena (zeroed).
func (ex *executor) values(n int) []Value {
	s := &ex.sc
	if s.values == nil {
		s.values = make([]Value, scratchValues)
	}
	if s.vUsed+n <= len(s.values) {
		out := s.values[s.vUsed : s.vUsed+n : s.vUsed+n]
		s.vUsed += n
		for i := range out {
			out[i] = nil
		}
		return out
	}
	return make([]Value, n)
}

// intsBuf returns an n-element int slice from the arena (not zeroed:
// every caller fully assigns it).
func (ex *executor) intsBuf(n int) []int {
	s := &ex.sc
	if s.ints == nil {
		s.ints = make([]int, scratchInts)
	}
	if s.iUsed+n <= len(s.ints) {
		out := s.ints[s.iUsed : s.iUsed+n : s.iUsed+n]
		s.iUsed += n
		return out
	}
	return make([]int, n)
}

// boolsBuf returns an n-element bool slice from the arena (zeroed).
func (ex *executor) boolsBuf(n int) []bool {
	s := &ex.sc
	if s.bools == nil {
		s.bools = make([]bool, scratchInts)
	}
	if s.boolUsed+n <= len(s.bools) {
		out := s.bools[s.boolUsed : s.boolUsed+n : s.boolUsed+n]
		s.boolUsed += n
		for i := range out {
			out[i] = false
		}
		return out
	}
	return make([]bool, n)
}

// newScope returns a scope from the fixed arena. The arena is an array,
// so handed-out pointers (including parent links between arena scopes)
// remain valid across later allocations.
func (ex *executor) newScope(parent *scope, row []Value) *scope {
	s := &ex.sc
	if s.sUsed < len(s.scopes) {
		sc := &s.scopes[s.sUsed]
		s.sUsed++
		sc.parent, sc.row = parent, row
		return sc
	}
	return &scope{parent: parent, row: row}
}

// newPlan returns a zeroed accessPlan from the fixed plan arena. Plans
// are consumed before the statement ends (fetchRows/sortedPositions/
// describe) and are never cached, so arena reuse per statement is safe.
func (ex *executor) newPlan() *accessPlan {
	s := &ex.sc
	if s.pUsed < len(s.plans) {
		p := &s.plans[s.pUsed]
		s.pUsed++
		*p = accessPlan{}
		return p
	}
	return &accessPlan{}
}

// constraints returns n zeroed colConstraints from the fixed arena.
func (ex *executor) constraints(n int) []colConstraint {
	s := &ex.sc
	if s.consUsed+n <= len(s.cons) {
		out := s.cons[s.consUsed : s.consUsed+n : s.consUsed+n]
		s.consUsed += n
		clear(out)
		return out
	}
	return make([]colConstraint, n)
}

// executorPool recycles executors (with their arenas and argument
// buffers) across statement executions.
var executorPool = sync.Pool{New: func() any { return new(executor) }}

// getExecutor takes a pooled executor bound to db. Arguments are bound
// separately (bindArgsInto reuses the executor's buffer).
func getExecutor(db *DB) *executor {
	ex := executorPool.Get().(*executor)
	ex.db = db
	return ex
}

// putExecutor returns an executor to the pool. Reference fields are
// cleared so pooled executors pin neither the DB nor statement state;
// arena backing slices and the args buffer are retained for reuse.
func putExecutor(ex *executor) {
	ex.db = nil
	ex.args = nil
	ex.inCache = nil
	ex.sc.reset()
	executorPool.Put(ex)
}
