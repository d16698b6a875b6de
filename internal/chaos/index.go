package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"maxoid/internal/fault"
	"maxoid/internal/sqldb"
)

// Index chaos: two engines for the secondary-index layer.
//
// The index engine is a differential oracle for access-path choice: the
// same seeded workload runs against two sqldb instances, one bare and
// one carrying randomly chosen secondary indexes (with random index
// DDL mixed into the run). Indexes must never change results — only
// how rows are found — so any divergence in rows, affected counts,
// errors, or final state is a planner or index-maintenance bug.
//
// The indexfault engine arms the sqldb.indexbuild and sqldb.indexmaint
// fault points and asserts the all-or-nothing discipline: a failed
// CREATE INDEX leaves no trace of the index, and a statement that
// faults mid-maintenance leaves every published index exactly
// consistent with its table (verified by sqldb's CheckIndexes, which
// rebuilds shadow indexes and compares entry for entry).

// indexableCols are the non-PK columns random indexes draw from.
var indexableCols = []string{"a", "b", "c"}

// randomIndexSQL draws a random CREATE INDEX statement for table on
// one or two of the data columns, ordered or hash.
func randomIndexSQL(r *rand.Rand, table string, n int) string {
	cols := []string{indexableCols[r.Intn(len(indexableCols))]}
	if r.Intn(2) == 0 {
		for _, c := range indexableCols {
			if c != cols[0] && r.Intn(2) == 0 {
				cols = append(cols, c)
				break
			}
		}
	}
	using := ""
	if r.Intn(2) == 0 {
		using = " USING HASH"
	}
	return fmt.Sprintf("CREATE INDEX ix_%s_%d ON %s (%s)%s",
		table, n, table, strings.Join(cols, ", "), using)
}

// runIndex replays one seeded workload against a bare engine and an
// indexed engine and diffs every outcome. Faults are not armed: this
// oracle isolates access-path equivalence (runIndexFault owns the
// fault discipline).
func runIndex(seed int64, ops int, rep *Report) {
	rep.Ops = ops

	bare := sqldb.Open()
	indexed := sqldb.Open()
	for _, t := range oracleTables {
		for _, db := range []*sqldb.DB{bare, indexed} {
			if _, err := db.Exec(createSQL(t)); err != nil {
				rep.failf("setup: %v", err)
				return
			}
		}
	}

	// Seed-derived index set, disjoint from the workload stream so the
	// same seed generates the same statements as the other oracles.
	ixRand := rand.New(rand.NewSource(seed + 2))
	nIndexes := 0
	for _, t := range oracleTables {
		for k := 1 + ixRand.Intn(2); k > 0; k-- {
			if _, err := indexed.Exec(randomIndexSQL(ixRand, t, nIndexes)); err != nil {
				rep.failf("setup index: %v", err)
				return
			}
			nIndexes++
		}
	}

	g := NewGen(seed)
	for i := 0; i < ops && len(rep.Failures) < 10; i++ {
		// Sprinkle index DDL through the run (indexed engine only):
		// creation over live data exercises the sorted rebuild, drops
		// exercise plan-cache invalidation back to scans.
		if i > 0 && i%127 == 0 {
			if ixRand.Intn(3) == 0 {
				table := oracleTables[ixRand.Intn(len(oracleTables))]
				if _, err := indexed.Exec(fmt.Sprintf("DROP INDEX IF EXISTS ix_%s_%d", table, ixRand.Intn(nIndexes+1))); err != nil {
					rep.failf("op %d: drop index: %v", i, err)
				}
			} else {
				t := oracleTables[ixRand.Intn(len(oracleTables))]
				if _, err := indexed.Exec(randomIndexSQL(ixRand, t, nIndexes)); err != nil {
					rep.failf("op %d: create index: %v", i, err)
				}
				nIndexes++
			}
			if err := indexed.CheckIndexes(); err != nil {
				rep.failf("op %d: index consistency after DDL: %v", i, err)
			}
		}

		op := g.Next()
		sql := op.SQL()
		if op.Kind == OpSelect {
			rows, err := bare.Query(sql)
			ixRows, ixErr := indexed.Query(sql)
			if (err != nil) != (ixErr != nil) {
				rep.failf("op %d %q: bare err %v, indexed err %v", i, sql, err, ixErr)
				continue
			}
			if err != nil {
				continue
			}
			if d := diffRows(ixRows.Data, rows.Data); d != "" {
				rep.failf("op %d %q: indexed engine diverged: %s", i, sql, d)
			}
			continue
		}
		res, err := bare.Exec(sql)
		ixRes, ixErr := indexed.Exec(sql)
		if (err != nil) != (ixErr != nil) {
			rep.failf("op %d %q: bare err %v, indexed err %v", i, sql, err, ixErr)
			continue
		}
		if err != nil {
			continue
		}
		if res.RowsAffected != ixRes.RowsAffected {
			rep.failf("op %d %q: bare affected %d, indexed affected %d", i, sql, res.RowsAffected, ixRes.RowsAffected)
		}
	}

	// Final state: both engines dump identical rows, and every index on
	// the indexed engine matches a from-scratch rebuild.
	for _, t := range oracleTables {
		rows, err := bare.Query("SELECT _id, a, b, c FROM " + t + " ORDER BY _id")
		if err != nil {
			rep.failf("final dump %s: %v", t, err)
			continue
		}
		ixRows, err := indexed.Query("SELECT _id, a, b, c FROM " + t + " ORDER BY _id")
		if err != nil {
			rep.failf("final dump %s (indexed): %v", t, err)
			continue
		}
		if d := diffRows(ixRows.Data, rows.Data); d != "" {
			rep.failf("final state of %s diverged: %s", t, d)
		}
	}
	if err := indexed.CheckIndexes(); err != nil {
		rep.failf("final index consistency: %v", err)
	}
}

// runIndexFault injects faults into index builds and index maintenance
// while a workload runs, asserting after every injected failure that
// no partially-populated index is visible: failed CREATE INDEX
// statements publish nothing, and failed mutations leave tables and
// indexes mutually consistent.
func runIndexFault(seed int64, ops int, rep *Report) {
	rep.Ops = ops

	db := sqldb.Open()
	for _, t := range oracleTables {
		if _, err := db.Exec(createSQL(t)); err != nil {
			rep.failf("setup: %v", err)
			return
		}
	}
	ixRand := rand.New(rand.NewSource(seed + 3))
	nIndexes := 0
	// Pre-fault index set so maintenance faults have indexes to hit.
	for _, t := range oracleTables {
		if _, err := db.Exec(randomIndexSQL(ixRand, t, nIndexes)); err != nil {
			rep.failf("setup index: %v", err)
			return
		}
		nIndexes++
	}

	fault.Arm(seed+1,
		fault.Spec{Point: "sqldb.indexbuild", Prob: 0.3, Op: fault.OpError},
		fault.Spec{Point: "sqldb.indexmaint", Prob: 0.01, Op: fault.OpError},
	)

	// checkConsistent verifies table/index agreement with faults
	// suspended (the shadow rebuild would otherwise trip its own
	// injected faults).
	checkConsistent := func(i int, when string) {
		fault.Suspend()
		defer fault.Resume()
		if err := db.CheckIndexes(); err != nil {
			rep.failf("op %d: index inconsistency %s: %v", i, when, err)
		}
	}

	indexCount := func(table string) int {
		fault.Suspend()
		defer fault.Resume()
		infos, _ := db.TableIndexes(table)
		return len(infos)
	}

	g := NewGen(seed)
	for i := 0; i < ops && len(rep.Failures) < 10; i++ {
		if i > 0 && i%61 == 0 {
			// CREATE INDEX under fault injection: all-or-nothing.
			table := oracleTables[ixRand.Intn(len(oracleTables))]
			before := indexCount(table)
			_, err := db.Exec(randomIndexSQL(ixRand, table, nIndexes))
			nIndexes++
			after := indexCount(table)
			switch {
			case err == nil:
				if after != before+1 {
					rep.failf("op %d: successful CREATE INDEX not visible (%d -> %d)", i, before, after)
				}
			case errors.Is(err, fault.ErrInjected):
				if after != before {
					rep.failf("op %d: failed CREATE INDEX left a partial index visible (%d -> %d)", i, before, after)
				}
			default:
				rep.failf("op %d: unexpected CREATE INDEX error: %v", i, err)
			}
			checkConsistent(i, "after CREATE INDEX")
			continue
		}

		op := g.Next()
		sql := op.SQL()
		var err error
		if op.Kind == OpSelect {
			_, err = db.Query(sql)
		} else {
			_, err = db.Exec(sql)
		}
		if err != nil && !errors.Is(err, fault.ErrInjected) {
			// Workload statements can fail legitimately (duplicate PK,
			// COMMIT outside a transaction); only injected failures are
			// interesting here.
			continue
		}
		if err != nil {
			// A maintenance fault interrupted the statement mid-flight;
			// whatever prefix was applied, tables and indexes must agree.
			checkConsistent(i, "after injected fault")
		}
	}

	checkConsistent(ops, "at end of run")
}
