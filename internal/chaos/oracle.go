package chaos

import (
	"errors"

	"maxoid/internal/fault"
	"maxoid/internal/sqldb"
)

// createSQL is the schema both engines start from.
func createSQL(table string) string {
	return "CREATE TABLE " + table + " (_id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c INTEGER)"
}

// runSQL is the differential SQL oracle: it replays a seeded
// randomized statement workload against internal/sqldb and the naive
// reference engine, diffing affected-row counts, error outcomes, every
// SELECT result row for row, and the full table contents at the end of
// the run.
//
// Injected statement faults fire before the statement mutates anything
// (both engines skip it) and injected commit faults roll both engines
// back to the BEGIN snapshot, so the two stay in lockstep unless the
// engine under test mishandles a fault — which is exactly what the
// diff then catches. An empty script runs the oracle fault-free.
func runSQL(seed int64, ops int, rep *Report) {
	rep.Ops = ops

	db := sqldb.Open()
	ref := NewRef()
	for _, t := range oracleTables {
		if _, err := db.Exec(createSQL(t)); err != nil {
			rep.failf("setup: %v", err)
			return
		}
		ref.CreateTable(t, oracleCols)
	}

	fault.Arm(seed+1,
		fault.Spec{Point: "sqldb.exec", Prob: 0.01, Op: fault.OpError},
		fault.Spec{Point: "sqldb.commit", Prob: 0.15, Op: fault.OpError},
	)

	g := NewGen(seed)
	for i := 0; i < ops && len(rep.Failures) < 10; i++ {
		op := g.Next()
		sql := op.SQL()
		pre := len(fault.Trace())

		if op.Kind == OpSelect {
			rows, err := db.Query(sql)
			if err != nil && errors.Is(err, fault.ErrInjected) {
				continue // fired pre-execution; reference skips it too
			}
			refRows, refErr := ref.Select(op)
			if (err != nil) != (refErr != nil) {
				rep.failf("op %d %q: engine err %v, reference err %v", i, sql, err, refErr)
				continue
			}
			if err != nil {
				continue
			}
			if d := diffRows(rows.Data, refRows); d != "" {
				rep.failf("op %d %q: %s", i, sql, d)
			}
			continue
		}

		res, err := db.Exec(sql)
		if err != nil && errors.Is(err, fault.ErrInjected) {
			// Which point fired decides what the engine did: a statement
			// fault fired before anything ran (skip), a commit fault
			// rolled the engine back to its BEGIN snapshot (mirror it).
			if firedPoint(pre) == "sqldb.commit" {
				ref.ForceRollback()
			}
			continue
		}
		affected, refErr := ref.Apply(op)
		if (err != nil) != (refErr != nil) {
			rep.failf("op %d %q: engine err %v, reference err %v", i, sql, err, refErr)
			continue
		}
		if err != nil {
			continue
		}
		if op.Kind != OpBegin && op.Kind != OpCommit && op.Kind != OpRollback && res.RowsAffected != affected {
			rep.failf("op %d %q: engine affected %d, reference %d", i, sql, res.RowsAffected, affected)
		}
	}

	// End-of-run full-state comparison. An open transaction is fine —
	// both engines hold the same uncommitted state.
	for _, t := range oracleTables {
		rows, err := db.Query("SELECT _id, a, b, c FROM " + t + " ORDER BY _id")
		if err != nil && errors.Is(err, fault.ErrInjected) {
			fault.Suspend()
			rows, err = db.Query("SELECT _id, a, b, c FROM " + t + " ORDER BY _id")
			fault.Resume()
		}
		if err != nil {
			rep.failf("final dump %s: %v", t, err)
			continue
		}
		if d := diffRows(rows.Data, ref.Dump(t)); d != "" {
			rep.failf("final state of %s diverged: %s", t, d)
		}
	}
}

// firedPoint returns the fault point that fired since trace index pre
// ("" when none did). At most one fault fires per statement: a
// statement fault preempts the statement, so the commit point is never
// reached in the same call.
func firedPoint(pre int) string {
	tr := fault.Trace()
	for _, e := range tr[pre:] {
		if e.Fired {
			return e.Point
		}
	}
	return ""
}
