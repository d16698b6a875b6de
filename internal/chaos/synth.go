package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"maxoid/internal/cowproxy"
	"maxoid/internal/fault"
	"maxoid/internal/sqldb"
)

// runSynth kills cowproxy's COW view synthesis — the
// multi-statement creation of a delta table, COW view, and INSTEAD OF
// triggers — at injected points and asserts the machinery is
// all-or-nothing: after any attempt, an initiator either has the
// complete delta table + COW view pair or neither, and a successful
// query through the proxy sees exactly the primary rows.
func runSynth(seed int64, ops int, rep *Report) {
	rep.Ops = ops

	db := sqldb.Open()
	setup := []string{
		"CREATE TABLE notes (_id INTEGER PRIMARY KEY, title TEXT, body TEXT)",
		"INSERT INTO notes (title, body) VALUES ('a', 'alpha')",
		"INSERT INTO notes (title, body) VALUES ('b', 'beta')",
		"INSERT INTO notes (title, body) VALUES ('c', 'gamma')",
	}
	for _, s := range setup {
		if _, err := db.Exec(s); err != nil {
			rep.failf("setup: %v", err)
			return
		}
	}
	p := cowproxy.New(db)
	if err := p.RegisterTable("notes"); err != nil {
		rep.failf("setup: %v", err)
		return
	}
	if err := p.RegisterUserView("titles", "SELECT _id, title FROM notes"); err != nil {
		rep.failf("setup: %v", err)
		return
	}

	fault.Arm(seed+1,
		fault.Spec{Point: "cowproxy.synth", Prob: 0.25, Op: fault.OpError},
		fault.Spec{Point: "sqldb.exec", Prob: 0.02, Op: fault.OpError},
	)

	r := rand.New(rand.NewSource(seed))
	initiators := make([]string, 6)
	for i := range initiators {
		initiators[i] = fmt.Sprintf("app%02d", i)
	}

	check := func(i int, init string) {
		fault.Suspend()
		defer fault.Resume()
		delta := cowproxy.DeltaTableName("notes", init)
		cow := cowproxy.COWViewName("notes", init)
		hasDelta, hasView := db.HasTable(delta), db.HasView(cow)
		if hasDelta != hasView {
			rep.failf("op %d %s: PARTIAL synthesis: delta table exists=%v, COW view exists=%v",
				i, init, hasDelta, hasView)
		}
		if p.HasDelta("notes", init) && (!hasDelta || !hasView) {
			rep.failf("op %d %s: proxy believes synthesis complete but delta=%v view=%v",
				i, init, hasDelta, hasView)
		}
		// A user-view COW can only exist on top of complete table COW
		// machinery.
		if db.HasView(cowproxy.COWViewName("titles", init)) && !hasView {
			rep.failf("op %d %s: user COW view exists without its base COW view", i, init)
		}
	}

	for i := 0; i < ops && len(rep.Failures) < 10; i++ {
		init := initiators[r.Intn(len(initiators))]
		conn := p.For(init)
		switch n := r.Intn(100); {
		case n < 55: // query the primary table: triggers table synthesis
			rows, err := conn.Query("notes", []string{"_id", "title"}, "", "_id")
			if err != nil && !errors.Is(err, fault.ErrInjected) {
				rep.failf("op %d %s query: unexpected error %v", i, init, err)
			}
			if err == nil && len(rows.Data) != 3 {
				// No delegate has written, so every initiator's COW view
				// must show exactly the primary rows.
				rep.failf("op %d %s query: got %d rows through COW view, want 3", i, init, len(rows.Data))
			}
			check(i, init)
		case n < 80: // query the user view: triggers the view hierarchy
			_, err := conn.Query("titles", []string{"_id", "title"}, "", "_id")
			if err != nil && !errors.Is(err, fault.ErrInjected) {
				rep.failf("op %d %s view query: unexpected error %v", i, init, err)
			}
			check(i, init)
		default: // discard volatile state (scaffolding, not under test)
			fault.Suspend()
			err := p.DiscardVolatile(init)
			fault.Resume()
			if err != nil {
				rep.failf("op %d %s discard: %v", i, init, err)
			}
			check(i, init)
		}
	}
}
