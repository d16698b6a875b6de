package chaos

import (
	"reflect"
	"testing"

	"maxoid/internal/fault"
)

func init() {
	fault.Declare("chaos.test", "test-only point for the harness tests")
}

// checkCountedOnce asserts a report counts every fired fault exactly
// once: Fired matches the trace, and no (point, hit) pair repeats.
func checkCountedOnce(t *testing.T, rep *Report) {
	t.Helper()
	fired := 0
	seen := map[fault.Event]bool{}
	for _, ev := range rep.Trace {
		if ev.Fired {
			fired++
		}
		key := fault.Event{Point: ev.Point, Hit: ev.Hit}
		if seen[key] {
			t.Errorf("%s: %s#%d traced twice", rep.Engine, ev.Point, ev.Hit)
		}
		seen[key] = true
	}
	if rep.Fired != fired {
		t.Errorf("%s: Fired = %d, trace has %d fired events", rep.Engine, rep.Fired, fired)
	}
}

// TestEveryEngineReplaysItsSchedule replays each engine's fired
// faults as an exact script. Deterministic engines must reproduce the
// whole report; kill and gateway depend on timing (retry loops, two
// accept workers), so their replays need only pass.
func TestEveryEngineReplaysItsSchedule(t *testing.T) {
	timing := map[string]bool{"kill": true, "gateway": true}
	for _, e := range Engines {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			ops := e.Ops / 2
			orig := e.Run(7, Options{Ops: ops})
			if !orig.OK() {
				t.Fatalf("seed 7: %v", orig.Failures)
			}
			checkCountedOnce(t, orig)
			replay := e.Run(7, Options{Ops: ops, Script: orig.Fires()})
			if !replay.OK() {
				t.Fatalf("replay of %d faults: %v", orig.Fired, replay.Failures)
			}
			checkCountedOnce(t, replay)
			t.Logf("fired %d/%d, replay %d/%d", orig.Fired, len(orig.Trace), replay.Fired, len(replay.Trace))
			if timing[e.Name] {
				return
			}
			if orig.Fired == 0 && e.Name != "index" {
				t.Fatal("no faults fired; the replay check would be vacuous")
			}
			if !reflect.DeepEqual(orig, replay) {
				t.Fatalf("replay diverged: fired %d/%d vs %d/%d, ops %d vs %d, tape equal %v",
					orig.Fired, len(orig.Trace), replay.Fired, len(replay.Trace),
					orig.Ops, replay.Ops, string(orig.OpTape) == string(replay.OpTape))
			}
		})
	}
}

// TestRunStartsFresh: no run reports another run's faults.
func TestRunStartsFresh(t *testing.T) {
	copyup := Lookup("copyup").Run(1, Options{Ops: 200})
	if copyup.Fired == 0 {
		t.Fatal("copyup fired nothing; the check below would be vacuous")
	}
	sql := Lookup("sql").Run(1, Options{Ops: 200, Script: []fault.Fire{}})
	if sql.Fired != 0 {
		t.Fatalf("sql with an empty script fired %d faults", sql.Fired)
	}
	for _, ev := range sql.Trace {
		if ev.Point != "sqldb.exec" && ev.Point != "sqldb.commit" {
			t.Fatalf("sql trace holds another engine's point: %s", ev)
		}
	}
	if idx := Lookup("index").Run(1, Options{Ops: 200}); len(idx.Trace) != 0 {
		t.Fatalf("index arms nothing but reports %d trace events", len(idx.Trace))
	}
}

// TestShrink: a failure that needs two specific faults shrinks to
// exactly those two, and a failure that does not reproduce from its
// schedule is reported as such.
func TestShrink(t *testing.T) {
	pair := &Engine{Name: "pair", Ops: 30, run: func(seed int64, ops int, r *Report) {
		fault.Arm(seed, fault.Spec{Point: "chaos.test", Prob: 1})
		fired := map[int]bool{}
		for i := 1; i <= ops; i++ {
			fired[i] = fault.Hit("chaos.test") != nil
		}
		if fired[7] && fired[19] {
			r.failf("hits 7 and 19 both fired")
		}
	}}
	rep := pair.Run(1, Options{})
	if rep.OK() || rep.Fired != 30 {
		t.Fatalf("pair run: fired %d, failures %v", rep.Fired, rep.Failures)
	}
	got, ok := pair.Shrink(1, 0, rep)
	want := []fault.Fire{{Point: "chaos.test", Hit: 7}, {Point: "chaos.test", Hit: 19}}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Shrink = %v, %v; want %v, true", got, ok, want)
	}

	calls := 0
	flaky := &Engine{Name: "flaky", Ops: 1, run: func(seed int64, ops int, r *Report) {
		calls++
		if calls == 1 {
			r.failf("fails on the first run only")
		}
	}}
	rep = flaky.Run(1, Options{})
	if rep.OK() {
		t.Fatal("flaky engine passed its first run")
	}
	if got, ok := flaky.Shrink(1, 0, rep); ok {
		t.Fatalf("Shrink of a non-reproducing failure = %v, true; want ok == false", got)
	}
}
