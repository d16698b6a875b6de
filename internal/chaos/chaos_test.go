package chaos

import (
	"reflect"
	"testing"

	"maxoid/internal/fault"
)

func TestSQLOracleNoFaults(t *testing.T) {
	rep := Lookup("sql").Run(1, Options{Ops: 1200, Script: []fault.Fire{}})
	if !rep.OK() {
		t.Fatalf("oracle diverged without faults:\n%v", rep.Failures)
	}
	if rep.Fired != 0 {
		t.Fatalf("faults fired with none armed: %d", rep.Fired)
	}
}

func TestSQLOracleWithFaults(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep := Lookup("sql").Run(seed, Options{Ops: 1000})
		if !rep.OK() {
			t.Fatalf("seed %d: oracle diverged under faults:\n%v", seed, rep.Failures)
		}
		if rep.Fired == 0 {
			t.Fatalf("seed %d: no faults fired — schedule is not exercising anything", seed)
		}
	}
}

func TestCopyUpChecker(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep := Lookup("copyup").Run(seed, Options{Ops: 400})
		if !rep.OK() {
			t.Fatalf("seed %d: union view broke crash consistency:\n%v", seed, rep.Failures)
		}
		if rep.Fired == 0 {
			t.Fatalf("seed %d: no faults fired", seed)
		}
	}
}

func TestSynthChecker(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep := Lookup("synth").Run(seed, Options{Ops: 300})
		if !rep.OK() {
			t.Fatalf("seed %d: COW synthesis broke all-or-nothing:\n%v", seed, rep.Failures)
		}
		if rep.Fired == 0 {
			t.Fatalf("seed %d: no faults fired", seed)
		}
	}
}

// TestSeedReproducesRun is the tentpole determinism guarantee: the
// same seed yields the identical fault schedule and verdict for every
// engine.
func TestSeedReproducesRun(t *testing.T) {
	engines := map[string]int{"sql": 400, "copyup": 200, "synth": 150}
	for name, ops := range engines {
		run := func(seed int64) *Report { return Lookup(name).Run(seed, Options{Ops: ops}) }
		a, b := run(7), run(7)
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Errorf("%s: same seed produced different fault schedules (%d vs %d events)",
				name, len(a.Trace), len(b.Trace))
		}
		if !reflect.DeepEqual(a.Failures, b.Failures) {
			t.Errorf("%s: same seed produced different verdicts: %v vs %v", name, a.Failures, b.Failures)
		}
		if c := run(8); reflect.DeepEqual(a.Trace, c.Trace) && len(a.Trace) > 0 {
			t.Errorf("%s: different seeds produced identical schedules", name)
		}
	}
}

// TestScriptReplayMatchesProbabilisticRun checks the shrink
// infrastructure: replaying only the fired events of a probabilistic
// run as an exact script reproduces the same verdict.
func TestScriptReplayMatchesProbabilisticRun(t *testing.T) {
	orig := Lookup("sql").Run(3, Options{Ops: 500})
	fires := orig.Fires()
	if len(fires) == 0 {
		t.Skip("no faults fired at this seed")
	}
	replay := Lookup("sql").Run(3, Options{Ops: 500, Script: fires})
	if !reflect.DeepEqual(orig.Failures, replay.Failures) {
		t.Fatalf("script replay verdict differs: %v vs %v", orig.Failures, replay.Failures)
	}
	if replay.Fired != len(fires) {
		t.Fatalf("script replay fired %d of %d scripted faults", replay.Fired, len(fires))
	}
}
