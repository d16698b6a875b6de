package chaos

import (
	"reflect"
	"testing"
)

// TestIndexOracle is the ISSUE's acceptance check: 1000+ seeded
// statements run with and without randomly chosen secondary indexes
// and must produce row-for-row identical results.
func TestIndexOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep := Lookup("index").Run(seed, Options{Ops: 1200})
		if !rep.OK() {
			t.Fatalf("seed %d: indexed engine diverged:\n%v", seed, rep.Failures)
		}
	}
}

func TestIndexFaultChecker(t *testing.T) {
	fired := 0
	for seed := int64(1); seed <= 5; seed++ {
		rep := Lookup("indexfault").Run(seed, Options{Ops: 1000})
		if !rep.OK() {
			t.Fatalf("seed %d: index fault discipline broke:\n%v", seed, rep.Failures)
		}
		fired += rep.Fired
	}
	if fired == 0 {
		t.Fatal("no index faults fired across any seed — checker is not exercising anything")
	}
}

func TestIndexEnginesDeterministic(t *testing.T) {
	a := Lookup("indexfault").Run(7, Options{Ops: 500})
	b := Lookup("indexfault").Run(7, Options{Ops: 500})
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Errorf("same seed produced different fault schedules (%d vs %d events)", len(a.Trace), len(b.Trace))
	}
	if !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Errorf("same seed produced different verdicts: %v vs %v", a.Failures, b.Failures)
	}
	oa := Lookup("index").Run(7, Options{Ops: 500})
	ob := Lookup("index").Run(7, Options{Ops: 500})
	if !reflect.DeepEqual(oa.Failures, ob.Failures) {
		t.Errorf("index oracle not deterministic: %v vs %v", oa.Failures, ob.Failures)
	}
}
