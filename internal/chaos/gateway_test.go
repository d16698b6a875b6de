package chaos

import (
	"testing"

	"maxoid/internal/testutil"
)

// TestGatewayChecker runs the gateway-chaos engine across seeds; every
// run must hold the confinement and typed-error invariants and leak
// nothing.
func TestGatewayChecker(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, seed := range []int64{1, 7, 42} {
		rep := Lookup("gateway").Run(seed, Options{Ops: 300})
		if !rep.OK() {
			t.Fatalf("seed %d:\n%s", seed, joinFailures(rep.Failures))
		}
		if rep.Ops < 300 {
			t.Fatalf("seed %d: only %d ops ran", seed, rep.Ops)
		}
	}
}

// TestGatewayCheckerDefaultFires asserts the default-size run drives a
// meaningful injected-fault volume through the remote path.
func TestGatewayCheckerDefaultFires(t *testing.T) {
	defer testutil.LeakCheck(t)()
	rep := Lookup("gateway").Run(11, Options{})
	if !rep.OK() {
		t.Fatalf("seed 11:\n%s", joinFailures(rep.Failures))
	}
	if rep.Fired < 50 {
		t.Fatalf("default run fired only %d faults", rep.Fired)
	}
}

func joinFailures(fs []string) string {
	out := ""
	for _, f := range fs {
		out += "  " + f + "\n"
	}
	return out
}
