package chaos

import (
	"bytes"
	"testing"

	"maxoid/internal/testutil"
)

// TestKillCheckerSeeds runs the kill-chaos engine on fixed seeds: every
// run must end leak-free with only typed initiator-facing errors.
func TestKillCheckerSeeds(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, seed := range []int64{1, 2, 7, 42} {
		r := Lookup("kill").Run(seed, Options{Ops: 400})
		if !r.OK() {
			t.Fatalf("seed %d: %v", seed, r.Failures)
		}
		if r.Kills == 0 {
			t.Fatalf("seed %d: workload killed nothing", seed)
		}
	}
}

// TestKillCheckerDeterministic: the same seed reproduces the same
// workload op tape, and every run upholds the invariants. Kill counts
// and fault-schedule lengths ride on real timers (ANR watchdogs,
// restart backoff, retry loops), so exact equality of those is not a
// property the engine can promise; the op tape is.
func TestKillCheckerDeterministic(t *testing.T) {
	a := Lookup("kill").Run(11, Options{Ops: 200})
	b := Lookup("kill").Run(11, Options{Ops: 200})
	if !a.OK() || !b.OK() {
		t.Fatalf("failures: %v / %v", a.Failures, b.Failures)
	}
	if a.Kills == 0 || b.Kills == 0 {
		t.Fatalf("kills %d vs %d: workload killed nothing", a.Kills, b.Kills)
	}
	if !bytes.Equal(a.OpTape, b.OpTape) {
		t.Fatalf("seed 11 op tape not reproducible:\n%s\n%s", a.OpTape, b.OpTape)
	}
}
