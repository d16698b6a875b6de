package chaos

import (
	"testing"

	"maxoid/internal/testutil"
)

// TestOverloadCheckerSeeds: the overload engine upholds its invariants
// across seeds — typed rejections only, exact accounting, a words table
// holding exactly the completed inserts, drained admission, and a
// registry that agrees — with ams.admit faults injected throughout.
func TestOverloadCheckerSeeds(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, seed := range []int64{1, 7, 42} {
		r := Lookup("overload").Run(seed, Options{Ops: 2000})
		if !r.OK() {
			t.Fatalf("seed %d: %v", seed, r.Failures)
		}
		if r.Fired == 0 {
			t.Fatalf("seed %d: no admission faults fired", seed)
		}
	}
}
