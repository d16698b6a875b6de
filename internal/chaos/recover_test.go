package chaos

import (
	"fmt"
	"testing"
)

// TestRecoverChecker runs the recover engine across several seeds at a
// reduced op count. Any prefix-consistency violation, lost ack, or
// fail-stop breach fails the test with the seed to reproduce.
func TestRecoverChecker(t *testing.T) {
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	for _, seed := range []int64{1, 2, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep := Lookup("recover").Run(seed, Options{Ops: ops})
			if !rep.OK() {
				for _, f := range rep.Failures {
					t.Errorf("seed %d: %s", seed, f)
				}
			}
			if rep.Kills == 0 {
				t.Errorf("seed %d: run finished with zero crash-recover cycles", seed)
			}
			t.Logf("seed %d: ops=%d kills=%d fired=%d", seed, rep.Ops, rep.Kills, rep.Fired)
		})
	}
}
