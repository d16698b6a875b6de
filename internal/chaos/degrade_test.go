package chaos

import (
	"fmt"
	"testing"
)

// TestDegradeChecker runs the degrade engine across several seeds at a
// reduced op count. Any durability, consistency, confinement, typing,
// or recovery violation fails the test with the seed to reproduce.
func TestDegradeChecker(t *testing.T) {
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	for _, seed := range []int64{1, 2, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep := Lookup("degrade").Run(seed, Options{Ops: ops})
			if !rep.OK() {
				for _, f := range rep.Failures {
					t.Errorf("seed %d: %s", seed, f)
				}
			}
			if rep.Kills == 0 {
				t.Errorf("seed %d: run finished with zero crash-recover cycles", seed)
			}
			if rep.Fired == 0 {
				t.Errorf("seed %d: run finished with zero injected faults", seed)
			}
			t.Logf("seed %d: ops=%d kills=%d fired=%d", seed, rep.Ops, rep.Kills, rep.Fired)
		})
	}
}

// TestDegradeCheckerFullVolume checks the acceptance floor: a
// default-size run must drive at least 300 injected storage faults.
func TestDegradeCheckerFullVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("full-volume run skipped in -short mode")
	}
	rep := Lookup("degrade").Run(99, Options{})
	if !rep.OK() {
		for _, f := range rep.Failures {
			t.Errorf("seed 99: %s", f)
		}
	}
	if rep.Fired < 300 {
		t.Errorf("default run fired %d faults, want >= 300", rep.Fired)
	}
	t.Logf("seed 99: ops=%d kills=%d fired=%d", rep.Ops, rep.Kills, rep.Fired)
}
