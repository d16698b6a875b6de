package fault

import (
	"errors"
	"reflect"
	"testing"
)

func init() {
	Declare("test.a", "test point a")
	Declare("test.b", "test point b")
}

func TestDisabledFastPath(t *testing.T) {
	Disable()
	if err := Hit("test.a"); err != nil {
		t.Fatalf("disabled Hit: %v", err)
	}
	n, err := PartialWrite("test.a", 100)
	if n != 100 || err != nil {
		t.Fatalf("disabled PartialWrite: %d, %v", n, err)
	}
	if tr := Trace(); len(tr) != 0 {
		t.Fatalf("disabled trace: %v", tr)
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func(seed int64) []Event {
		Enable(seed,
			Spec{Point: "test.a", Prob: 0.3, Op: OpError},
			Spec{Point: "test.b", Prob: 0.5, Op: OpPartial},
		)
		defer Disable()
		for i := 0; i < 200; i++ {
			Hit("test.a")
			PartialWrite("test.b", 64)
		}
		return Trace()
	}
	t1 := run(42)
	t2 := run(42)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed produced different traces")
	}
	t3 := run(43)
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
	fired := 0
	for _, e := range t1 {
		if e.Fired {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no faults fired at prob 0.3/0.5 over 400 hits")
	}
}

func TestTimes(t *testing.T) {
	Enable(1, Spec{Point: "test.a", Prob: 1, Times: 2, Op: OpError})
	defer Disable()
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, Hit("test.a") != nil)
	}
	want := []bool{true, true, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Times schedule = %v, want %v", got, want)
	}
}

func TestPartialWrite(t *testing.T) {
	Enable(7, Spec{Point: "test.a", Prob: 1, Times: 1, Op: OpPartial, Frac: 0.5})
	defer Disable()
	n, err := PartialWrite("test.a", 10)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	// After Times is exhausted, writes pass through untouched.
	n, err = PartialWrite("test.a", 10)
	if n != 10 || err != nil {
		t.Fatalf("exhausted point: %d, %v", n, err)
	}
}

func TestPartialNeverFull(t *testing.T) {
	Enable(9, Spec{Point: "test.a", Prob: 1, Op: OpPartial}) // random Frac
	defer Disable()
	for i := 0; i < 100; i++ {
		n, err := PartialWrite("test.a", 4)
		if err == nil {
			t.Fatal("partial fault did not surface error")
		}
		if n >= 4 || n < 0 {
			t.Fatalf("partial write count %d out of [0,4)", n)
		}
	}
}

func TestSuspendResume(t *testing.T) {
	Enable(1, Spec{Point: "test.a", Prob: 1, Op: OpError})
	defer Disable()
	Suspend()
	if err := Hit("test.a"); err != nil {
		t.Fatalf("suspended Hit fired: %v", err)
	}
	Resume()
	if err := Hit("test.a"); err == nil {
		t.Fatal("resumed Hit did not fire")
	}
	// Suspended hits are not counted or traced.
	tr := Trace()
	if len(tr) != 1 || tr[0].Hit != 1 {
		t.Fatalf("trace = %v, want single hit#1", tr)
	}
}

func TestScriptReplay(t *testing.T) {
	Enable(11, Spec{Point: "test.a", Prob: 0.4, Op: OpError})
	for i := 0; i < 50; i++ {
		Hit("test.a")
	}
	origTrace := Trace()
	Disable()
	var fires []Fire
	for _, e := range origTrace {
		if e.Fired {
			fires = append(fires, Fire{Point: e.Point, Hit: e.Hit, Op: e.Op})
		}
	}
	if len(fires) == 0 {
		t.Fatal("no fires to replay")
	}

	EnableScript(fires)
	Arm(0, Spec{Point: "test.a"})
	defer Disable()
	var replayFired []int
	for i := 0; i < 50; i++ {
		if Hit("test.a") != nil {
			replayFired = append(replayFired, i+1)
		}
	}
	var origFired []int
	for _, e := range origTrace {
		if e.Fired {
			origFired = append(origFired, e.Hit)
		}
	}
	if !reflect.DeepEqual(replayFired, origFired) {
		t.Fatalf("script replay fired at %v, original at %v", replayFired, origFired)
	}
}

func TestPointsRegistry(t *testing.T) {
	pts := Points()
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Name] = true
	}
	if !seen["test.a"] || !seen["test.b"] {
		t.Fatalf("declared points missing from registry: %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Name >= pts[i].Name {
			t.Fatal("Points not sorted")
		}
	}
}

func TestTransientOp(t *testing.T) {
	Enable(1, Spec{Point: "test.a", Prob: 1, Times: 1, Op: OpTransient})
	defer Disable()
	err := Hit("test.a")
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("ErrTransient must wrap ErrInjected")
	}
	if err := Hit("test.a"); err != nil {
		t.Fatalf("Times=1 spec fired twice: %v", err)
	}
}

func TestTransientPartialWrite(t *testing.T) {
	// A transient fault on a write path injects before any bytes land.
	Enable(1, Spec{Point: "test.a", Prob: 1, Times: 1, Op: OpTransient})
	defer Disable()
	n, err := PartialWrite("test.a", 100)
	if n != 0 || !errors.Is(err, ErrTransient) {
		t.Fatalf("PartialWrite = (%d, %v), want (0, ErrTransient)", n, err)
	}
}

func TestTransientScriptReplay(t *testing.T) {
	EnableScript([]Fire{{Point: "test.a", Hit: 2, Op: OpTransient}})
	Arm(0, Spec{Point: "test.a"})
	defer Disable()
	if err := Hit("test.a"); err != nil {
		t.Fatalf("hit 1 should pass: %v", err)
	}
	if err := Hit("test.a"); !errors.Is(err, ErrTransient) {
		t.Fatalf("hit 2 = %v, want ErrTransient", err)
	}
}

// TestArmKeepsHitsAndTrace pins the run-wide numbering: hits on every
// point count from the start of the run, armed or not, Arm keeps the
// counters and the trace, and under a script Arm only chooses which
// points may fire (with their hooks).
func TestArmKeepsHitsAndTrace(t *testing.T) {
	Enable(1, Spec{Point: "test.a", Prob: 1})
	defer Disable()
	Hit("test.a")
	Hit("test.a")
	for i := 0; i < 3; i++ {
		if err := Hit("test.b"); err != nil {
			t.Fatalf("unarmed test.b fired: %v", err)
		}
	}
	Arm(2, Spec{Point: "test.b", Prob: 1})
	if err := Hit("test.a"); err != nil {
		t.Fatalf("disarmed test.a fired: %v", err)
	}
	if err := Hit("test.b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed test.b = %v, want ErrInjected", err)
	}
	want := []Event{
		{Point: "test.a", Hit: 1, Fired: true},
		{Point: "test.a", Hit: 2, Fired: true},
		{Point: "test.b", Hit: 4, Fired: true},
	}
	if tr := Trace(); !reflect.DeepEqual(tr, want) {
		t.Fatalf("trace across Arm = %v, want %v", tr, want)
	}

	EnableScript([]Fire{{Point: "test.a", Hit: 2}, {Point: "test.b", Hit: 1}})
	if tr := Trace(); len(tr) != 0 {
		t.Fatalf("new run kept the old trace: %v", tr)
	}
	hooked := 0
	Arm(0, Spec{Point: "test.a", Hook: func() { hooked++ }})
	if err := Hit("test.b"); err != nil {
		t.Fatalf("scripted hit on unarmed test.b fired: %v", err)
	}
	if err := Hit("test.a"); err != nil {
		t.Fatalf("unscripted test.a#1 fired: %v", err)
	}
	if err := Hit("test.a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted test.a#2 = %v, want ErrInjected", err)
	}
	if hooked != 1 {
		t.Fatalf("hook ran %d times under the script, want 1", hooked)
	}
	want = []Event{{Point: "test.a", Hit: 1}, {Point: "test.a", Hit: 2, Fired: true}}
	if tr := Trace(); !reflect.DeepEqual(tr, want) {
		t.Fatalf("scripted trace = %v, want %v", tr, want)
	}
}
