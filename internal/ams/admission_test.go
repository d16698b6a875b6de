package ams

import (
	"errors"
	"sync"
	"testing"
	"time"

	"maxoid/internal/binder"
	"maxoid/internal/fault"
	"maxoid/internal/kernel"
	"maxoid/internal/metrics"
)

func caller(app string) binder.Caller {
	return binder.Caller{Task: kernel.Task{App: app}}
}

// drain admits-and-releases until the bucket rejects, returning how
// many admissions succeeded.
func drain(a *Admission, app string, max int) int {
	n := 0
	for i := 0; i < max; i++ {
		release, err := a.Admit(caller(app), "provider:x", "query", 1)
		if err != nil {
			return n
		}
		release()
		n++
	}
	return n
}

func TestAdmissionBurstThenReject(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerAppRate: 1000, PerAppBurst: 10})
	if got := drain(a, "app.a", 1000); got < 10 || got > 12 {
		// Real time elapses between takes, so a token or two may refill
		// mid-drain; the burst bound must still hold approximately.
		t.Fatalf("admitted %d before rejection, want ~burst of 10", got)
	}
	_, err := a.Admit(caller("app.a"), "provider:x", "query", 1)
	if !errors.Is(err, binder.ErrOverloaded) {
		t.Fatalf("rejection not typed: %v", err)
	}
	if a.Rejected() == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestAdmissionRefill(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerAppRate: 1000, PerAppBurst: 5})
	drain(a, "app.a", 100) // empty the bucket
	if _, err := a.Admit(caller("app.a"), "p", "query", 1); err == nil {
		t.Fatal("bucket should be empty")
	}
	// 1000 tokens/s: 10ms refills ~10 tokens, capped at burst 5.
	time.Sleep(10 * time.Millisecond)
	got := drain(a, "app.a", 100)
	if got < 3 || got > 7 {
		t.Fatalf("refill admitted %d, want ~burst 5", got)
	}
}

func TestAdmissionFairnessAcrossApps(t *testing.T) {
	// A greedy app exhausting its own bucket must not consume another
	// app's capacity: buckets are per-app.
	a := NewAdmission(AdmissionConfig{PerAppRate: 100, PerAppBurst: 8})
	if got := drain(a, "app.greedy", 1000); got < 8 || got > 10 {
		t.Fatalf("greedy admitted %d", got)
	}
	if _, err := a.Admit(caller("app.greedy"), "p", "query", 1); err == nil {
		t.Fatal("greedy app should be rejected")
	}
	if got := drain(a, "app.quiet", 8); got != 8 {
		t.Fatalf("quiet app admitted %d of its burst 8 — starved by greedy", got)
	}
}

func TestAdmissionGlobalCeiling(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 4})
	var releases []func()
	for i := 0; i < 4; i++ {
		release, err := a.Admit(caller("app.a"), "p", "query", 1)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		releases = append(releases, release)
	}
	if _, err := a.Admit(caller("app.b"), "p", "query", 1); !errors.Is(err, binder.ErrOverloaded) {
		t.Fatalf("ceiling breach not typed: %v", err)
	}
	if a.InFlight() != 4 {
		t.Fatalf("inflight = %d", a.InFlight())
	}
	releases[0]()
	if release, err := a.Admit(caller("app.b"), "p", "query", 1); err != nil {
		t.Fatalf("slot freed but rejected: %v", err)
	} else {
		release()
	}
	for _, r := range releases[1:] {
		r()
	}
	if a.InFlight() != 0 {
		t.Fatalf("inflight leaked: %d", a.InFlight())
	}
}

// TestAdmissionCeilingKeepsRateBudget: a transaction the in-flight
// ceiling rejects was never admitted, so it leaves the app's tokens in
// its bucket; once the ceiling clears, the app still admits a burst.
func TestAdmissionCeilingKeepsRateBudget(t *testing.T) {
	// A rate slow enough that no token refills during the test.
	a := NewAdmission(AdmissionConfig{PerAppRate: 0.001, PerAppBurst: 4, MaxInFlight: 1})
	hold, err := a.Admit(binder.Caller{}, "p", "query", 1) // fills the ceiling
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := a.Admit(caller("app.a"), "p", "query", 1); !errors.Is(err, binder.ErrOverloaded) {
			t.Fatalf("admit %d over the ceiling: %v", i, err)
		}
	}
	hold()
	if got := drain(a, "app.a", 10); got != 4 {
		t.Fatalf("after the ceiling cleared the app admitted %d, want its burst of 4", got)
	}
}

func TestAdmissionBatchUnits(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 10})
	release, err := a.Admit(caller("app.a"), "p", "query", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 8 {
		t.Fatalf("inflight = %d, want 8", a.InFlight())
	}
	if _, err := a.Admit(caller("app.b"), "p", "query", 8); !errors.Is(err, binder.ErrOverloaded) {
		t.Fatalf("8+8 over ceiling 10 should reject: %v", err)
	}
	release()
	if a.InFlight() != 0 {
		t.Fatalf("inflight = %d after release", a.InFlight())
	}
}

func TestAdmissionSystemCallersBypassRateLimit(t *testing.T) {
	a := NewAdmission(AdmissionConfig{PerAppRate: 1, PerAppBurst: 1})
	for i := 0; i < 50; i++ {
		release, err := a.Admit(binder.Caller{}, "p", "query", 1)
		if err != nil {
			t.Fatalf("system caller rejected: %v", err)
		}
		release()
	}
}

func TestAdmissionConcurrentCeiling(t *testing.T) {
	// Hammer the ceiling from many goroutines; in-flight must never
	// exceed the ceiling and must drain to zero.
	a := NewAdmission(AdmissionConfig{MaxInFlight: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				release, err := a.Admit(caller("app"), "p", "query", 1)
				if err != nil {
					continue
				}
				if n := a.InFlight(); n > 16 {
					t.Errorf("inflight %d exceeds ceiling", n)
				}
				release()
			}
		}()
	}
	wg.Wait()
	if a.InFlight() != 0 {
		t.Fatalf("inflight leaked: %d", a.InFlight())
	}
}

func TestAdmissionFaultPoint(t *testing.T) {
	// The ams.admit chaos hook forces typed rejections with zero
	// admitted work — the reject path the chaos engine drives.
	fault.Enable(1, fault.Spec{Point: "ams.admit", Prob: 1})
	defer fault.Disable()
	a := NewAdmission(AdmissionConfig{})
	_, err := a.Admit(caller("app.a"), "p", "query", 3)
	if !errors.Is(err, binder.ErrOverloaded) {
		t.Fatalf("injected rejection not typed: %v", err)
	}
	if a.Rejected() != 3 || a.Admitted() != 0 || a.InFlight() != 0 {
		t.Fatalf("rejected/admitted/inflight = %d/%d/%d",
			a.Rejected(), a.Admitted(), a.InFlight())
	}
}

func TestAdmissionThroughRouter(t *testing.T) {
	// End to end: the controller installed on a router rejects typed and
	// CallIdempotent rides out a transient rejection via refill.
	router := binder.NewRouter()
	router.RegisterSystem("svc", binder.HandlerFunc(
		func(binder.Caller, string, binder.Parcel) (binder.Parcel, error) {
			return binder.Parcel{"ok": true}, nil
		}))
	a := NewAdmission(AdmissionConfig{PerAppRate: 200, PerAppBurst: 1})
	router.SetAdmission(a)
	router.SetRetryPolicy(binder.RetryPolicy{Attempts: 10, Base: 2 * time.Millisecond, Max: 20 * time.Millisecond})

	// First call drains the burst; the second must get rejected inline
	// but succeed through idempotent retry once ~5ms of refill passes.
	if _, err := router.Call(caller("app.a"), "svc", "op", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Call(caller("app.a"), "svc", "op", nil); !errors.Is(err, binder.ErrOverloaded) {
		t.Fatalf("want inline rejection, got %v", err)
	}
	reply, err := router.CallIdempotent(caller("app.a"), "svc", "op", nil)
	if err != nil {
		t.Fatalf("CallIdempotent over refill: %v", err)
	}
	if !reply.Bool("ok") {
		t.Fatalf("reply = %v", reply)
	}
}

func TestAdmissionMetrics(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 4})
	reg := metrics.NewRegistry()
	a.SetMetrics(reg)
	release, err := a.Admit(caller("app.a"), "p", "query", 2)
	if err != nil {
		t.Fatal(err)
	}
	release()
	fault.Enable(1, fault.Spec{Point: "ams.admit", Prob: 1})
	a.Admit(caller("app.a"), "p", "query", 1)
	fault.Disable()
	tot := reg.Totals()
	if tot["ams.admitted"] != 2 || tot["ams.rejected"] != 1 {
		t.Fatalf("totals = %v", tot)
	}
}
