package binder

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"maxoid/internal/kernel"
	"maxoid/internal/metrics"
)

func echoHandler(tag string) Handler {
	return HandlerFunc(func(from Caller, code string, data Parcel) (Parcel, error) {
		return Parcel{"tag": tag, "code": code, "from": from.Task.String()}, nil
	})
}

func TestSystemEndpointReachableByAll(t *testing.T) {
	r := NewRouter()
	r.RegisterSystem("activity", echoHandler("ams"))

	initiator := Caller{Task: kernel.Task{App: "a"}}
	delegate := Caller{Task: kernel.Task{App: "b", Initiator: "a"}}

	for _, c := range []Caller{initiator, delegate} {
		reply, err := r.Call(c, "activity", "ping", nil)
		if err != nil {
			t.Fatalf("call from %s: %v", c.Task, err)
		}
		if reply.String("tag") != "ams" {
			t.Errorf("reply = %v", reply)
		}
	}
}

func TestDelegateBinderRestriction(t *testing.T) {
	r := NewRouter()
	r.RegisterApp("app:a", kernel.Task{App: "a"}, echoHandler("a"))
	r.RegisterApp("app:c^a", kernel.Task{App: "c", Initiator: "a"}, echoHandler("c^a"))
	r.RegisterApp("app:evil", kernel.Task{App: "evil"}, echoHandler("evil"))
	r.RegisterApp("app:c^x", kernel.Task{App: "c", Initiator: "x"}, echoHandler("c^x"))

	delegate := Caller{Task: kernel.Task{App: "b", Initiator: "a"}}

	// Allowed: initiator and same-initiator delegates.
	if _, err := r.Call(delegate, "app:a", "msg", nil); err != nil {
		t.Errorf("delegate->initiator: %v", err)
	}
	if _, err := r.Call(delegate, "app:c^a", "msg", nil); err != nil {
		t.Errorf("delegate->sibling delegate: %v", err)
	}
	// Denied: unrelated app and other-initiator delegates.
	if _, err := r.Call(delegate, "app:evil", "msg", nil); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Errorf("delegate->unrelated: %v, want EPERM", err)
	}
	if _, err := r.Call(delegate, "app:c^x", "msg", nil); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Errorf("delegate->foreign delegate: %v, want EPERM", err)
	}
	// Initiators are unrestricted at the Binder level.
	initiator := Caller{Task: kernel.Task{App: "a"}}
	if _, err := r.Call(initiator, "app:evil", "msg", nil); err != nil {
		t.Errorf("initiator->any: %v", err)
	}
}

func TestUnknownEndpoint(t *testing.T) {
	r := NewRouter()
	if _, err := r.Call(Caller{}, "nope", "x", nil); !errors.Is(err, ErrNoEndpoint) {
		t.Errorf("unknown endpoint: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRouter()
	r.RegisterApp("app:a", kernel.Task{App: "a"}, echoHandler("a"))
	r.Unregister("app:a")
	if _, err := r.Call(Caller{Task: kernel.Task{App: "x"}}, "app:a", "x", nil); !errors.Is(err, ErrNoEndpoint) {
		t.Errorf("after unregister: %v", err)
	}
}

func TestParcelAccessors(t *testing.T) {
	p := Parcel{
		"s":  "str",
		"i":  int64(7),
		"i2": 9,
		"b":  []byte{1, 2},
		"t":  true,
	}
	if p.String("s") != "str" || p.String("missing") != "" {
		t.Error("String accessor")
	}
	if p.Int("i") != 7 || p.Int("i2") != 9 || p.Int("missing") != 0 {
		t.Error("Int accessor")
	}
	if len(p.Bytes("b")) != 2 || p.Bytes("missing") != nil {
		t.Error("Bytes accessor")
	}
	if !p.Bool("t") || p.Bool("missing") {
		t.Error("Bool accessor")
	}
}

// valueEcho replies with the request parcel's "v" field.
var valueEcho = HandlerFunc(func(from Caller, code string, data Parcel) (Parcel, error) {
	return Parcel{"v": data.Int("v")}, nil
})

// flakyGate rejects the first n admission attempts with ErrOverloaded.
type flakyGate struct {
	rejectFirst atomic.Int64
	admitted    atomic.Int64
	released    atomic.Int64
}

func (g *flakyGate) Admit(from Caller, endpoint, code string, n int) (func(), error) {
	if g.rejectFirst.Add(-1) >= 0 {
		return nil, fmt.Errorf("ams: app %s: %w", from.Task.App, ErrOverloaded)
	}
	g.admitted.Add(int64(n))
	return func() { g.released.Add(int64(n)) }, nil
}

func TestCallIdempotentRetriesOverload(t *testing.T) {
	// CallIdempotent must treat admission rejections as
	// retryable: two injected ErrOverloaded rejections, then success.
	r := NewRouter()
	r.RegisterSystem("svc", valueEcho)
	g := &flakyGate{}
	g.rejectFirst.Store(2)
	r.SetAdmission(g)
	r.SetRetryPolicy(RetryPolicy{Attempts: 4, Base: time.Microsecond, Max: time.Millisecond})

	reply, err := r.CallIdempotent(Caller{Task: kernel.Task{App: "a"}}, "svc", "echo", Parcel{"v": int64(7)})
	if err != nil {
		t.Fatalf("CallIdempotent should have succeeded across overload: %v", err)
	}
	if reply.Int("v") != 7 {
		t.Fatalf("reply = %v", reply)
	}
	if g.admitted.Load() != 1 || g.released.Load() != 1 {
		t.Fatalf("admitted/released = %d/%d, want 1/1", g.admitted.Load(), g.released.Load())
	}
}

func TestCallIdempotentExhaustsOverload(t *testing.T) {
	r := NewRouter()
	r.RegisterSystem("svc", valueEcho)
	g := &flakyGate{}
	g.rejectFirst.Store(1 << 30)
	r.SetAdmission(g)
	r.SetRetryPolicy(RetryPolicy{Attempts: 3, Base: time.Microsecond, Max: time.Millisecond})
	_, err := r.CallIdempotent(Caller{Task: kernel.Task{App: "a"}}, "svc", "echo", Parcel{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retries should surface typed ErrOverloaded, got %v", err)
	}
}

func TestRouterMetrics(t *testing.T) {
	r := NewRouter()
	r.RegisterSystem("svc", valueEcho)
	reg := metrics.NewRegistry()
	r.SetMetrics(reg)
	from := Caller{Task: kernel.Task{App: "a"}}
	if _, err := r.Call(from, "svc", "echo", Parcel{"v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	g := &flakyGate{}
	g.rejectFirst.Store(1)
	r.SetAdmission(g)
	if _, err := r.Call(from, "svc", "echo", Parcel{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("gate rejection = %v, want ErrOverloaded", err)
	}
	if n := reg.Histogram("binder.call").Snapshot().Count; n != 2 {
		t.Fatalf("binder.call count = %d, want 2", n)
	}
	if n := reg.Counter("binder.rejected").Total(); n != 1 {
		t.Fatalf("binder.rejected = %d, want 1", n)
	}
}
