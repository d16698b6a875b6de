package kernel

import (
	"errors"
	"testing"

	"maxoid/internal/mount"
	"maxoid/internal/netstack"
)

func TestTaskNotation(t *testing.T) {
	b := Task{App: "pdfviewer"}
	if b.IsDelegate() || b.String() != "pdfviewer" {
		t.Errorf("plain task: %v %q", b.IsDelegate(), b.String())
	}
	ba := Task{App: "pdfviewer", Initiator: "email"}
	if !ba.IsDelegate() || ba.String() != "pdfviewer^email" {
		t.Errorf("delegate task: %v %q", ba.IsDelegate(), ba.String())
	}
	// Running on behalf of itself is not a delegate.
	self := Task{App: "email", Initiator: "email"}
	if self.IsDelegate() {
		t.Error("self-initiated task reported as delegate")
	}
}

func TestUIDAssignment(t *testing.T) {
	k := New(nil)
	a := k.AssignUID("app.a")
	b := k.AssignUID("app.b")
	if a == b {
		t.Error("two apps share a UID")
	}
	if a < FirstAppUID || b < FirstAppUID {
		t.Errorf("UIDs below app range: %d %d", a, b)
	}
	if k.AssignUID("app.a") != a {
		t.Error("UID not stable across calls")
	}
}

func TestSpawnAndKill(t *testing.T) {
	k := New(nil)
	p := k.Spawn(Task{App: "a"}, k.AssignUID("a"), mount.New())
	if !p.Alive() {
		t.Error("fresh process not alive")
	}
	got, ok := k.Process(p.PID)
	if !ok || got != p {
		t.Error("process table lookup failed")
	}
	if err := k.Kill(p.PID); err != nil {
		t.Fatal(err)
	}
	if p.Alive() {
		t.Error("killed process still alive")
	}
	if _, ok := k.Process(p.PID); ok {
		t.Error("killed process still in table")
	}
	if err := k.Kill(p.PID); !errors.Is(err, ErrDeadProcess) {
		t.Errorf("double kill: %v", err)
	}
}

func TestNetworkGate(t *testing.T) {
	net := netstack.New(0, 0)
	srv := netstack.NewStaticFileServer()
	srv.Put("/f", []byte("data"))
	net.Register("example.com", srv)
	k := New(net)

	// Initiators can connect.
	initiator := k.Spawn(Task{App: "browser"}, k.AssignUID("browser"), mount.New())
	conn, err := initiator.Connect("example.com")
	if err != nil {
		t.Fatalf("initiator connect: %v", err)
	}
	resp, err := conn.Do("/f", nil)
	if err != nil || string(resp.Body) != "data" {
		t.Errorf("fetch = %q, %v", resp.Body, err)
	}

	// Delegates get ENETUNREACH.
	delegate := k.Spawn(Task{App: "pdfviewer", Initiator: "email"}, k.AssignUID("pdfviewer"), mount.New())
	if _, err := delegate.Connect("example.com"); !errors.Is(err, ErrNetUnreachable) {
		t.Errorf("delegate connect: %v, want ErrNetUnreachable", err)
	}

	// Dead processes cannot connect.
	k.Kill(initiator.PID)
	if _, err := initiator.Connect("example.com"); !errors.Is(err, ErrDeadProcess) {
		t.Errorf("dead connect: %v, want ErrDeadProcess", err)
	}
}

func TestCheckBinderPolicy(t *testing.T) {
	system := true
	app := false
	a := "initiatorA"
	cases := []struct {
		name     string
		from     Task
		toSystem bool
		to       Task
		allow    bool
	}{
		{"initiator to anyone", Task{App: "x"}, app, Task{App: "y"}, true},
		{"initiator to system", Task{App: "x"}, system, Task{}, true},
		{"delegate to system", Task{App: "b", Initiator: a}, system, Task{}, true},
		{"delegate to its initiator", Task{App: "b", Initiator: a}, app, Task{App: a}, true},
		{"delegate to same-initiator delegate", Task{App: "b", Initiator: a}, app, Task{App: "c", Initiator: a}, true},
		{"delegate to unrelated app", Task{App: "b", Initiator: a}, app, Task{App: "evil"}, false},
		{"delegate to other-initiator delegate", Task{App: "b", Initiator: a}, app, Task{App: "c", Initiator: "other"}, false},
		{"delegate to initiator running as delegate of other", Task{App: "b", Initiator: a}, app, Task{App: a, Initiator: "other"}, false},
	}
	for _, tc := range cases {
		err := CheckBinder(tc.from, tc.toSystem, tc.to)
		if tc.allow && err != nil {
			t.Errorf("%s: unexpected deny: %v", tc.name, err)
		}
		if !tc.allow && !errors.Is(err, ErrPermissionDenied) {
			t.Errorf("%s: expected EPERM, got %v", tc.name, err)
		}
	}
}
