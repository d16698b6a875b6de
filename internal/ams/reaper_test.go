package ams

import (
	"errors"
	"sync"
	"testing"

	"maxoid/internal/binder"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/mount"
	"maxoid/internal/vfs"
	"maxoid/internal/zygote"
)

// recordDeaths watches k's deaths and returns a lookup of the reason
// each PID died with; ok is false for a PID whose death it never saw.
func recordDeaths(k *kernel.Kernel) func(pid int) (kernel.DeathReason, bool) {
	var mu sync.Mutex
	reasons := map[int]kernel.DeathReason{}
	k.WatchDeaths(func(ev kernel.DeathEvent) {
		mu.Lock()
		defer mu.Unlock()
		reasons[ev.PID] = ev.Reason
	})
	return func(pid int) (kernel.DeathReason, bool) {
		mu.Lock()
		defer mu.Unlock()
		reason, ok := reasons[pid]
		return reason, ok
	}
}

// TestConflictKillReclaimsResources covers the kill-on-conflict path
// (§6.2) end to end: when starting B^A kills the normal instance of B,
// the reaper must tear down everything the dead instance held — kernel
// process entry, mount namespace, Binder endpoint, URI grants — and
// record the death as a conflict.
func TestConflictKillReclaimsResources(t *testing.T) {
	m := newManager(t)
	deathReason := recordDeaths(m.kern)
	install(t, m, &testApp{pkg: "viewer"}, viewerManifest("viewer"))
	install(t, m, &testApp{pkg: "email"}, Manifest{Package: "email"})

	// Normal viewer instance, holding a URI grant it issued.
	vctx, err := m.StartActivity(nil, intent.Intent{Component: "viewer"})
	if err != nil {
		t.Fatal(err)
	}
	victimPID := vctx.PID()
	m.grants.add(victimPID, "email", "/data/data/viewer/shared.txt")
	if m.OutstandingGrants() != 1 {
		t.Fatalf("grants = %d, want 1", m.OutstandingGrants())
	}
	// Starting viewer as a delegate of email conflicts with the normal
	// instance and must kill it.
	ectx, err := m.StartActivity(nil, intent.Intent{Component: "email"})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline here: the delegate start adds one namespace and the
	// conflict kill must release the victim's — net zero.
	baseNS := mount.Live()
	dctx, err := ectx.StartActivity(intent.Intent{
		Action: intent.ActionView, Data: "/x", Flags: intent.FlagDelegate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dctx.IsDelegate() {
		t.Fatal("expected delegate start")
	}

	if m.KilledForConflict() != 1 {
		t.Fatalf("KilledForConflict = %d, want 1", m.KilledForConflict())
	}
	if vctx.Alive() {
		t.Fatal("conflicting instance still alive")
	}
	// Kernel: process gone, death recorded as conflict.
	if _, ok := m.kern.Process(victimPID); ok {
		t.Fatal("victim still in process table")
	}
	if reason, ok := deathReason(victimPID); !ok || reason != kernel.ReasonConflict {
		t.Fatalf("death reason = %v, %v; want conflict", reason, ok)
	}
	if got := mount.Live(); got != baseNS {
		t.Fatalf("live namespaces = %d, want %d", got, baseNS)
	}
	// Binder endpoint removed; calls fail typed.
	_, cerr := ectx.CallApp(kernel.Task{App: "viewer"}, "ping", nil)
	if !errors.Is(cerr, kernel.ErrDeadProcess) && !errors.Is(cerr, binder.ErrNoEndpoint) {
		t.Fatalf("call after conflict kill: want typed dead/no-endpoint, got %v", cerr)
	}
	// Grants issued by the dead process are revoked.
	if m.OutstandingGrants() != 0 {
		t.Fatalf("grants = %d after death, want 0", m.OutstandingGrants())
	}
	if m.Reaped() == 0 {
		t.Fatal("reaper processed no deaths")
	}
}

// TestStopInstanceReclaims: an orderly stop goes through the same
// reaper and releases the namespace and endpoint.
func TestStopInstanceReclaims(t *testing.T) {
	m := newManager(t)
	deathReason := recordDeaths(m.kern)
	install(t, m, &testApp{pkg: "viewer"}, viewerManifest("viewer"))
	baseNS := mount.Live()
	vctx, err := m.StartActivity(nil, intent.Intent{Component: "viewer"})
	if err != nil {
		t.Fatal(err)
	}
	m.StopInstance("viewer", "")
	if vctx.Alive() {
		t.Fatal("instance alive after stop")
	}
	if got := mount.Live(); got != baseNS {
		t.Fatalf("live namespaces = %d, want %d", got, baseNS)
	}
	if m.NumRunning() != 0 {
		t.Fatalf("running = %d, want 0", m.NumRunning())
	}
	if reason, ok := deathReason(vctx.PID()); !ok || reason != kernel.ReasonKilled {
		t.Fatalf("death reason = %v, %v; want killed", reason, ok)
	}
}

// TestCrashChargesRestartBudget: only crashes count against the
// restart budget; orderly kills do not.
func TestCrashChargesRestartBudget(t *testing.T) {
	m := newManager(t)
	install(t, m, &testApp{pkg: "viewer"}, viewerManifest("viewer"))

	vctx, _ := m.StartActivity(nil, intent.Intent{Component: "viewer"})
	_ = m.kern.Crash(vctx.PID())
	if got := m.zyg.Budget().Crashes("viewer"); got != 1 {
		t.Fatalf("crashes = %d, want 1", got)
	}

	vctx2, err := m.StartActivity(nil, intent.Intent{Component: "viewer"})
	if err != nil {
		// The first crash's backoff may still be open; that is the typed
		// budget error, and the test's point stands.
		if !errors.Is(err, zygote.ErrRestartBudgetExhausted) {
			t.Fatalf("restart: %v", err)
		}
		return
	}
	m.StopInstance("viewer", "")
	_ = vctx2
	if got := m.zyg.Budget().Crashes("viewer"); got != 1 {
		t.Fatalf("orderly kill charged the budget: crashes = %d, want 1", got)
	}
}

// TestLifecycleSentinels pins the errors.Is contracts the supervision
// layer promises.
func TestLifecycleSentinels(t *testing.T) {
	m := newManager(t)
	install(t, m, &testApp{pkg: "viewer"}, viewerManifest("viewer"))
	vctx, _ := m.StartActivity(nil, intent.Intent{Component: "viewer"})
	pid := vctx.PID()

	// Unknown PID: ErrNoSuchPID, not ErrDeadProcess.
	if err := m.kern.Kill(99999); !errors.Is(err, kernel.ErrNoSuchPID) {
		t.Fatalf("kill unknown pid: %v", err)
	}
	// First kill succeeds.
	if err := m.kern.Kill(pid); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// Second kill: idempotent, typed ErrDeadProcess.
	if err := m.kern.Kill(pid); !errors.Is(err, kernel.ErrDeadProcess) {
		t.Fatalf("double kill: %v", err)
	}
}

// TestDeadContextFailsTyped: every operation through a Context whose
// process was killed fails with kernel.ErrDeadProcess, and none of them
// starts an instance or records a URI grant on the dead sender's behalf.
func TestDeadContextFailsTyped(t *testing.T) {
	m := newManager(t)
	install(t, m, &testApp{pkg: "email"}, Manifest{Package: "email"})
	install(t, m, &testApp{pkg: "viewer"}, viewerManifest("viewer"))
	install(t, m, &testApp{pkg: "listener"}, Manifest{
		Package: "listener",
		Filters: []intent.Filter{{Actions: []string{"custom.EVENT"}}},
	})
	ctx, err := m.StartActivity(nil, intent.Intent{Component: "email"})
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.DataDir() + "/att.pdf"
	if err := vfs.WriteFile(ctx.FS(), ctx.Cred(), file, []byte("attachment"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := m.kern.Kill(ctx.PID()); err != nil {
		t.Fatal(err)
	}
	grants, running := m.OutstandingGrants(), m.NumRunning()

	fsys, cred := ctx.FS(), ctx.Cred()
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Stat", func() error { _, err := fsys.Stat(cred, file); return err }},
		{"Open", func() error { _, err := fsys.Open(cred, file, vfs.O_RDONLY, 0); return err }},
		{"ReadDir", func() error { _, err := fsys.ReadDir(cred, ctx.DataDir()); return err }},
		{"Mkdir", func() error { return fsys.Mkdir(cred, ctx.DataDir()+"/new", 0o700) }},
		{"Remove", func() error { return fsys.Remove(cred, file) }},
		{"Rename", func() error { return fsys.Rename(cred, file, file+".moved") }},
		{"Connect", func() error { _, err := ctx.Connect("example.com"); return err }},
		{"CallApp", func() error { _, err := ctx.CallApp(kernel.Task{App: "viewer"}, "ping", nil); return err }},
		{"CallProvider", func() error { _, err := ctx.CallProvider("user_dictionary", "scan", nil); return err }},
		{"Resolver query", func() error {
			_, err := ctx.Resolver().Query("content://user_dictionary/words", nil, "", "")
			return err
		}},
		{"StartActivity", func() error {
			_, err := ctx.StartActivity(intent.Intent{
				Action: intent.ActionView, Data: file, Flags: intent.FlagGrantReadURIPermission,
			})
			return err
		}},
		{"SendBroadcast", func() error { return ctx.SendBroadcast(intent.Intent{Action: "custom.EVENT"}) }},
	} {
		if err := op.run(); !errors.Is(err, kernel.ErrDeadProcess) {
			t.Errorf("%s through a dead context: %v, want ErrDeadProcess", op.name, err)
		}
		if got := m.OutstandingGrants(); got != grants {
			t.Errorf("%s: outstanding grants %d, want %d", op.name, got, grants)
		}
		if got := m.NumRunning(); got != running {
			t.Errorf("%s: running instances %d, want %d", op.name, got, running)
		}
	}
}
