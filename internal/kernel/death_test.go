package kernel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"maxoid/internal/mount"
)

func TestKillSentinels(t *testing.T) {
	k := New(nil)
	if err := k.Kill(12345); !errors.Is(err, ErrNoSuchPID) {
		t.Fatalf("unknown pid: %v", err)
	}
	p := k.Spawn(Task{App: "a"}, FirstAppUID, nil)
	if k.Exited(p.PID) || k.Exited(12345) || k.Exited(0) {
		t.Fatal("a live or never-spawned pid reported as exited")
	}
	if err := k.Kill(p.PID); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if !k.Exited(p.PID) {
		t.Fatal("killed pid not reported as exited")
	}
	if err := k.Kill(p.PID); !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("double kill: %v", err)
	}
	// ErrNoSuchPID and ErrDeadProcess are distinct classes.
	if errors.Is(k.Kill(p.PID), ErrNoSuchPID) {
		t.Fatal("dead pid misreported as never-spawned")
	}
}

func TestDeathEventAndWatcherOrder(t *testing.T) {
	k := New(nil)
	var order []string
	var reason DeathReason
	k.WatchDeaths(func(ev DeathEvent) { order = append(order, "first"); reason = ev.Reason })
	k.WatchDeaths(func(ev DeathEvent) { order = append(order, "second") })

	ns := mount.New()
	p := k.Spawn(Task{App: "a", Initiator: "b"}, FirstAppUID, ns)
	if err := k.Crash(p.PID); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("watcher order = %v", order)
	}
	if reason != ReasonCrash {
		t.Fatalf("reason = %v, want crash", reason)
	}
	if !k.Exited(p.PID) {
		t.Fatal("crashed pid not reported as exited")
	}
	if k.LiveProcesses() != 0 {
		t.Fatalf("live = %d", k.LiveProcesses())
	}
	// The namespace was closed: resolution fails with the death cause.
	if _, _, err := ns.Resolve("/anything"); !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("dead namespace still resolves: %v", err)
	}
}

// TestConcurrentKillOneWinner: racing kills of one PID produce exactly
// one death event; losers get ErrDeadProcess.
func TestConcurrentKillOneWinner(t *testing.T) {
	k := New(nil)
	var events atomic.Int64
	k.WatchDeaths(func(DeathEvent) { events.Add(1) })
	p := k.Spawn(Task{App: "a"}, FirstAppUID, nil)

	var wg sync.WaitGroup
	var wins, dead atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch err := k.Kill(p.PID); {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrDeadProcess):
				dead.Add(1)
			default:
				t.Errorf("unexpected: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 || dead.Load() != 7 || events.Load() != 1 {
		t.Fatalf("wins=%d dead=%d events=%d", wins.Load(), dead.Load(), events.Load())
	}
}

// TestDeadProcessesKeepNoMemory: the kernel keeps nothing of a process
// once it has exited, so 100,000 spawn+kill cycles leave the live heap
// less than 256 KB above where it started.
func TestDeadProcessesKeepNoMemory(t *testing.T) {
	k := New(nil)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < 100000; i++ {
		p := k.Spawn(Task{App: "a"}, FirstAppUID, nil)
		if err := k.Kill(p.PID); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(k)
	t.Logf("live heap grew by %d B", grew)
	if grew >= 256<<10 {
		t.Fatalf("live heap grew by %d B over 100,000 spawn+kill cycles, want < 256 KB", grew)
	}
}
