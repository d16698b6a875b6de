// Process-lifecycle supervision: death notification.
//
// Real Android survives app death because interested parties find out
// about it — binder's link-to-death fires, the Activity Manager reaps
// the process record, and everything the process pinned is released.
// This file gives the simulated kernel the same primitive: Kill (and
// its flavors) atomically transitions a process to dead, releases its
// kernel-owned resources (the mount namespace), and synchronously
// publishes a DeathEvent to every registered watcher.
//
// Watchers run on the killing goroutine, in registration order, after
// the process is already out of the process table and its namespace is
// closed. They must not call back into Kill for the same PID (it would
// just report ErrDeadProcess) and must not hold locks that the killing
// code path could also need — see DESIGN.md "Process lifecycle &
// supervision" for the reaper lock-ordering rules.
package kernel

import (
	"errors"
	"fmt"
	"sync"
)

// Typed lifecycle sentinels. Callers branch with errors.Is; everything
// the supervision layer surfaces wraps one of these.
var (
	// ErrDeadProcess is returned for operations addressed to a process
	// that existed but has exited (binder link-to-death, double kill).
	ErrDeadProcess = errors.New("kernel: process is dead")
	// ErrNoSuchPID is returned for operations on a PID that was never
	// spawned.
	ErrNoSuchPID = errors.New("kernel: no such pid")
)

// DeathReason classifies why a process died; the supervision layers
// react differently (only crashes count against the restart budget).
type DeathReason int

const (
	// ReasonKilled is an orderly kill: StopInstance, Clear-Vol/Priv,
	// shutdown. Does not count against the restart budget.
	ReasonKilled DeathReason = iota
	// ReasonCrash is an abnormal death (fault injection, app bug).
	ReasonCrash
	// ReasonConflict is the Maxoid kill-on-conflict path (§6.2): an
	// instance killed because the same app started in another context.
	ReasonConflict
)

func (r DeathReason) String() string {
	switch r {
	case ReasonKilled:
		return "killed"
	case ReasonCrash:
		return "crash"
	case ReasonConflict:
		return "conflict"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// DeathEvent describes one process exit.
type DeathEvent struct {
	PID    int
	UID    int
	Task   Task
	Reason DeathReason
}

// deathState is the death-watcher list. No record of exited PIDs is
// kept: PIDs are never reused, so Exited can tell a dead PID from one
// never spawned without one.
type deathState struct {
	watchMu  sync.RWMutex
	watchers []func(DeathEvent)
}

// WatchDeaths registers a watcher called synchronously for every
// process death, in registration order, on the killing goroutine.
func (k *Kernel) WatchDeaths(fn func(DeathEvent)) {
	k.deaths.watchMu.Lock()
	defer k.deaths.watchMu.Unlock()
	k.deaths.watchers = append(k.deaths.watchers, fn)
}

// Kill terminates a process in an orderly way (ReasonKilled). Killing
// an already-dead PID returns ErrDeadProcess; an unknown PID returns
// ErrNoSuchPID. Both are idempotent: no state changes, no events.
func (k *Kernel) Kill(pid int) error {
	return k.KillReason(pid, ReasonKilled)
}

// Crash terminates a process abnormally (ReasonCrash); the supervision
// layer counts it against the app's restart budget.
func (k *Kernel) Crash(pid int) error {
	return k.KillReason(pid, ReasonCrash)
}

// KillReason terminates a process with an explicit reason. Exactly one
// caller wins a concurrent kill race; the others get ErrDeadProcess.
// The winner removes the process from the table, closes its mount
// namespace (dropping the union branches mounted in it), and then
// notifies the death watchers.
func (k *Kernel) KillReason(pid int, reason DeathReason) error {
	p, ok := k.procs.Get(pid)
	if !ok {
		if k.Exited(pid) {
			return fmt.Errorf("kernel: kill %d: %w", pid, ErrDeadProcess)
		}
		return fmt.Errorf("kernel: kill %d: %w", pid, ErrNoSuchPID)
	}
	if !p.alive.CompareAndSwap(true, false) {
		return fmt.Errorf("kernel: kill %d: %w", pid, ErrDeadProcess)
	}
	k.procs.Delete(pid)
	// Release kernel-owned resources before anyone learns of the death:
	// watchers observe a process whose namespace is already gone, and
	// in-flight file operations fail fast with ErrDeadProcess.
	if p.NS != nil {
		_ = p.NS.CloseWith(ErrDeadProcess)
	}
	ev := DeathEvent{PID: pid, UID: p.UID, Task: p.Task, Reason: reason}
	k.deaths.watchMu.RLock()
	watchers := k.deaths.watchers
	k.deaths.watchMu.RUnlock()
	for _, w := range watchers {
		w(ev)
	}
	return nil
}

// Exited reports whether pid belonged to a process that has exited.
// PIDs count up from firstPID and are never reused, so a PID below
// the next one to be handed out was spawned, and it has exited when
// it is no longer a live entry in the process table. (A PID Spawn is
// still handing out reads as exited until Spawn returns it, before
// which no caller can hold it.) How a process died reaches the death
// watchers only.
func (k *Kernel) Exited(pid int) bool {
	if pid < firstPID || int64(pid) >= k.nextPID.Load() {
		return false
	}
	p, ok := k.procs.Get(pid)
	return !ok || !p.alive.Load()
}

// LiveProcesses returns the number of live processes — the leak
// counter the chaos engines compare against their baseline.
func (k *Kernel) LiveProcesses() int { return k.procs.Len() }
