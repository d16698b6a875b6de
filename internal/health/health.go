// Package health is the storage health state machine for the Maxoid
// durability layer. A Tracker classifies storage errors into transient
// faults (EIO/ENOSPC-style conditions that may clear on retry) and
// permanent corruption, drives bounded retry with exponential backoff,
// and walks a per-store state machine:
//
//	healthy → degrading → read-only → poisoned
//	   ↑______________________|
//	         (Heal)
//
// The states:
//
//   - healthy: all operations served.
//   - degrading: transient faults observed; writes are being retried.
//   - read-only: retries exhausted. Reads and volatile operations keep
//     serving; durable writes are rejected with ErrReadOnly until the
//     store heals.
//   - poisoned: permanent corruption; the store is fail-stop
//     (terminal).
//
// The state machine is monotone except for Heal: any state except
// poisoned can return to healthy once faults clear, and nothing leaves
// poisoned. State reads are a single atomic load so hot paths can gate
// on health for free.
package health

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maxoid/internal/fault"
)

// State is a store's position in the health state machine.
type State int32

const (
	// Healthy: all operations served, no outstanding faults.
	Healthy State = iota
	// Degrading: transient faults observed recently; durable writes
	// are still accepted but are being retried with backoff.
	Degrading
	// ReadOnly: transient faults persisted past the retry budget.
	// Reads and volatile operations keep serving; durable writes are
	// rejected with ErrReadOnly until the store heals.
	ReadOnly
	// Poisoned: permanent corruption detected. Terminal; the store is
	// fail-stop and every durable operation returns its broken error.
	Poisoned
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degrading:
		return "degrading"
	case ReadOnly:
		return "read-only"
	case Poisoned:
		return "poisoned"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrReadOnly is returned for durable writes rejected while a store is
// in the ReadOnly state. It is strictly a *gate* error: an operation
// failing with ErrReadOnly performed no mutation at all — neither in
// memory nor on storage — so callers (binder retry, AMS admission) can
// treat it as retryable and re-issue the operation once the store
// heals.
var ErrReadOnly = errors.New("health: store is read-only")

// Class is the classification of a storage error.
type Class int

const (
	// ClassNone: no error.
	ClassNone Class = iota
	// ClassTransient: the fault may clear on retry (EIO, ENOSPC,
	// injected fault.ErrTransient, ...). The operation performed no
	// durable work.
	ClassTransient
	// ClassPermanent: corruption or an unclassified failure; retrying
	// cannot help and the store must be poisoned.
	ClassPermanent
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// transientErrnos are the syscall errors treated as retryable storage
// faults. EIO and ENOSPC are the canonical "disk had a moment" errors;
// the rest are resource-pressure conditions that clear on their own.
var transientErrnos = []syscall.Errno{
	syscall.EIO,
	syscall.ENOSPC,
	syscall.EDQUOT,
	syscall.EAGAIN,
	syscall.EINTR,
	syscall.ETIMEDOUT,
	syscall.EBUSY,
}

// Classify maps a storage error to its health class. Injected
// transient faults (fault.ErrTransient) and EIO/ENOSPC-style syscall
// errors are transient; everything else — torn frames, checksum
// mismatches, other injected faults — is permanent.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	if errors.Is(err, fault.ErrTransient) {
		return ClassTransient
	}
	for _, e := range transientErrnos {
		if errors.Is(err, e) {
			return ClassTransient
		}
	}
	return ClassPermanent
}

// Options configures a Tracker.
type Options struct {
	// MaxRetries bounds how many times a transiently-failing operation
	// is re-attempted before the store drops to ReadOnly. 0 means the
	// default (3).
	MaxRetries int
	// RetryBackoff is the initial sleep between retries; it doubles on
	// every attempt. 0 means the default (1ms).
	RetryBackoff time.Duration
	// OnTransition, if set, is called (outside the tracker lock) after
	// every state change with the old and new states.
	OnTransition func(from, to State)
	// OnRetry, if set, is called before each retry sleep with the
	// 1-based attempt number and the error that caused it. Used to
	// count retries in metrics.
	OnRetry func(attempt int, err error)
	// Sleep replaces time.Sleep for backoff; tests and the chaos
	// engine substitute a no-op to stay fast and deterministic.
	Sleep func(time.Duration)
}

// Tracker is one store's health state machine. All methods are safe
// for concurrent use; State is a single atomic load.
type Tracker struct {
	opts Options

	mu     sync.Mutex   // serializes transitions and guards broken
	st     atomic.Int32 // current State; lock-free reads
	broken error        // the poisoning error, set once, never cleared
}

// NewTracker builds a Tracker in the Healthy state.
func NewTracker(opts Options) *Tracker {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = time.Millisecond
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Tracker{opts: opts}
}

// State returns the current health state (one atomic load).
func (t *Tracker) State() State {
	return State(t.st.Load())
}

// Err returns the poisoning error when the tracker is Poisoned, or
// ErrReadOnly when it is ReadOnly, and nil otherwise. It is the error
// a gated durable write should surface.
func (t *Tracker) Err() error {
	switch t.State() {
	case Poisoned:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.broken
	case ReadOnly:
		return ErrReadOnly
	default:
		return nil
	}
}

// Writable reports whether durable writes are currently accepted.
func (t *Tracker) Writable() bool {
	s := t.State()
	return s == Healthy || s == Degrading
}

// transition moves the state machine, enforcing that nothing leaves
// Poisoned. Returns the states for the OnTransition hook, which the
// caller fires after dropping the lock.
func (t *Tracker) transition(to State, broken error) (from State, changed bool) {
	t.mu.Lock()
	from = State(t.st.Load())
	if from == Poisoned || from == to {
		t.mu.Unlock()
		return from, false
	}
	if to == Poisoned && t.broken == nil {
		t.broken = broken
	}
	t.st.Store(int32(to))
	t.mu.Unlock()
	return from, true
}

func (t *Tracker) fireTransition(from, to State) {
	if t.opts.OnTransition != nil {
		t.opts.OnTransition(from, to)
	}
}

// Degrade records an observed transient fault: Healthy becomes
// Degrading. ReadOnly and Poisoned are unchanged.
func (t *Tracker) Degrade() {
	if t.State() != Healthy {
		return
	}
	if from, ok := t.transition(Degrading, nil); ok {
		t.fireTransition(from, Degrading)
	}
}

// MarkReadOnly drops the store to ReadOnly (retries exhausted).
// Poisoned is unchanged.
func (t *Tracker) MarkReadOnly() {
	if from, ok := t.transition(ReadOnly, nil); ok {
		t.fireTransition(from, ReadOnly)
	}
}

// Poison marks permanent corruption with the causing error. Terminal:
// the first poisoning error wins and no later transition leaves it.
func (t *Tracker) Poison(err error) {
	if from, ok := t.transition(Poisoned, err); ok {
		t.fireTransition(from, Poisoned)
	}
}

// Heal restores Healthy from Degrading or ReadOnly after faults clear
// and any recovery work succeeded. Poisoned stores cannot heal.
// Returns whether the store is Healthy afterwards.
func (t *Tracker) Heal() bool {
	if t.State() == Poisoned {
		return false
	}
	if from, ok := t.transition(Healthy, nil); ok {
		t.fireTransition(from, Healthy)
	}
	return t.State() == Healthy
}

// ReportSuccess records a durably-completed write: a Degrading store
// returns to Healthy (the fault burst cleared on its own). ReadOnly is
// NOT auto-healed here — leaving ReadOnly requires an explicit Heal
// after recovery work (re-syncing memory with the log), because writes
// were rejected while read-only and the caller must reconcile first.
func (t *Tracker) ReportSuccess() {
	if t.State() != Degrading {
		return
	}
	if from, ok := t.transition(Healthy, nil); ok {
		t.fireTransition(from, Healthy)
	}
}

// Run executes op under the tracker's retry policy. Transient errors
// are retried up to MaxRetries times with exponential backoff, moving
// the store to Degrading; on exhaustion the store drops to ReadOnly
// and the *last transient error* is returned (NOT ErrReadOnly: the
// caller may have mutated in-memory state before attempting
// durability, so this failure is not a clean gate rejection).
// Permanent errors are returned immediately without retry; the caller
// is expected to poison. A nil result reports success.
func (t *Tracker) Run(op func() error) error {
	backoff := t.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		switch Classify(err) {
		case ClassNone:
			t.ReportSuccess()
			return nil
		case ClassPermanent:
			return err
		}
		// Transient: degrade and maybe retry.
		t.Degrade()
		if attempt >= t.opts.MaxRetries {
			t.MarkReadOnly()
			return err
		}
		if t.opts.OnRetry != nil {
			t.opts.OnRetry(attempt+1, err)
		}
		t.opts.Sleep(backoff)
		backoff *= 2
	}
}
