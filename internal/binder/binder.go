// Package binder simulates Android's Binder IPC: a registry of named
// endpoints and synchronous transactions between processes. Maxoid's
// kernel-level Binder restriction (paper §3.4, §6.2) is enforced on
// every transaction through the kernel's CheckBinder policy: a delegate
// can only transact with trusted system services, its initiator, and
// delegates of the same initiator.
package binder

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"maxoid/internal/fault"
	"maxoid/internal/health"
	"maxoid/internal/kernel"
	"maxoid/internal/metrics"
	"maxoid/internal/shard"
)

// ErrNoEndpoint is returned for transactions to unregistered endpoints.
var ErrNoEndpoint = errors.New("binder: no such endpoint")

// ErrCallTimeout is returned when a transaction exceeds the router's
// call deadline — the ANR watchdog. The handler may still be running;
// only the caller is released.
var ErrCallTimeout = errors.New("binder: call timed out (ANR)")

// ErrOverloaded is returned when an installed admission gate rejects a
// transaction: the per-app token bucket is empty or the global
// in-flight ceiling is reached. It is retryable — CallIdempotent backs
// off and re-issues, so overload degrades into bounded added latency
// instead of queue collapse.
var ErrOverloaded = errors.New("binder: overloaded")

// faultCall injects transaction failures before the policy check and
// handler run, modeling a dead endpoint process (see internal/fault).
var faultCall = fault.Declare("binder.call", "Binder transaction: fail before the policy check and handler")

// Parcel is the transaction payload, a loosely typed key/value bag like
// Android's Parcel/Bundle.
type Parcel map[string]interface{}

// String fetches a string field ("" if absent or wrong type).
func (p Parcel) String(key string) string {
	s, _ := p[key].(string)
	return s
}

// Int fetches an int64 field (0 if absent or wrong type).
func (p Parcel) Int(key string) int64 {
	switch v := p[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	}
	return 0
}

// Bytes fetches a []byte field (nil if absent).
func (p Parcel) Bytes(key string) []byte {
	b, _ := p[key].([]byte)
	return b
}

// Bool fetches a bool field.
func (p Parcel) Bool(key string) bool {
	b, _ := p[key].(bool)
	return b
}

// Caller identifies the sender of a transaction; endpoints use it for
// their own access decisions (e.g. the COW proxy's view selection).
type Caller struct {
	PID  int
	UID  int
	Task kernel.Task
}

// Handler processes transactions addressed to one endpoint.
type Handler interface {
	OnTransact(from Caller, code string, data Parcel) (Parcel, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from Caller, code string, data Parcel) (Parcel, error)

// OnTransact calls f.
func (f HandlerFunc) OnTransact(from Caller, code string, data Parcel) (Parcel, error) {
	return f(from, code, data)
}

// endpoint couples a handler with the identity the policy checks and
// the endpoint's lifecycle state. Endpoints are stored by pointer so a
// caller and Unregister (or link-to-death) racing on the same name
// agree on one shared dead flag: an in-flight transaction either
// entered before death and runs to completion, or observes dead and
// fails with kernel.ErrDeadProcess. There is no half-removed state.
type endpoint struct {
	handler Handler
	system  bool
	task    kernel.Task // meaningful when !system
	pid     int         // owning process, 0 for system endpoints

	dead     atomic.Bool
	inflight atomic.Int64
}

// enter claims an in-flight slot; it fails once the endpoint is dead.
func (e *endpoint) enter() bool {
	e.inflight.Add(1)
	if e.dead.Load() {
		e.inflight.Add(-1)
		return false
	}
	return true
}

func (e *endpoint) exit() { e.inflight.Add(-1) }

// RetryPolicy bounds CallIdempotent's exponential backoff.
type RetryPolicy struct {
	Attempts int           // total attempts, including the first
	Base     time.Duration // delay before the second attempt
	Max      time.Duration // backoff cap
}

// DefaultRetryPolicy is tuned for the in-memory simulation: retries
// are about giving a supervised restart time to complete, not about
// real network flakiness.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 50 * time.Millisecond}
}

// Router delivers transactions and enforces the Maxoid Binder policy.
// The endpoint registry is sharded by name so transactions from
// independent instances do not serialize on one registry lock.
type Router struct {
	endpoints *shard.Map[string, *endpoint]

	// timeoutNS is the ANR watchdog deadline in nanoseconds; 0 disables
	// the watchdog (calls run inline on the caller's goroutine).
	timeoutNS atomic.Int64
	anrs      atomic.Int64
	retry     atomic.Pointer[RetryPolicy]

	// kern is set by WatchKernel; with it, transactions from PIDs the
	// kernel knows to be dead are rejected (a dead process must not
	// keep creating state through system services).
	kern atomic.Pointer[kernel.Kernel]

	// gate is the installed admission gate (SetAdmission); nil means
	// every transaction is admitted.
	gate atomic.Pointer[AdmissionGate]

	// met holds the resolved metrics instruments (SetMetrics); nil means
	// no latency recording, and the hot path pays only one atomic load.
	met atomic.Pointer[routerMetrics]
}

// routerMetrics caches the histogram/counter pointers so the per-call
// path never does a registry lookup.
type routerMetrics struct {
	call       *metrics.Histogram
	batch      *metrics.Histogram
	batchItems *metrics.Counter
	rejected   *metrics.Counter
}

// SetMetrics wires the router's latency histograms and throughput
// counters into a metrics registry (nil unwires). Recorded series:
// "binder.call" (per-transaction latency), "binder.batch" (per-batch
// dispatch latency), counters "binder.batch.items" and
// "binder.rejected" (admission rejections).
func (r *Router) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		r.met.Store(nil)
		return
	}
	r.met.Store(&routerMetrics{
		call:       reg.Histogram("binder.call"),
		batch:      reg.Histogram("binder.batch"),
		batchItems: reg.Counter("binder.batch.items"),
		rejected:   reg.Counter("binder.rejected"),
	})
}

// metricsStart returns the wall-clock start time when metrics are
// wired, and the zero time otherwise (skipping the clock read).
func (r *Router) metricsStart() time.Time {
	if r.met.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// NewRouter creates an empty router.
func NewRouter() *Router {
	r := &Router{endpoints: shard.NewMap[string, *endpoint](shard.StringHash)}
	p := DefaultRetryPolicy()
	r.retry.Store(&p)
	return r
}

// WatchKernel wires binder link-to-death: when a process dies, every
// endpoint it owns is marked dead and removed, so new transactions to
// it fail fast with kernel.ErrDeadProcess instead of hanging on a
// process that will never answer.
func (r *Router) WatchKernel(k *kernel.Kernel) {
	r.kern.Store(k)
	k.WatchDeaths(func(ev kernel.DeathEvent) {
		r.endpoints.Range(func(name string, ep *endpoint) bool {
			if ep.pid != 0 && ep.pid == ev.PID {
				ep.dead.Store(true)
				r.endpoints.Delete(name)
			}
			return true
		})
	})
}

// SetCallTimeout arms the ANR watchdog: transactions that run longer
// than d fail with ErrCallTimeout. Zero disables the watchdog.
func (r *Router) SetCallTimeout(d time.Duration) { r.timeoutNS.Store(int64(d)) }

// ANRs reports how many transactions the watchdog timed out.
func (r *Router) ANRs() int64 { return r.anrs.Load() }

// SetRetryPolicy replaces the idempotent-call retry policy.
func (r *Router) SetRetryPolicy(p RetryPolicy) { r.retry.Store(&p) }

// RegisterSystem registers a trusted system service endpoint (Activity
// Manager, content providers, Clipboard, ...). System endpoints are
// reachable by everyone, including delegates, and have no owning
// process — link-to-death never removes them.
func (r *Router) RegisterSystem(name string, h Handler) {
	r.endpoints.Store(name, &endpoint{handler: h, system: true})
}

// RegisterApp registers an app instance endpoint owned by task, with
// no process linkage (tests, standalone routers).
func (r *Router) RegisterApp(name string, task kernel.Task, h Handler) {
	r.RegisterOwned(name, task, 0, h)
}

// RegisterOwned registers an app endpoint owned by a process; when
// that PID dies the endpoint dies with it (link-to-death).
func (r *Router) RegisterOwned(name string, task kernel.Task, pid int, h Handler) {
	r.endpoints.Store(name, &endpoint{handler: h, task: task, pid: pid})
}

// Unregister removes an endpoint (app death). In-flight transactions
// that already entered complete normally; transactions racing the
// removal fail with either ErrNoEndpoint (lookup after delete) or
// kernel.ErrDeadProcess (lookup before, entry after) — never a
// half-removed endpoint.
func (r *Router) Unregister(name string) {
	ep, ok := r.endpoints.Get(name)
	if !ok {
		return
	}
	ep.dead.Store(true)
	r.endpoints.Delete(name)
}

// NumEndpoints returns the registered endpoint count (leak counter).
func (r *Router) NumEndpoints() int { return r.endpoints.Len() }

// Call performs a synchronous transaction from the caller to the named
// endpoint, enforcing the kernel Binder policy first. Transactions to
// endpoints whose process has died fail fast with a typed
// kernel.ErrDeadProcess; with the watchdog armed, transactions that
// exceed the deadline fail with ErrCallTimeout.
func (r *Router) Call(from Caller, name string, code string, data Parcel) (Parcel, error) {
	start := r.metricsStart()
	reply, err := r.call(from, name, code, data)
	if m := r.met.Load(); m != nil {
		m.call.Observe(time.Since(start))
		if errors.Is(err, ErrOverloaded) {
			m.rejected.Inc()
		}
	}
	return reply, err
}

func (r *Router) call(from Caller, name string, code string, data Parcel) (Parcel, error) {
	if err := fault.Hit(faultCall); err != nil {
		return nil, fmt.Errorf("binder: transaction to %s failed: %w", name, err)
	}
	// A transaction from an exited process is dropped: its namespace and
	// views are already torn down, and letting it reach a provider would
	// re-create volatile state the reaper just reclaimed. PIDs the
	// kernel never spawned (system callers, tests) pass through.
	if k := r.kern.Load(); k != nil && k.Exited(from.PID) {
		return nil, fmt.Errorf("binder: caller pid %d: %w", from.PID, kernel.ErrDeadProcess)
	}
	ep, ok := r.endpoints.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEndpoint, name)
	}
	if !ep.enter() {
		return nil, fmt.Errorf("binder: %s: %w", name, kernel.ErrDeadProcess)
	}
	if err := kernel.CheckBinder(from.Task, ep.system, ep.task); err != nil {
		ep.exit()
		return nil, err
	}
	release, err := r.admit(from, name, code, 1)
	if err != nil {
		ep.exit()
		return nil, err
	}
	d := time.Duration(r.timeoutNS.Load())
	if d <= 0 {
		defer ep.exit()
		reply, err := ep.handler.OnTransact(from, code, data)
		if release != nil {
			release()
		}
		return reply, err
	}

	// ANR watchdog: the handler runs on its own goroutine and keeps its
	// in-flight slot until it actually returns; the caller is released
	// at the deadline with a typed error.
	type result struct {
		reply Parcel
		err   error
	}
	done := make(chan result, 1)
	go func() {
		defer ep.exit()
		reply, err := ep.handler.OnTransact(from, code, data)
		if release != nil {
			release()
		}
		done <- result{reply, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case res := <-done:
		return res.reply, res.err
	case <-timer.C:
		r.anrs.Add(1)
		return nil, fmt.Errorf("binder: %s %s after %v: %w", name, code, d, ErrCallTimeout)
	}
}

// retryable reports whether an idempotent call may be re-attempted:
// the target died (a supervised restart may bring it back), was not
// yet re-registered, timed out, was rejected by admission control (the
// bucket refills; backing off is exactly the desired overload
// response), or was shed by a degraded read-only store (the store
// heals; the write was rejected before any mutation, so re-issuing is
// safe).
func retryable(err error) bool {
	return errors.Is(err, kernel.ErrDeadProcess) ||
		errors.Is(err, ErrNoEndpoint) ||
		errors.Is(err, ErrCallTimeout) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, health.ErrReadOnly)
}

// CallIdempotent performs a transaction that is safe to re-issue,
// retrying dead-process, missing-endpoint, and timeout failures with
// bounded exponential backoff. Non-retryable errors (policy denials,
// handler errors) surface immediately. The final error after exhausted
// retries wraps the last typed failure, so errors.Is still works.
func (r *Router) CallIdempotent(from Caller, name string, code string, data Parcel) (Parcel, error) {
	p := *r.retry.Load()
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	delay := p.Base
	var lastErr error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
			if p.Max > 0 && delay > p.Max {
				delay = p.Max
			}
		}
		reply, err := r.Call(from, name, code, data)
		if err == nil {
			return reply, nil
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("binder: idempotent call %s %s: %d attempts exhausted: %w",
		name, code, p.Attempts, lastErr)
}

// Endpoints returns the registered endpoint names (diagnostics).
func (r *Router) Endpoints() []string {
	out := make([]string, 0, r.endpoints.Len())
	r.endpoints.Range(func(name string, _ *endpoint) bool {
		out = append(out, name)
		return true
	})
	return out
}
