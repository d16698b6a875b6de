package ams

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maxoid/internal/binder"
	"maxoid/internal/fault"
	"maxoid/internal/metrics"
	"maxoid/internal/shard"
)

// Admission control at the AMS boundary: per-app token-bucket rate
// limits plus a global in-flight ceiling, installed as the Binder
// router's AdmissionGate so every transaction into system services
// passes it before doing work. Overload degrades with typed,
// retryable rejections — binder.ErrOverloaded, which CallIdempotent
// backs off on — instead of unbounded queueing: p99 latency under
// overload is bounded by the retry policy, not by queue depth.

// faultAdmit lets the chaos engines force admission rejections without
// actually saturating the system (see internal/fault; point
// "ams.admit"). An injected hit rejects exactly like a real overload:
// typed, retryable, nothing admitted, nothing to release.
var faultAdmit = fault.Declare("ams.admit", "AMS admission: reject the transaction as overloaded before any work")

// AdmissionConfig tunes the controller.
type AdmissionConfig struct {
	// PerAppRate is the sustained per-app admission rate in
	// transactions per second. Zero disables per-app rate limiting.
	PerAppRate float64
	// PerAppBurst is the per-app bucket capacity — how far above the
	// sustained rate an app may spike. Defaults to max(1, PerAppRate).
	PerAppBurst float64
	// MaxInFlight is the global ceiling on concurrently admitted
	// transactions across all apps. Zero disables the ceiling.
	MaxInFlight int64
}

// bucket is one app's token bucket. The mutex is per-app, so the only
// contention on it is an app racing itself — which is exactly the load
// the bucket exists to bound.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   int64 // mono nanos of the last refill
}

// Admission is the AMS admission controller. It implements
// binder.AdmissionGate.
type Admission struct {
	cfg      AdmissionConfig
	epoch    time.Time // mono clock base
	buckets  *shard.Map[string, *bucket]
	inflight atomic.Int64

	admitted atomic.Int64
	rejected atomic.Int64

	// writeGate, when set, is consulted for write-class transaction
	// codes: a degraded durable store sheds writes at admission while
	// reads keep flowing (see SetWriteGate).
	writeGate atomic.Pointer[func() error]

	// met caches resolved instruments (SetMetrics), nil when unwired.
	met atomic.Pointer[admissionMetrics]
}

// NewAdmission creates a controller. The zero-valued config admits
// everything (useful as a wiring placeholder).
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.PerAppRate > 0 && cfg.PerAppBurst <= 0 {
		cfg.PerAppBurst = cfg.PerAppRate
		if cfg.PerAppBurst < 1 {
			cfg.PerAppBurst = 1
		}
	}
	return &Admission{
		cfg:     cfg,
		epoch:   time.Now(),
		buckets: shard.NewMap[string, *bucket](shard.StringHash),
	}
}

// admissionMetrics caches instrument pointers for the hot path.
type admissionMetrics struct {
	admitted *metrics.Counter
	rejected *metrics.Counter
	inflight *metrics.Histogram
}

// SetMetrics wires admission counters into a registry (nil unwires):
// counters "ams.admitted" and "ams.rejected", histogram "ams.inflight"
// sampling the global in-flight population at admission time.
func (a *Admission) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		a.met.Store(nil)
		return
	}
	a.met.Store(&admissionMetrics{
		admitted: reg.Counter("ams.admitted"),
		rejected: reg.Counter("ams.rejected"),
		inflight: reg.Histogram("ams.inflight"),
	})
}

// SetWriteGate wires the durable store's health gate into admission
// (nil unwires). When the gate reports the store degraded, admission
// rejects write-class codes with the gate's typed, retryable error
// before the transaction reaches its provider — the overload machinery
// sheds writes, not reads.
func (a *Admission) SetWriteGate(gate func() error) {
	if gate == nil {
		a.writeGate.Store(nil)
		return
	}
	a.writeGate.Store(&gate)
}

// writeCode reports codes that can mutate durable state: the provider
// mutation verbs. Unknown codes are treated as reads — the deeper
// vfs/sqldb gates still protect the store; admission shedding is an
// optimization, not the enforcement point.
func writeCode(code string) bool {
	switch code {
	case "insert", "update", "delete":
		return true
	}
	return false
}

// now returns monotonic nanoseconds since the controller's epoch.
func (a *Admission) now() int64 { return int64(time.Since(a.epoch)) }

// bucketFor returns the app's bucket, creating it full on first use.
func (a *Admission) bucketFor(app string) *bucket {
	if b, ok := a.buckets.Get(app); ok {
		return b
	}
	b := &bucket{tokens: a.cfg.PerAppBurst, last: a.now()}
	// Racing creators: last Store wins; the losing bucket held at most
	// a burst of optimism for one call. Store-then-Get keeps it simple.
	a.buckets.Store(app, b)
	return b
}

// Admit implements binder.AdmissionGate: n transactions from one app
// admitted as a unit. System callers (empty app identity — the AMS
// itself, device services, tests) bypass rate limiting but still count
// toward the global in-flight ceiling.
func (a *Admission) Admit(from binder.Caller, endpoint, code string, n int) (func(), error) {
	if err := fault.Hit(faultAdmit); err != nil {
		a.countReject(n)
		return nil, fmt.Errorf("ams: admission %s: %w (injected)", endpoint, binder.ErrOverloaded)
	}
	if gp := a.writeGate.Load(); gp != nil && writeCode(code) {
		if err := (*gp)(); err != nil {
			a.countReject(n)
			return nil, fmt.Errorf("ams: %s %s shed by degraded store: %w", endpoint, code, err)
		}
	}
	app := from.Task.App
	if a.cfg.PerAppRate > 0 && app != "" {
		if !a.bucketFor(app).take(a.now(), a.cfg, float64(n)) {
			a.countReject(n)
			return nil, fmt.Errorf("ams: app %s rate limit: %w", app, binder.ErrOverloaded)
		}
	}
	if a.cfg.MaxInFlight > 0 {
		if cur := a.inflight.Add(int64(n)); cur > a.cfg.MaxInFlight {
			a.inflight.Add(int64(-n))
			a.countReject(n)
			return nil, fmt.Errorf("ams: %d in flight exceeds ceiling %d: %w",
				cur, a.cfg.MaxInFlight, binder.ErrOverloaded)
		}
	}
	a.admitted.Add(int64(n))
	if m := a.met.Load(); m != nil {
		m.admitted.Add(int64(n))
		m.inflight.Observe(time.Duration(a.inflight.Load()))
	}
	nn := int64(n)
	return func() {
		if a.cfg.MaxInFlight > 0 {
			a.inflight.Add(-nn)
		}
	}, nil
}

func (a *Admission) countReject(n int) {
	a.rejected.Add(int64(n))
	if m := a.met.Load(); m != nil {
		m.rejected.Add(int64(n))
	}
}

// take refills the bucket for elapsed time and claims n tokens.
func (b *bucket) take(now int64, cfg AdmissionConfig, n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	elapsed := float64(now-b.last) / float64(time.Second)
	if elapsed > 0 {
		b.tokens += elapsed * cfg.PerAppRate
		if b.tokens > cfg.PerAppBurst {
			b.tokens = cfg.PerAppBurst
		}
		b.last = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Admitted and Rejected report cumulative admission outcomes, counted
// in transactions: an Admit of n counts n.
func (a *Admission) Admitted() int64 { return a.admitted.Load() }
func (a *Admission) Rejected() int64 { return a.rejected.Load() }

// InFlight reports the currently admitted transaction count (leak
// counter: must return to zero when the system drains).
func (a *Admission) InFlight() int64 { return a.inflight.Load() }

// EnableAdmissionControl creates an admission controller with the
// given config and installs it as the router's gate. It returns the
// controller for stats and metrics wiring. Pass a zero config to keep
// the gate installed but admit-everything (chaos still reaches the
// ams.admit fault point). On a durable boot the store's health gate
// (SetStoreGate) carries over into the controller, so write-class
// transactions are shed while the store is degraded.
func (m *Manager) EnableAdmissionControl(cfg AdmissionConfig) *Admission {
	a := NewAdmission(cfg)
	m.mu.Lock()
	a.SetWriteGate(m.storeGate)
	m.admission = a
	m.mu.Unlock()
	m.router.SetAdmission(a)
	return a
}

// SetStoreGate wires the durable store's write gate into the AMS (nil
// unwires). An already-installed admission controller picks it up
// immediately; controllers created later inherit it.
func (m *Manager) SetStoreGate(gate func() error) {
	m.mu.Lock()
	m.storeGate = gate
	a := m.admission
	m.mu.Unlock()
	if a != nil {
		a.SetWriteGate(gate)
	}
}
