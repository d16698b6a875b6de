package binder

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"maxoid/internal/fault"
	"maxoid/internal/kernel"
)

// This file is the batched-transaction path of the fleet-scale load
// engine (ROADMAP item 3): TransactBatch carries N parcels through one
// endpoint dispatch, amortizing the endpoint lookup, the kernel policy
// check, the dead-caller check, enter/exit accounting, admission
// control, and — most importantly under an armed watchdog — the
// per-call goroutine spawn and ANR timer across the whole batch.

// BatchItem is one transaction of a batch: a code plus its parcel.
type BatchItem struct {
	Code string
	Data Parcel
}

// BatchResult carries the per-item outcomes of a delivered batch.
// Replies[i] and Errs[i] correspond to items[i]; exactly one of them is
// meaningful per slot (Errs[i] == nil means Replies[i] is the reply).
type BatchResult struct {
	Replies []Parcel
	Errs    []error
}

// BatchHandler is optionally implemented by endpoints that want to
// process a whole batch in one call (amortizing their own per-call
// setup); endpoints without it get OnTransact once per item.
type BatchHandler interface {
	OnTransactBatch(from Caller, items []BatchItem) BatchResult
}

// AdmissionGate is consulted (when installed) before a transaction or
// batch is dispatched. code is the transaction code being admitted
// ("*" for a batch mixing codes), so gates can shed by operation class
// — a degraded store rejects writes while reads keep flowing. n is the
// number of parcels being admitted as one unit. A nil error admits;
// release must then be called exactly once when the work completes. A
// non-nil error rejects the whole unit — gates reject with errors
// wrapping ErrOverloaded (overload) or health.ErrReadOnly (degraded
// store) so CallIdempotent knows the condition is retryable.
type AdmissionGate interface {
	Admit(from Caller, endpoint, code string, n int) (release func(), err error)
}

// SetAdmission installs the admission gate (nil uninstalls). The AMS
// installs its token-bucket controller here so every transaction into
// system services passes admission before doing work.
func (r *Router) SetAdmission(g AdmissionGate) {
	if g == nil {
		r.gate.Store(nil)
		return
	}
	r.gate.Store(&g)
}

// admit runs the installed admission gate, if any.
func (r *Router) admit(from Caller, endpoint, code string, n int) (func(), error) {
	gp := r.gate.Load()
	if gp == nil {
		return nil, nil
	}
	return (*gp).Admit(from, endpoint, code, n)
}

// batchCode reduces a batch to one admission code: the shared code when
// uniform, "*" when the batch mixes codes (gates treat "*" as
// potentially-writing).
func batchCode(items []BatchItem) string {
	if len(items) == 0 {
		return "*"
	}
	code := items[0].Code
	for _, it := range items[1:] {
		if it.Code != code {
			return "*"
		}
	}
	return code
}

// CallBatch delivers data parcels, all with one code, as a single
// batched dispatch. See TransactBatch for semantics.
func (r *Router) CallBatch(from Caller, name, code string, data []Parcel) (BatchResult, error) {
	items := make([]BatchItem, len(data))
	for i, d := range data {
		items[i] = BatchItem{Code: code, Data: d}
	}
	return r.TransactBatch(from, name, items)
}

// TransactBatch performs a batch of transactions to one endpoint as a
// single dispatch: one fault-point hit, one dead-caller check, one
// endpoint lookup, one enter/exit, one policy check, one admission
// unit, and one ANR watchdog arming for the whole batch.
//
// A batch-level error (the returned error) means no per-item results
// exist: the endpoint was missing or dead, the policy rejected the
// caller, admission rejected the batch (ErrOverloaded), or the watchdog
// released the caller (ErrCallTimeout; the handler may still be
// completing items whose effects stand, exactly like a single-call
// ANR). Otherwise Errs[i]/Replies[i] report each item.
func (r *Router) TransactBatch(from Caller, name string, items []BatchItem) (BatchResult, error) {
	start := r.metricsStart()
	res, err := r.transactBatch(from, name, items)
	if m := r.met.Load(); m != nil {
		m.batch.Observe(time.Since(start))
		m.batchItems.Add(int64(len(items)))
		if errors.Is(err, ErrOverloaded) {
			m.rejected.Add(int64(len(items)))
		}
	}
	return res, err
}

func (r *Router) transactBatch(from Caller, name string, items []BatchItem) (BatchResult, error) {
	if err := fault.Hit(faultCall); err != nil {
		return BatchResult{}, fmt.Errorf("binder: batch to %s failed: %w", name, err)
	}
	if k := r.kern.Load(); k != nil && k.Exited(from.PID) {
		return BatchResult{}, fmt.Errorf("binder: caller pid %d: %w", from.PID, kernel.ErrDeadProcess)
	}
	ep, ok := r.endpoints.Get(name)
	if !ok {
		return BatchResult{}, fmt.Errorf("%w: %s", ErrNoEndpoint, name)
	}
	if !ep.enter() {
		return BatchResult{}, fmt.Errorf("binder: %s: %w", name, kernel.ErrDeadProcess)
	}
	if err := kernel.CheckBinder(from.Task, ep.system, ep.task); err != nil {
		ep.exit()
		return BatchResult{}, err
	}
	release, err := r.admit(from, name, batchCode(items), len(items))
	if err != nil {
		ep.exit()
		return BatchResult{}, err
	}

	d := time.Duration(r.timeoutNS.Load())
	if d <= 0 {
		defer ep.exit()
		res := runBatch(ep.handler, from, items)
		if release != nil {
			release()
		}
		return res, nil
	}

	// One watchdog goroutine and one timer for the entire batch: the
	// dominant per-call dispatch cost under an armed watchdog, paid once.
	done := make(chan BatchResult, 1)
	go func() {
		defer ep.exit()
		res := runBatch(ep.handler, from, items)
		if release != nil {
			release()
		}
		done <- res
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case res := <-done:
		return res, nil
	case <-timer.C:
		r.anrs.Add(1)
		return BatchResult{}, fmt.Errorf("binder: %s batch of %d after %v: %w",
			name, len(items), d, ErrCallTimeout)
	}
}

// runBatch invokes the endpoint's batch handler, or falls back to
// per-item OnTransact.
func runBatch(h Handler, from Caller, items []BatchItem) BatchResult {
	if bh, ok := h.(BatchHandler); ok {
		return bh.OnTransactBatch(from, items)
	}
	res := BatchResult{
		Replies: make([]Parcel, len(items)),
		Errs:    make([]error, len(items)),
	}
	for i, it := range items {
		res.Replies[i], res.Errs[i] = h.OnTransact(from, it.Code, it.Data)
	}
	return res
}

// Parcel pooling. Fleet-scale callers allocate one parcel per op; the
// pool recycles them across calls. Ownership rule (see DESIGN.md): a
// pooled parcel is owned by the caller until the transaction returns,
// and must not be referenced after PutParcel — handlers must copy any
// value they retain past OnTransact, and callers must copy any reply
// value they keep past the next GetParcel on the same goroutine.
var parcelPool = sync.Pool{New: func() any { return make(Parcel, 8) }}

// GetParcel returns an empty parcel from the pool.
func GetParcel() Parcel {
	return parcelPool.Get().(Parcel)
}

// PutParcel clears the parcel and returns it to the pool. Putting nil
// is a no-op.
func PutParcel(p Parcel) {
	if p == nil {
		return
	}
	clear(p)
	parcelPool.Put(p)
}
