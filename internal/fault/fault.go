// Package fault is a process-wide, seed-deterministic fault-injection
// registry for the Maxoid substrate. Packages declare named fault
// points at init time and consult them on hot state transitions
// (unionfs copy-up, sqldb commit, cowproxy view synthesis, ...); test
// harnesses start a run, arm a set of points, and get back an exact
// trace of what fired where.
//
// A run starts with Enable (probabilistic) or EnableScript (exact
// replay) and ends with Disable. Inside a run, every non-suspended hit
// on any declared point is counted from the start of the run, armed or
// not; Arm replaces the armed set without resetting those counters or
// the trace. Only hits on armed points are traced and may fire, so a
// harness can open and close fault windows mid-run and still name every
// fault by a run-wide (point, hit#) pair.
//
// Determinism: probabilistic decisions come from one PRNG, reseeded by
// each Arm and consulted under one lock in call order, so for
// single-goroutine harness runs the same seeds reproduce the identical
// schedule. EnableScript instead fires an armed point exactly at its
// scripted hits — replaying the fired events of a trace, which is what
// shrink-to-minimal uses. Hooks run under a script too.
//
// The disabled fast path is one atomic load, so instrumenting
// production code paths costs effectively nothing when no harness is
// attached.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrInjected is the error surfaced by fired error/partial-write
// faults. Harnesses use errors.Is(err, ErrInjected) to tell injected
// failures from genuine bugs.
var ErrInjected = errors.New("fault: injected failure")

// ErrTransient is the error surfaced by fired OpTransient faults: a
// retryable, EIO/ENOSPC-style storage failure that may clear on retry,
// as opposed to permanent corruption. It wraps ErrInjected, so every
// existing errors.Is(err, ErrInjected) check still recognizes it;
// health classification (internal/health) additionally matches
// ErrTransient to pick the retry path instead of poisoning.
var ErrTransient = fmt.Errorf("transient: %w", ErrInjected)

// Op selects what a fired fault does to the caller.
type Op int

const (
	// OpError makes Hit return ErrInjected.
	OpError Op = iota
	// OpPartial truncates the operation: PartialWrite returns a byte
	// count strictly less than requested, plus an injected error.
	OpPartial
	// OpTransient makes Hit return ErrTransient: a retryable storage
	// fault (the operation performed no work and may be re-attempted).
	OpTransient
)

func (o Op) String() string {
	switch o {
	case OpError:
		return "error"
	case OpPartial:
		return "partial"
	case OpTransient:
		return "transient"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Spec arms one fault point.
type Spec struct {
	Point string  // declared fault-point name
	Prob  float64 // chance of firing per hit, in (0,1]; ignored under a script
	Times int     // fire at most this many times per Arm; 0 = unlimited
	Op    Op
	Frac  float64 // fraction written for OpPartial, in [0,1); 0 = random

	// Hook, if set, runs on the hitting goroutine each time this point
	// fires, after the registry lock is released (so it may re-enter
	// fault or kill processes). The kill-chaos engine uses it to crash
	// a process in the middle of an instrumented operation.
	Hook func()
}

// Fire is one entry of a scripted schedule: fire at exactly the n-th
// hit (1-based, counted from the start of the run) of a point.
type Fire struct {
	Point string
	Hit   int
	Op    Op
	Frac  float64 // for OpPartial; 0 = half
}

// Event is one entry of a run's trace: a hit on an armed point and
// whether it fired.
type Event struct {
	Point string
	Hit   int // 1-based hit index at this point, counted from the start of the run
	Fired bool
	Op    Op
	Frac  float64 // for fired OpPartial
}

func (e Event) String() string {
	if !e.Fired {
		return fmt.Sprintf("%s#%d pass", e.Point, e.Hit)
	}
	if e.Op == OpPartial {
		return fmt.Sprintf("%s#%d FIRE %s frac=%.3f", e.Point, e.Hit, e.Op, e.Frac)
	}
	return fmt.Sprintf("%s#%d FIRE %s", e.Point, e.Hit, e.Op)
}

// Point metadata from Declare.
type Point struct {
	Name string
	Desc string
}

var (
	regMu    sync.Mutex
	declared = map[string]string{}
)

// Declare registers a fault point. Call from package init; duplicate
// declarations with the same description are idempotent.
func Declare(name, desc string) string {
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := declared[name]; ok && prev != desc {
		panic(fmt.Sprintf("fault: point %q redeclared with different description", name))
	}
	declared[name] = desc
	return name
}

// Points returns all declared fault points, sorted by name.
func Points() []Point {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Point, 0, len(declared))
	for n, d := range declared {
		out = append(out, Point{Name: n, Desc: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

type specState struct {
	Spec
	fired int
}

var (
	active atomic.Bool // fast-path gate

	mu      sync.Mutex
	rng     *rand.Rand
	armed   map[string]*specState
	script  map[string]map[int]Fire // nil for a probabilistic run
	hits    map[string]int
	trace   []Event
	suspend int
)

// mustBeDeclared panics on an undeclared point (catches typos at
// harness-build time).
func mustBeDeclared(fn, point string) {
	regMu.Lock()
	_, ok := declared[point]
	regMu.Unlock()
	if !ok {
		panic(fmt.Sprintf("fault: %s of undeclared point %q", fn, point))
	}
}

// start discards any previous run and begins a new one with nothing
// armed. Callers hold mu.
func start(sc map[string]map[int]Fire) {
	armed = map[string]*specState{}
	script = sc
	hits = make(map[string]int)
	trace = nil
	suspend = 0
	active.Store(true)
}

// Enable starts a probabilistic run and arms ss, drawing fire
// decisions from seed. Any previous run state is discarded.
func Enable(seed int64, ss ...Spec) {
	mu.Lock()
	start(nil)
	mu.Unlock()
	Arm(seed, ss...)
}

// EnableScript starts a run that fires armed points at exactly the
// given (point, hit#) pairs and nowhere else. It arms nothing: the
// harness's own Arm calls choose which points are live, as they did in
// the run that produced the script.
func EnableScript(fires []Fire) {
	sc := make(map[string]map[int]Fire)
	for _, f := range fires {
		mustBeDeclared("EnableScript", f.Point)
		m := sc[f.Point]
		if m == nil {
			m = make(map[int]Fire)
			sc[f.Point] = m
		}
		m[f.Hit] = f
	}
	mu.Lock()
	start(sc)
	mu.Unlock()
}

// Arm replaces the armed set of the current run and reseeds its
// probabilistic decisions. Hit counters and the trace carry over.
// Under a script only the armed set changes: the script still decides
// which hits fire. Arm with no specs disarms every point.
func Arm(seed int64, ss ...Spec) {
	for _, s := range ss {
		mustBeDeclared("Arm", s.Point)
	}
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
	armed = make(map[string]*specState, len(ss))
	for _, s := range ss {
		armed[s.Point] = &specState{Spec: s}
	}
}

// Disable ends the current run and clears its state, trace included.
// Instrumented code returns to the single-atomic-load fast path.
func Disable() {
	active.Store(false)
	mu.Lock()
	defer mu.Unlock()
	rng = nil
	armed = nil
	script = nil
	hits = nil
	trace = nil
	suspend = 0
}

// Suspend pauses injection process-wide (nestable). Recovery and
// rollback paths run under Suspend so that cleanup from one injected
// fault is not itself re-injected, which would make all-or-nothing
// rollback impossible to guarantee or test. Suspended hits are neither
// counted nor traced.
func Suspend() {
	mu.Lock()
	suspend++
	mu.Unlock()
}

// Resume undoes one Suspend.
func Resume() {
	mu.Lock()
	if suspend > 0 {
		suspend--
	}
	mu.Unlock()
}

// Trace returns a copy of the run's event log: every hit on an armed
// point, in order, with fire decisions. Two runs with the same seed
// and workload produce identical traces.
func Trace() []Event {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Event, len(trace))
	copy(out, trace)
	return out
}

// decide counts one hit of point and, if the point is armed, consults
// the schedule. It returns the traced event and the injected error.
func decide(point string) (Event, error) {
	mu.Lock()
	if !active.Load() || suspend > 0 {
		mu.Unlock()
		return Event{}, nil
	}
	hits[point]++
	st, ok := armed[point]
	if !ok {
		mu.Unlock()
		return Event{}, nil
	}
	ev := Event{Point: point, Hit: hits[point]}
	if script != nil {
		if f, ok := script[point][ev.Hit]; ok {
			ev.Fired, ev.Op, ev.Frac = true, f.Op, f.Frac
			if f.Op == OpPartial && ev.Frac == 0 {
				ev.Frac = 0.5
			}
		}
	} else if (st.Times == 0 || st.fired < st.Times) && rng.Float64() < st.Prob {
		st.fired++
		ev.Fired, ev.Op = true, st.Op
		if st.Op == OpPartial {
			ev.Frac = st.Frac
			if ev.Frac == 0 {
				ev.Frac = rng.Float64()
			}
		}
	}
	trace = append(trace, ev)
	var hook func()
	var err error
	if ev.Fired {
		hook = st.Hook
		switch ev.Op {
		case OpError:
			err = ErrInjected
		case OpTransient:
			err = ErrTransient
		}
	}
	mu.Unlock()
	if hook != nil {
		hook()
	}
	return ev, err
}

// Hit consults the fault point and returns the injected error if an
// OpError or OpTransient fault fired, nil otherwise. The disabled fast
// path is one atomic load.
func Hit(point string) error {
	if !active.Load() {
		return nil
	}
	_, err := decide(point)
	return err
}

// PartialWrite consults the fault point for an n-byte write. When no
// fault fires it returns (n, nil). A fired OpPartial returns a count
// strictly less than n plus ErrInjected — the caller must persist only
// that prefix and surface the error. A fired OpError or OpTransient
// returns (0, injected error) before anything is written.
func PartialWrite(point string, n int) (int, error) {
	if !active.Load() {
		return n, nil
	}
	ev, err := decide(point)
	if !ev.Fired {
		return n, nil
	}
	if ev.Op != OpPartial {
		return 0, err
	}
	k := int(float64(n) * ev.Frac)
	if k >= n {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	return k, fmt.Errorf("%w: short write %d of %d bytes at %s", ErrInjected, k, n, point)
}
