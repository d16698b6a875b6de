// Package chaos is the deterministic fault-injection harness for the
// Maxoid substrate. It runs ten engines behind one table (Engines) and
// one harness (Engine.Run). Each engine supplies only its setup,
// seeded workload, reference model and invariants, and arms fault
// points with fault.Arm; the harness owns everything else:
//
//   - default workload size and the fired-fault floor of a default run;
//   - the fault registry's run: started with nothing armed before the
//     engine runs (fault.Enable, or fault.EnableScript when replaying
//     a schedule) and disabled before the report is returned;
//   - one hang watchdog for every engine;
//   - the report's trace and fired-fault count, read once at the end;
//   - shrinking a failing schedule to a minimal one (Engine.Shrink).
//
// Hits are numbered from the start of the run, armed or not, so the
// fired events of any run — including engines that open and close
// fault windows mid-run — replay exactly as a script. A seed fully
// reproduces the workload, the fault schedule, and the verdict of the
// single-goroutine engines; cmd/maxoid-chaos drives the table from the
// command line.
package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/fault"
	"maxoid/internal/intent"
	"maxoid/internal/sqldb"
)

// Options shape one engine run.
type Options struct {
	Ops int // workload operations; 0 = the engine's default
	// Script, when non-nil, replaces the probabilistic schedule with an
	// exact one: armed points fire at exactly these (point, hit#) pairs.
	// An empty, non-nil script runs the engine with no faults.
	Script []fault.Fire
}

// Engine is one chaos engine: a seeded workload with its reference
// model and invariants.
type Engine struct {
	Name     string
	Ops      int // default workload operations
	MinFired int // faults an unscripted default-sized run must fire
	run      func(seed int64, ops int, r *Report)
}

// Engines lists every engine in `maxoid-chaos -engine all` order.
var Engines = []*Engine{
	{Name: "sql", Ops: 1000, run: runSQL},
	{Name: "index", Ops: 1000, run: runIndex},
	{Name: "indexfault", Ops: 1000, run: runIndexFault},
	{Name: "copyup", Ops: 400, run: runCopyUp},
	{Name: "synth", Ops: 300, run: runSynth},
	{Name: "kill", Ops: 1200, run: runKill},
	{Name: "overload", Ops: 4000, run: runOverload},
	{Name: "recover", Ops: 6000, run: runRecover},
	{Name: "degrade", Ops: 4000, MinFired: 300, run: runDegrade},
	{Name: "gateway", Ops: 800, MinFired: 50, run: runGateway},
}

// Lookup returns the engine called name, or nil.
func Lookup(name string) *Engine {
	for _, e := range Engines {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// hangTimeout bounds every engine run.
const hangTimeout = 120 * time.Second

// Run performs one seeded run of the engine. Runs share the
// process-wide fault registry, so they must not overlap.
func (e *Engine) Run(seed int64, opts Options) *Report {
	ops := opts.Ops
	if ops <= 0 {
		ops = e.Ops
	}
	if opts.Script != nil {
		fault.EnableScript(opts.Script)
	} else {
		fault.Enable(seed)
	}
	rep := &Report{Engine: e.Name, Seed: seed}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.run(seed, ops, rep)
	}()
	watchdog := time.NewTimer(hangTimeout)
	defer watchdog.Stop()
	select {
	case <-done:
	case <-watchdog.C:
		// The engine goroutine still writes to rep: hand back a fresh one.
		fault.Disable()
		hung := &Report{Engine: e.Name, Seed: seed}
		hung.failf("HANG: run did not complete within %v", hangTimeout)
		return hung
	}
	rep.finish()
	fault.Disable()
	if opts.Script == nil && ops >= e.Ops && rep.OK() && rep.Fired < e.MinFired {
		rep.failf("only %d injected faults fired; a default-sized run must drive >= %d", rep.Fired, e.MinFired)
	}
	return rep
}

// Shrink minimizes the fired schedule of a failing run. It first
// replays the whole schedule; if that passes, the failure does not
// reproduce from the schedule alone and ok is false (re-run with the
// seed instead). Otherwise it greedily drops one fault at a time,
// keeping each drop while the replay still fails, until every
// remaining fault is necessary.
func (e *Engine) Shrink(seed int64, ops int, rep *Report) (minimal []fault.Fire, ok bool) {
	script := rep.Fires()
	if e.Run(seed, Options{Ops: ops, Script: script}).OK() {
		return nil, false
	}
	for i := 0; i < len(script); {
		candidate := append(append([]fault.Fire{}, script[:i]...), script[i+1:]...)
		if e.Run(seed, Options{Ops: ops, Script: candidate}).OK() {
			i++
		} else {
			script, i = candidate, 0
		}
	}
	return script, true
}

// Report is the outcome of one seeded engine run.
type Report struct {
	Engine string
	Seed   int64
	Ops    int           // workload operations executed
	Fired  int           // injected faults that fired
	Kills  int           // process deaths or crash-recover cycles observed
	OpTape []byte        // op kind per workload step; a pure function of the seed
	Trace  []fault.Event // full fault schedule of the run
	// Failures are invariant violations. Empty means the run passed;
	// injected faults that were handled correctly are not failures.
	Failures []string
}

// OK reports whether the run found no invariant violations.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) failf(format string, args ...interface{}) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// finish captures the run's fault schedule into the report.
func (r *Report) finish() {
	r.Trace = fault.Trace()
	r.Fired = 0
	for _, e := range r.Trace {
		if e.Fired {
			r.Fired++
		}
	}
}

// Fires returns the fired events of the run as a script that
// Options.Script replays; never nil, so an empty result replays the
// run with no faults.
func (r *Report) Fires() []fault.Fire {
	out := []fault.Fire{}
	for _, e := range r.Trace {
		if e.Fired {
			out = append(out, fault.Fire{Point: e.Point, Hit: e.Hit, Op: e.Op, Frac: e.Frac})
		}
	}
	return out
}

// isOneOf reports whether err matches one of the allowed targets.
func isOneOf(err error, targets []error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// idleApp is an installable package that does nothing when started.
type idleApp struct{ pkg string }

func (a *idleApp) Package() string                           { return a.pkg }
func (a *idleApp) OnStart(*ams.Context, intent.Intent) error { return nil }

// valueRepr renders a sqldb value with a type tag, so the oracle's
// row diff distinguishes 1 from '1' from 1.0 the way the engine does.
func valueRepr(v sqldb.Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return "i:" + strconv.FormatInt(x, 10)
	case float64:
		return "f:" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s:" + x
	case []byte:
		return "b:" + string(x)
	}
	return fmt.Sprintf("?:%v", v)
}

// rowRepr renders one result row.
func rowRepr(row []sqldb.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = valueRepr(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// rowsRepr renders a result set, one row per line, for diff messages.
func rowsRepr(rows [][]sqldb.Value) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = rowRepr(r)
	}
	return strings.Join(parts, "\n")
}

// diffRows compares two result sets row for row and returns a
// description of the first divergence ("" when identical).
func diffRows(got, want [][]sqldb.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("row count %d != reference %d\nengine:\n%s\nreference:\n%s",
			len(got), len(want), rowsRepr(got), rowsRepr(want))
	}
	for i := range got {
		if rowRepr(got[i]) != rowRepr(want[i]) {
			return fmt.Sprintf("row %d: engine %s != reference %s", i, rowRepr(got[i]), rowRepr(want[i]))
		}
	}
	return ""
}
