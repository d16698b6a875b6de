// Kill-chaos engine: process-lifecycle supervision under random death.
//
// The engine boots a full system, runs a seeded random workload of
// launches, delegate forks, file writes, provider inserts, and app IPC,
// and kills processes at every lifecycle stage: between operations,
// mid-fork (zygote.spawn / zygote.assemble faults), mid-binder-call
// (a fault hook that crashes a random process before dispatch), and
// mid-COW-synthesis (cowproxy.synth faults). Apps can also crash
// themselves inside a transaction handler.
//
// Invariants checked:
//
//  1. Typed errors only: every initiator-facing operation either
//     succeeds or fails with a sentinel from the supervision layer
//     (ErrDeadProcess, ErrNoEndpoint, ErrCallTimeout,
//     ErrRestartBudgetExhausted, injected faults, permission errors,
//     ordinary fs errors). Raw internal errors are failures.
//  2. No leaks: after the run drains, live processes, mount
//     namespaces, union branches, Binder endpoints, COW delta tables
//     and views, and URI grants are all back at their baselines.
//  3. No hangs: the whole run completes under the harness watchdog.
package chaos

import (
	"fmt"
	"io/fs"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/binder"
	"maxoid/internal/core"
	"maxoid/internal/fault"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/mount"
	"maxoid/internal/provider"
	"maxoid/internal/unionfs"
	"maxoid/internal/vfs"
	"maxoid/internal/zygote"
)

// chaosApp is the workload app: it accepts transactions that echo,
// write through the instance's view, crash the instance, or stall past
// the ANR deadline.
type chaosApp struct {
	pkg  string
	kern *kernel.Kernel
}

func (a *chaosApp) Package() string { return a.pkg }

func (a *chaosApp) OnStart(ctx *ams.Context, in intent.Intent) error { return nil }

func (a *chaosApp) OnTransact(ctx *ams.Context, from binder.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
	switch code {
	case "ping":
		return binder.Parcel{"pong": true}, nil
	case "write":
		p := ctx.DataDir() + "/" + data.String("name")
		if err := vfs.WriteFile(ctx.FS(), ctx.Cred(), p, data.Bytes("body"), 0o600); err != nil {
			return nil, err
		}
		return binder.Parcel{"ok": true}, nil
	case "crash":
		// Self-crash mid-transaction: the call entered before the death,
		// so it still completes; the caller's NEXT call fails typed.
		_ = a.kern.Crash(ctx.PID())
		return binder.Parcel{"crashed": true}, nil
	case "hang":
		// Exceed the ANR deadline; the watchdog must release the caller.
		time.Sleep(15 * time.Millisecond)
		return binder.Parcel{"woke": true}, nil
	}
	return nil, fmt.Errorf("chaos: unknown code %s", code)
}

// lifecycleErrors are the typed sentinels the supervision layer may
// surface to an initiator. Anything else is an invariant violation.
var lifecycleErrors = []error{
	fault.ErrInjected,
	kernel.ErrDeadProcess,
	kernel.ErrNoSuchPID,
	kernel.ErrNetUnreachable,
	kernel.ErrPermissionDenied,
	binder.ErrNoEndpoint,
	binder.ErrCallTimeout,
	zygote.ErrRestartBudgetExhausted,
	ams.ErrNoActivity,
	ams.ErrNotInstalled,
	ams.ErrNestedDelegation,
	ams.ErrNoGrant,
	fs.ErrNotExist,
	fs.ErrPermission,
	fs.ErrExist,
}

// runKill performs one seeded kill-chaos run.
func runKill(seed int64, ops int, r *Report) {
	// Leak baselines are deltas over package-global counters, so the
	// engine composes with whatever else ran in this process.
	baseNS := mount.Live()
	baseUnions := unionfs.Live()
	baseBranches := unionfs.LiveBranches()

	s, err := core.Boot(core.Options{})
	if err != nil {
		r.failf("boot: %v", err)
		return
	}
	defer s.Shutdown()
	s.AM.SetReclaimDomainOnExit(true)
	s.Router.SetCallTimeout(5 * time.Millisecond)
	s.Router.SetRetryPolicy(binder.RetryPolicy{Attempts: 3, Base: 100 * time.Microsecond, Max: time.Millisecond})
	// The production budget's windows (ms backoff, 500ms breaker
	// cooldown) would park every app for most of a sub-second chaos run
	// after a handful of crashes, starving the kill workload. Compress
	// the scale so restarts keep flowing while the budget path — backoff
	// rejections included — still gets exercised.
	s.Zygote.Budget().SetConfig(zygote.BudgetConfig{
		BackoffBase:      50 * time.Microsecond,
		BackoffMax:       500 * time.Microsecond,
		BreakerThreshold: 25,
		BreakerCooldown:  2 * time.Millisecond,
		QuietReset:       20 * time.Millisecond,
	})

	pkgs := []string{"alice", "bob", "carol"}
	for _, pkg := range pkgs {
		app := &chaosApp{pkg: pkg, kern: s.Kernel}
		manifest := ams.Manifest{
			Package: pkg,
			Filters: []intent.Filter{{Actions: []string{intent.ActionView}}},
		}
		if err := s.Install(app, manifest); err != nil {
			r.failf("install %s: %v", pkg, err)
			return
		}
	}
	baseEndpoints := s.Router.NumEndpoints()
	baseProcs := s.Kernel.LiveProcesses()

	var kills atomic.Int64
	s.Kernel.WatchDeaths(func(kernel.DeathEvent) { kills.Add(1) })

	// Three PRNG streams, all separate from the fault schedule's PRNG.
	// The split exists for reproducibility: rngOp draws exactly the op
	// tape (a fixed number of draws per workload step, gated on nothing),
	// so the sequence of operation KINDS is a pure function of the seed.
	// rngSel picks targets from live sets and rngKill drives the
	// mid-call kill hook — their draw counts depend on timing-sensitive
	// state (restart backoff, ANR watchdogs, async reaping), which is
	// why they must not share a stream with the tape.
	rngOp := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	rngSel := rand.New(rand.NewSource(seed*0x9e3779b9 + 1))
	rngKill := rand.New(rand.NewSource(seed*0x85ebca6b + 2))

	// sortedProcs gives a deterministic view of the process table.
	sortedProcs := func() []*kernel.Process {
		procs := s.Kernel.Processes()
		sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
		return procs
	}
	// killRandom ends one live process — half orderly kills, half
	// crashes (only crashes charge the restart budget). It runs both as
	// a workload action and as the mid-binder-call fault hook.
	killRandom := func() {
		procs := sortedProcs()
		if len(procs) == 0 {
			return
		}
		pid := procs[rngKill.Intn(len(procs))].PID
		if rngKill.Intn(2) == 0 {
			_ = s.Kernel.Kill(pid)
		} else {
			_ = s.Kernel.Crash(pid)
		}
	}

	fault.Arm(seed,
		fault.Spec{Point: "zygote.spawn", Prob: 0.02},
		fault.Spec{Point: "zygote.assemble", Prob: 0.03},
		fault.Spec{Point: "cowproxy.synth", Prob: 0.05},
		fault.Spec{Point: "binder.call", Prob: 0.03, Hook: killRandom},
	)

	// ctxs are the instance handles the workload drives. Dead handles
	// are deliberately kept for a while — operations through them must
	// fail typed, never raw.
	var ctxs []*ams.Context
	liveCtx := func() *ams.Context {
		var live []*ams.Context
		for _, c := range ctxs {
			if c.Alive() {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			return nil
		}
		return live[rngSel.Intn(len(live))]
	}
	anyCtx := func() *ams.Context {
		if len(ctxs) == 0 {
			return nil
		}
		return ctxs[rngSel.Intn(len(ctxs))]
	}
	check := func(op string, err error) {
		if err != nil && !isOneOf(err, lifecycleErrors) {
			r.failf("op %d (%s): raw internal error: %v", r.Ops, op, err)
		}
	}

	for i := 0; i < ops && len(r.Failures) == 0; i++ {
		r.Ops++
		// Exactly two rngOp draws per step, before any state-dependent
		// gate, so the op tape never desyncs between same-seed runs.
		p := rngOp.Float64()
		q := rngOp.Float64()
		switch {
		case p < 0.15: // launch an initiator
			r.OpTape = append(r.OpTape, 'L')
			pkg := pkgs[rngSel.Intn(len(pkgs))]
			ctx, err := s.Launch(pkg, intent.Intent{})
			check("launch "+pkg, err)
			if err == nil {
				ctxs = append(ctxs, ctx)
			}
		case p < 0.30: // launch a delegate
			r.OpTape = append(r.OpTape, 'D')
			app := pkgs[rngSel.Intn(len(pkgs))]
			initiator := pkgs[rngSel.Intn(len(pkgs))]
			if app == initiator {
				continue
			}
			ctx, err := s.LaunchAsDelegate(app, initiator, intent.Intent{})
			check(fmt.Sprintf("delegate %s^%s", app, initiator), err)
			if err == nil {
				ctxs = append(ctxs, ctx)
			}
		case p < 0.45: // write a file through an instance's view
			r.OpTape = append(r.OpTape, 'W')
			ctx := anyCtx()
			if ctx == nil {
				continue
			}
			name := fmt.Sprintf("%s/chaos-%d.txt", ctx.DataDir(), i)
			check("fs write", vfs.WriteFile(ctx.FS(), ctx.Cred(), name, []byte{byte(i)}, 0o600))
		case p < 0.58: // provider insert (delegates go through the COW proxy)
			r.OpTape = append(r.OpTape, 'I')
			ctx := anyCtx()
			if ctx == nil {
				continue
			}
			_, err := ctx.Resolver().Insert("content://user_dictionary/words",
				provider.Values{"word": fmt.Sprintf("w%d", i)})
			check("dict insert", err)
		case p < 0.72: // supervised IPC to a running instance
			r.OpTape = append(r.OpTape, 'C')
			ctx := liveCtx()
			if ctx == nil {
				continue
			}
			running := s.AM.Running()
			if len(running) == 0 {
				continue
			}
			target := running[rngSel.Intn(len(running))]
			code := "ping"
			switch {
			case q < 0.10:
				code = "crash"
			case q < 0.14:
				code = "hang"
			case q < 0.40:
				code = "write"
			}
			_, err := ctx.CallAppRetry(target, code, binder.Parcel{
				"name": fmt.Sprintf("ipc-%d", i), "body": []byte("x"),
			})
			check(fmt.Sprintf("call %s %s", target, code), err)
		case p < 0.87: // random kill or crash between operations
			r.OpTape = append(r.OpTape, 'K')
			procs := sortedProcs()
			if len(procs) == 0 {
				continue
			}
			pid := procs[rngSel.Intn(len(procs))].PID
			if rngSel.Intn(2) == 0 {
				check("kill", s.Kernel.Kill(pid))
			} else {
				check("crash", s.Kernel.Crash(pid))
			}
		case p < 0.94: // orderly stop of a running instance
			r.OpTape = append(r.OpTape, 'S')
			running := s.AM.Running()
			if len(running) == 0 {
				continue
			}
			t := running[rngSel.Intn(len(running))]
			s.AM.StopInstance(t.App, t.Initiator)
		default: // Clear-Vol on a random initiator
			r.OpTape = append(r.OpTape, 'V')
			check("clear-vol", s.ClearVol(pkgs[rngSel.Intn(len(pkgs))]))
		}
		// Forget stale handles now and then so the slice stays bounded.
		if len(ctxs) > 64 {
			var live []*ams.Context
			for _, c := range ctxs {
				if c.Alive() {
					live = append(live, c)
				}
			}
			ctxs = live
		}
	}

	// Drain: stop injecting, kill every remaining process, and give
	// timed-out "hang" handlers time to unwind before counting leaks.
	fault.Arm(seed)
	for _, p := range sortedProcs() {
		_ = s.Kernel.Kill(p.PID)
	}
	time.Sleep(30 * time.Millisecond)
	r.Kills = int(kills.Load())

	if got := s.Kernel.LiveProcesses(); got != baseProcs {
		r.failf("leak: %d live processes, want %d", got, baseProcs)
	}
	if got := s.AM.NumRunning(); got != 0 {
		r.failf("leak: %d running instances after full kill", got)
	}
	if got := s.Router.NumEndpoints(); got != baseEndpoints {
		r.failf("leak: %d binder endpoints, want %d", got, baseEndpoints)
	}
	if got := s.AM.OutstandingGrants(); got != 0 {
		r.failf("leak: %d outstanding URI grants", got)
	}
	if got := mount.Live(); got != baseNS {
		r.failf("leak: %d live mount namespaces, want %d", got, baseNS)
	}
	if got := unionfs.Live(); got != baseUnions {
		r.failf("leak: %d live unions, want %d", got, baseUnions)
	}
	if got := unionfs.LiveBranches(); got != baseBranches {
		r.failf("leak: %d live union branches, want %d", got, baseBranches)
	}
	for _, pp := range []struct {
		name  string
		stats func() (int, int)
	}{
		{"user_dictionary", func() (int, int) {
			st := s.UserDict.Proxy().Stats()
			return st.DeltaTables, st.COWViews
		}},
		{"downloads", func() (int, int) {
			st := s.Downloads.Proxy().Stats()
			return st.DeltaTables, st.COWViews
		}},
		{"media", func() (int, int) {
			st := s.Media.Proxy().Stats()
			return st.DeltaTables, st.COWViews
		}},
	} {
		deltas, views := pp.stats()
		if deltas != 0 || views != 0 {
			r.failf("leak: %s proxy holds %d delta tables, %d COW views after all domains exited",
				pp.name, deltas, views)
		}
	}
}
