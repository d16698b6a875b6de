// maxoid-chaos drives the deterministic fault-injection harness
// (internal/chaos) from the command line:
//
//	maxoid-chaos -engine all -seed 42 -ops 1000
//	maxoid-chaos -engine kill -seed 7 -ops 1200 # process-kill chaos
//	maxoid-chaos -points                  # list registered fault points
//	maxoid-chaos -engine sql -seed 7 -dump   # print the fault schedule
//	maxoid-chaos -engine sql -seed 7 -shrink # minimize a failing schedule
//
// A seed fully reproduces a run: the workload, the fault schedule, and
// the verdict. On failure, -shrink greedily removes injected faults
// from the schedule and replays the rest as an exact script until no
// single fault can be dropped, printing the minimal schedule that
// still breaks the invariant. The kill engine cannot be shrunk: its
// schedule includes fault hooks that kill processes from inside the
// binder layer, which an exact replay script cannot reproduce.
package main

import (
	"flag"
	"fmt"
	"os"

	"maxoid/internal/chaos"
	"maxoid/internal/fault"

	// Imported for their fault-point declarations, so -points lists the
	// full registry even for layers no engine currently drives.
	_ "maxoid/internal/binder"
	_ "maxoid/internal/netstack"
	_ "maxoid/internal/zygote"
)

type engine struct {
	name     string
	run      func(seed int64, ops int, script []fault.Fire) *chaos.Report
	noShrink bool // schedule is not exactly replayable (kill hooks)
}

var engines = []engine{
	{name: "sql", run: func(seed int64, ops int, script []fault.Fire) *chaos.Report {
		return chaos.RunSQLOracle(seed, chaos.OracleOptions{Ops: ops, Faults: true, Script: script})
	}},
	{name: "index", noShrink: true, run: func(seed int64, ops int, _ []fault.Fire) *chaos.Report {
		return chaos.RunIndexOracle(seed, chaos.OracleOptions{Ops: ops})
	}},
	{name: "indexfault", run: func(seed int64, ops int, script []fault.Fire) *chaos.Report {
		return chaos.RunIndexFaultChecker(seed, chaos.CheckerOptions{Ops: ops, Script: script})
	}},
	{name: "copyup", run: func(seed int64, ops int, script []fault.Fire) *chaos.Report {
		return chaos.RunCopyUpChecker(seed, chaos.CheckerOptions{Ops: ops, Script: script})
	}},
	{name: "synth", run: func(seed int64, ops int, script []fault.Fire) *chaos.Report {
		return chaos.RunSynthChecker(seed, chaos.CheckerOptions{Ops: ops, Script: script})
	}},
	{name: "kill", noShrink: true, run: func(seed int64, ops int, _ []fault.Fire) *chaos.Report {
		return chaos.RunKillChecker(seed, chaos.KillOptions{Ops: ops})
	}},
	{name: "overload", noShrink: true, run: func(seed int64, ops int, script []fault.Fire) *chaos.Report {
		return chaos.RunOverloadChecker(seed, chaos.OverloadOptions{Ops: ops, Script: script})
	}},
	// The recover engine's crash points depend on the seeded byte-keep
	// stream, which an exact fire script cannot reproduce: re-run with
	// the same seed instead of shrinking.
	{name: "recover", noShrink: true, run: func(seed int64, ops int, _ []fault.Fire) *chaos.Report {
		return chaos.RunRecoverChecker(seed, chaos.RecoverOptions{Ops: ops})
	}},
	// The degrade engine re-arms fault windows mid-run (each Enable
	// resets the registry), so its schedule is likewise not replayable
	// as an exact fire script.
	{name: "degrade", noShrink: true, run: func(seed int64, ops int, _ []fault.Fire) *chaos.Report {
		return chaos.RunDegradeChecker(seed, chaos.DegradeOptions{Ops: ops})
	}},
	// The gateway engine likewise re-arms fault windows mid-run; re-run
	// with the seed to reproduce.
	{name: "gateway", noShrink: true, run: func(seed int64, ops int, _ []fault.Fire) *chaos.Report {
		return chaos.RunGatewayChecker(seed, chaos.GatewayChaosOptions{Ops: ops})
	}},
}

func main() {
	var (
		engineFlag = flag.String("engine", "all", "engine to run: sql, index, indexfault, copyup, synth, kill, overload, recover, degrade, gateway, or all")
		seed       = flag.Int64("seed", 1, "run seed; reproduces workload, fault schedule, and verdict")
		ops        = flag.Int("ops", 0, "workload operations per engine (0 = engine default)")
		dump       = flag.Bool("dump", false, "print the full fault schedule of each run")
		shrink     = flag.Bool("shrink", false, "on failure, shrink the fault schedule to a minimal reproducer")
		points     = flag.Bool("points", false, "list registered fault points and exit")
	)
	flag.Parse()

	if *points {
		for _, p := range fault.Points() {
			fmt.Printf("%-18s %s\n", p.Name, p.Desc)
		}
		return
	}

	failed := false
	for _, e := range engines {
		if *engineFlag != "all" && *engineFlag != e.name {
			continue
		}
		rep := e.run(*seed, *ops, nil)
		printReport(rep, *dump)
		if !rep.OK() {
			failed = true
			if *shrink {
				if e.noShrink {
					fmt.Printf("  (%s schedules are not replayable; re-run with the same seed instead)\n", e.name)
				} else {
					shrinkRun(e, *seed, *ops, rep)
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printReport(rep *chaos.Report, dump bool) {
	verdict := "PASS"
	if !rep.OK() {
		verdict = "FAIL"
	}
	extra := ""
	if rep.Kills > 0 {
		extra = fmt.Sprintf(" kills=%d", rep.Kills)
	}
	fmt.Printf("%-10s seed=%-6d ops=%-5d faults fired=%d/%d%s  %s\n",
		rep.Engine, rep.Seed, rep.Ops, rep.Fired, len(rep.Trace), extra, verdict)
	if dump {
		for _, ev := range rep.Trace {
			if ev.Fired || dump {
				fmt.Printf("  %s\n", ev)
			}
		}
	}
	for _, f := range rep.Failures {
		fmt.Printf("  FAILURE: %s\n", f)
	}
}

// shrinkRun greedily minimizes the fired-fault schedule of a failing
// run: drop one fault at a time, replay the remainder as an exact
// script, and keep the drop whenever the run still fails. The result
// is a schedule where every remaining fault is necessary.
func shrinkRun(e engine, seed int64, ops int, rep *chaos.Report) {
	script := firesOf(rep)
	fmt.Printf("  shrinking %d fired faults...\n", len(script))
	runs := 0
	for {
		dropped := false
		for i := 0; i < len(script); i++ {
			candidate := append(append([]fault.Fire{}, script[:i]...), script[i+1:]...)
			runs++
			if r := e.run(seed, ops, candidate); !r.OK() {
				script = candidate
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}
	fmt.Printf("  minimal schedule (%d faults, %d replays):\n", len(script), runs)
	for _, f := range script {
		fmt.Printf("    %s hit#%d %s\n", f.Point, f.Hit, f.Op)
	}
	fmt.Printf("  reproduce: maxoid-chaos -engine %s -seed %d", e.name, seed)
	if ops > 0 {
		fmt.Printf(" -ops %d", ops)
	}
	fmt.Println(" -shrink")
}

func firesOf(rep *chaos.Report) []fault.Fire {
	var out []fault.Fire
	for _, ev := range rep.Trace {
		if ev.Fired {
			out = append(out, fault.Fire{Point: ev.Point, Hit: ev.Hit, Op: ev.Op, Frac: ev.Frac})
		}
	}
	return out
}
