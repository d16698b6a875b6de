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
// the verdict. On failure, -shrink works for every engine: it replays
// the run's fired faults as an exact script, then greedily drops one
// fault at a time and keeps each drop while the run still fails,
// printing the minimal schedule and the failure it reproduces. A
// failure that does not reproduce from its schedule alone (the kill and
// gateway engines depend on timing) is reported as such; re-run it with
// the seed. An unknown -engine exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"maxoid/internal/chaos"
	"maxoid/internal/fault"

	// Imported for their fault-point declarations, so -points lists the
	// full registry even for layers no engine currently drives.
	_ "maxoid/internal/binder"
	_ "maxoid/internal/netstack"
	_ "maxoid/internal/zygote"
)

func main() {
	names := make([]string, len(chaos.Engines))
	for i, e := range chaos.Engines {
		names[i] = e.Name
	}
	choices := strings.Join(names, ", ") + ", or all"
	var (
		engineFlag = flag.String("engine", "all", "engine to run: "+choices)
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
	if *engineFlag != "all" && chaos.Lookup(*engineFlag) == nil {
		fmt.Fprintf(os.Stderr, "maxoid-chaos: unknown engine %q; choose %s\n", *engineFlag, choices)
		os.Exit(2)
	}

	failed := false
	for _, e := range chaos.Engines {
		if *engineFlag != "all" && *engineFlag != e.Name {
			continue
		}
		rep := e.Run(*seed, chaos.Options{Ops: *ops})
		printReport(rep, *dump)
		if !rep.OK() {
			failed = true
			if *shrink {
				shrinkRun(e, *seed, *ops, rep)
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
			fmt.Printf("  %s\n", ev)
		}
	}
	for _, f := range rep.Failures {
		fmt.Printf("  FAILURE: %s\n", f)
	}
}

// shrinkRun prints the minimal fault schedule of a failing run.
func shrinkRun(e *chaos.Engine, seed int64, ops int, rep *chaos.Report) {
	fmt.Printf("  shrinking %d fired faults...\n", rep.Fired)
	script, ok := e.Shrink(seed, ops, rep)
	if !ok {
		fmt.Printf("  the failure does not reproduce from its fault schedule alone; re-run with -seed %d\n", seed)
		return
	}
	fmt.Printf("  minimal schedule (%d faults):\n", len(script))
	for _, f := range script {
		fmt.Printf("    %s hit#%d %s\n", f.Point, f.Hit, f.Op)
	}
	// Any failure counts while shrinking, so show which one the
	// minimal schedule reproduces: it may differ from the original.
	if r := e.Run(seed, chaos.Options{Ops: ops, Script: script}); !r.OK() {
		fmt.Printf("  which fails with: %s\n", r.Failures[0])
	}
	fmt.Printf("  reproduce: maxoid-chaos -engine %s -seed %d", e.Name, seed)
	if ops > 0 {
		fmt.Printf(" -ops %d", ops)
	}
	fmt.Println(" -shrink")
}
