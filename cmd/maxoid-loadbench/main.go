// Command maxoid-loadbench drives the fleet-scale load engine
// (internal/load) and emits a unified benchmark report: batched vs
// unbatched binder throughput at fleet scale, dispatch-latency
// quantiles, and a bounded-overload run under AMS admission control.
//
// Usage:
//
//	maxoid-loadbench [-instances 10000] [-ops N] [-batch 32] [-out BENCH_PR7.json]
//	maxoid-loadbench -baseline BENCH_PR7.json   # gate: fail on >10% throughput drop
//
// With -baseline, the run exits nonzero when aggregate throughput
// regresses more than -tolerance (default 10%) below the baseline
// report — the CI perf gate.
package main

import (
	"flag"
	"fmt"
	"log"

	"maxoid/internal/ams"
	"maxoid/internal/bench/report"
	"maxoid/internal/load"
	"maxoid/internal/metrics"
)

func main() {
	var (
		instances = flag.Int("instances", 10000, "simulated fleet size (caller identities)")
		ops       = flag.Int("ops", 0, "transactions per scenario (0 = 4x instances)")
		workers   = flag.Int("workers", 8, "driver goroutines")
		batch     = flag.Int("batch", 32, "parcels per batched dispatch")
		payload   = flag.Int("payload", 64, "payload bytes per parcel")
		out       = flag.String("out", "BENCH_PR7.json", "report output path")
		baseline  = flag.String("baseline", "", "baseline report to gate against (empty = no gate)")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional throughput drop vs baseline")
	)
	flag.Parse()
	if *ops <= 0 {
		*ops = 4 * *instances
	}

	// The baseline is loaded before the run so -out may overwrite the
	// same file the gate compares against (the CI usage), and so a
	// missing baseline fails before the measurement, not after.
	var base *report.Report
	if *baseline != "" {
		var err error
		if base, err = report.Load(*baseline); err != nil {
			log.Fatalf("baseline: %v", err)
		}
	}

	rep := report.New("maxoid-loadbench")
	rep.Command = fmt.Sprintf("maxoid-loadbench -instances %d -ops %d -workers %d -batch %d -payload %d",
		*instances, *ops, *workers, *batch, *payload)

	eng := load.NewEngine(*instances)

	unbatched, err := runScenario(rep, eng, "unbatched", load.Options{
		Instances: *instances, Workers: *workers, Ops: *ops, Batch: 1, PayloadBytes: *payload,
	})
	if err != nil {
		log.Fatalf("unbatched: %v", err)
	}
	batched, err := runScenario(rep, eng, "batched", load.Options{
		Instances: *instances, Workers: *workers, Ops: *ops, Batch: *batch, PayloadBytes: *payload,
	})
	if err != nil {
		log.Fatalf("batched: %v", err)
	}

	agg := rep.Section("aggregate")
	speedup := 0.0
	if unbatched.Throughput > 0 {
		speedup = batched.Throughput / unbatched.Throughput
	}
	agg.Add("batch_speedup", "ratio", speedup)
	agg.Add("throughput", "ops/s", (unbatched.Throughput+batched.Throughput)/2)
	fmt.Printf("\nbatched/unbatched speedup at %d instances: %.2fx\n", *instances, speedup)

	if err := runOverload(rep, eng, *instances, *workers); err != nil {
		log.Fatalf("overload: %v", err)
	}

	if err := rep.WriteFile(*out); err != nil {
		log.Fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("report written to %s\n", *out)

	if base != nil {
		if err := gate(base, *baseline, rep, *tolerance); err != nil {
			log.Fatal(err)
		}
	}
}

// runScenario executes one throughput pass and records its section.
func runScenario(rep *report.Report, eng *load.Engine, name string, opts load.Options) (*load.Result, error) {
	eng.Reset()
	opts.Registry = metrics.NewRegistry()
	res, err := eng.Run(opts)
	if err != nil {
		return nil, err
	}
	if res.Untyped != 0 || res.Completed != res.Issued {
		return nil, fmt.Errorf("%s: %d/%d completed, %d untyped failures",
			name, res.Completed, res.Issued, res.Untyped)
	}
	sec := rep.Section(name)
	sec.Params = map[string]float64{
		"instances": float64(res.Instances),
		"workers":   float64(res.Workers),
		"batch":     float64(res.Batch),
		"ops":       float64(res.Completed),
	}
	sec.Add("throughput", "ops/s", res.Throughput)
	addLatency(sec, "dispatch_latency", res.Dispatch)
	fmt.Printf("%-10s %8d ops  %10.0f ops/s  p50 %-9v p99 %-9v p999 %v\n",
		name, res.Completed, res.Throughput,
		res.Dispatch.P50(), res.Dispatch.P99(), res.Dispatch.P999())
	return res, nil
}

// runOverload drives the fleet far past a tiny admission budget and
// records the overload section: every failure must be a typed
// rejection, the admitted path's p99 stays bounded, and no admission
// slot leaks.
func runOverload(rep *report.Report, eng *load.Engine, instances, workers int) error {
	eng.Reset()
	n := instances
	if n > 256 {
		n = 256 // the overload point is the budget, not the fleet size
	}
	res, err := eng.Run(load.Options{
		Instances: n,
		Workers:   workers * 2,
		Ops:       8 * n,
		Batch:     1,
		Registry:  metrics.NewRegistry(),
		Admission: &ams.AdmissionConfig{PerAppRate: 100, PerAppBurst: 2, MaxInFlight: 8},
	})
	if err != nil {
		return err
	}
	if res.Untyped != 0 {
		return fmt.Errorf("%d overload failures were not typed ErrOverloaded", res.Untyped)
	}
	if res.InFlightEnd != 0 {
		return fmt.Errorf("admission leaked %d in-flight slots", res.InFlightEnd)
	}
	typedFraction := 1.0
	rejectRate := 0.0
	if res.Issued > 0 {
		rejectRate = float64(res.Rejected) / float64(res.Issued)
	}
	sec := rep.Section("overload")
	sec.Params = map[string]float64{
		"instances":     float64(res.Instances),
		"per_app_rate":  100,
		"per_app_burst": 2,
		"max_in_flight": 8,
	}
	sec.Add("completed", "count", float64(res.Completed))
	sec.Add("rejected", "count", float64(res.Rejected))
	sec.Add("typed_rejection_fraction", "ratio", typedFraction)
	sec.Add("reject_rate", "ratio", rejectRate)
	sec.Add("inflight_after_drain", "count", float64(res.InFlightEnd))
	addLatency(sec, "dispatch_latency", res.Dispatch)
	fmt.Printf("%-10s %8d admitted, %d rejected (100%% typed)  p99 %v  in-flight after drain: %d\n",
		"overload", res.Completed, res.Rejected, res.Dispatch.P99(), res.InFlightEnd)
	return nil
}

func addLatency(sec *report.Section, name string, s metrics.Snapshot) {
	m := sec.Add(name, "ns/op", float64(s.Mean()))
	m.P50 = float64(s.P50())
	m.P99 = float64(s.P99())
	m.P999 = float64(s.P999())
}

// gate compares the run against a baseline report and exits nonzero on
// a throughput regression beyond tolerance.
func gate(base *report.Report, baselinePath string, cur *report.Report, tolerance float64) error {
	failed := false
	for _, path := range []string{"aggregate/throughput", "batched/throughput", "unbatched/throughput"} {
		reg, ok := report.CompareHigherBetter(base, cur, path, tolerance)
		if !ok {
			continue
		}
		status := "ok"
		if reg.Failed {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("gate %-22s baseline %10.0f  current %10.0f  (%+.1f%%)  %s\n",
			reg.Path, reg.Baseline, reg.Current, reg.Delta*100, status)
	}
	if failed {
		return fmt.Errorf("throughput regressed more than %.0f%% vs %s", tolerance*100, baselinePath)
	}
	return nil
}
