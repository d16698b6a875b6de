// Command maxoid-gateway exercises the schema-reflected remote
// gateway (internal/gateway) end to end.
//
// Demo mode (default) boots a device, installs a sample app plus a
// delegate editor, starts the gateway on the simulated network, and
// replays a curl-style session — schema introspection, CRUD through
// the delegate's COW view, the confinement counter-probe, and the
// typed error surface — printing each request/response pair.
//
// Bench mode measures the fleet:
//
//	maxoid-gateway -bench [-devices 1000] [-ops N] [-out BENCH_PR10.json]
//
// Three scenarios are recorded: a single device, the full fleet
// syncing Downloads/Media through one shared backend, and an overload
// run under AMS admission control where every response must be a 2xx
// or a typed 429/503 with Retry-After, with in-flight draining to 0.
package main

import (
	"flag"
	"fmt"
	"log"

	"maxoid/internal/ams"
	"maxoid/internal/bench/report"
	"maxoid/internal/core"
	"maxoid/internal/gateway"
	"maxoid/internal/intent"
	"maxoid/internal/load"
	"maxoid/internal/metrics"
)

func main() {
	var (
		bench   = flag.Bool("bench", false, "run the fleet benchmark instead of the demo")
		devices = flag.Int("devices", 1000, "bench: fleet size (device identities)")
		ops     = flag.Int("ops", 0, "bench: requests per scenario (0 = 4x devices, min 2000)")
		workers = flag.Int("workers", 8, "bench: concurrent clients")
		out     = flag.String("out", "BENCH_PR10.json", "bench: report output path")
	)
	flag.Parse()
	if *bench {
		if err := runBench(*devices, *ops, *workers, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runDemo(); err != nil {
		log.Fatal(err)
	}
}

// demoApp is the minimal installable package the demo needs.
type demoApp struct{ pkg string }

func (a *demoApp) Package() string                           { return a.pkg }
func (a *demoApp) OnStart(*ams.Context, intent.Intent) error { return nil }

func runDemo() error {
	s, err := core.Boot(core.Options{})
	if err != nil {
		return err
	}
	defer s.Shutdown()
	if err := s.Install(&demoApp{"notes"}, ams.Manifest{}); err != nil {
		return err
	}
	editorFilters := []intent.Filter{{Actions: []string{intent.ActionView}}}
	if err := s.Install(&demoApp{"editor"}, ams.Manifest{Filters: editorFilters}); err != nil {
		return err
	}
	if _, err := s.Launch("notes", intent.Intent{}); err != nil {
		return err
	}
	ctxD, err := s.LaunchAsDelegate("editor", "notes", intent.Intent{})
	if err != nil {
		return err
	}
	if _, err := s.StartGateway(core.GatewayOptions{}); err != nil {
		return err
	}
	host := core.GatewayHost
	fmt.Printf("gateway serving on host %q — identities: notes (initiator), %s (delegate)\n\n",
		host, gateway.Token(ctxD.Task()))

	curl := func(token, method, path string, body []byte) {
		fmt.Printf("$ curl -X %s -H 'X-Maxoid-Identity: %s' http://%s%s", method, token, host, path)
		if body != nil {
			fmt.Printf(" -d '%s'", body)
		}
		fmt.Println()
		resp, err := s.GatewayRequest(token, method, path, body)
		if err != nil {
			fmt.Printf("  transport error: %v\n\n", err)
			return
		}
		fmt.Printf("  %d %s\n\n", resp.Status, truncate(resp.Body, 200))
	}

	tokA := "u0:notes"
	tokD := gateway.Token(ctxD.Task())

	fmt.Println("# Schema introspection")
	curl(tokA, "GET", "/v1/user_dictionary/_schema", nil)

	fmt.Println("# The initiator writes a public word")
	curl(tokA, "POST", "/v1/user_dictionary/words", []byte(`{"word":"maxoid","frequency":100}`))

	fmt.Println("# The delegate's COW view: sees it, then edits privately")
	curl(tokD, "GET", "/v1/user_dictionary/words", nil)
	curl(tokD, "POST", "/v1/user_dictionary/words", []byte(`{"word":"draft","frequency":1}`))

	fmt.Println("# Confinement: the delegate's volatile row never reaches the initiator")
	curl(tokA, "GET", "/v1/user_dictionary/words?order=_id", nil)

	fmt.Println("# Typed errors: bad identity, unknown table, wrong method")
	curl("u0:ghost", "GET", "/v1/user_dictionary/words", nil)
	curl(tokA, "GET", "/v1/user_dictionary/nosuch", nil)
	curl(tokA, "PATCH", "/v1/user_dictionary/words", nil)
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}

func runBench(devices, ops, workers int, out string) error {
	if ops <= 0 {
		ops = 4 * devices
		if ops < 2000 {
			ops = 2000
		}
	}
	rep := report.New("maxoid-gateway")
	rep.Command = fmt.Sprintf("maxoid-gateway -bench -devices %d -ops %d -workers %d", devices, ops, workers)

	if _, err := runFleet(rep, "single_device", 1, ops, workers); err != nil {
		return fmt.Errorf("single_device: %w", err)
	}
	fleet, err := runFleet(rep, "fleet", devices, ops, workers)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := runGatewayOverload(rep, workers); err != nil {
		return fmt.Errorf("overload: %w", err)
	}

	if err := rep.WriteFile(out); err != nil {
		return fmt.Errorf("write %s: %v", out, err)
	}
	fmt.Printf("\nfleet of %d devices: %.0f req/s through one shared backend — report written to %s\n",
		fleet.Devices, fleet.Throughput, out)
	return nil
}

// runFleet executes one gateway throughput pass and records its section.
func runFleet(rep *report.Report, name string, devices, ops, workers int) (*load.GatewayResult, error) {
	eng, err := load.NewGatewayEngine(devices)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res, err := eng.Run(load.GatewayOptions{
		Ops: ops, Workers: workers, WritePermille: 250, Registry: metrics.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	if res.Served != res.Issued {
		return nil, fmt.Errorf("%d/%d requests served", res.Served, res.Issued)
	}
	sec := rep.Section(name)
	sec.Params = map[string]float64{
		"devices": float64(res.Devices),
		"workers": float64(res.Workers),
		"ops":     float64(res.Issued),
	}
	sec.Add("throughput", "req/s", res.Throughput)
	addLatency(sec, "request_latency", res.Latency)
	fmt.Printf("%-14s %8d req  %10.0f req/s  p50 %-9v p99 %-9v p999 %v\n",
		name, res.Issued, res.Throughput, res.Latency.P50(), res.Latency.P99(), res.Latency.P999())
	return res, nil
}

// runGatewayOverload floods a tiny admission budget through the
// gateway: the acceptance gate is 100% typed 429/503 responses for
// everything not served, and the in-flight gauge draining to 0.
func runGatewayOverload(rep *report.Report, workers int) error {
	eng, err := load.NewGatewayEngine(32)
	if err != nil {
		return err
	}
	defer eng.Close()
	res, err := eng.Run(load.GatewayOptions{
		Ops: 2000, Workers: workers * 2, WritePermille: 1000,
		Registry:  metrics.NewRegistry(),
		Admission: &ams.AdmissionConfig{PerAppRate: 50, PerAppBurst: 2, MaxInFlight: 8},
	})
	if err != nil {
		return err
	}
	if res.Untyped != 0 {
		return fmt.Errorf("%d responses were not typed 2xx/429/503", res.Untyped)
	}
	if res.Rejected429 == 0 {
		return fmt.Errorf("overload produced no 429s (served %d)", res.Served)
	}
	if res.InFlightEnd != 0 {
		return fmt.Errorf("admission leaked %d in-flight slots", res.InFlightEnd)
	}
	typed := float64(res.Served+res.Rejected429+res.Degraded503) / float64(res.Issued)
	sec := rep.Section("overload")
	sec.Params = map[string]float64{
		"devices":       float64(res.Devices),
		"per_app_rate":  50,
		"per_app_burst": 2,
		"max_in_flight": 8,
	}
	sec.Add("served", "count", float64(res.Served))
	sec.Add("rejected_429", "count", float64(res.Rejected429))
	sec.Add("degraded_503", "count", float64(res.Degraded503))
	sec.Add("typed_response_fraction", "ratio", typed)
	sec.Add("inflight_after_drain", "count", float64(res.InFlightEnd))
	addLatency(sec, "request_latency", res.Latency)
	fmt.Printf("%-14s %8d served, %d×429 %d×503 (100%% typed)  in-flight after drain: %d\n",
		"overload", res.Served, res.Rejected429, res.Degraded503, res.InFlightEnd)
	return nil
}

func addLatency(sec *report.Section, name string, s metrics.Snapshot) {
	m := sec.Add(name, "ns/op", float64(s.Mean()))
	m.P50 = float64(s.P50())
	m.P99 = float64(s.P99())
	m.P999 = float64(s.P999())
}
