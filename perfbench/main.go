// Command perfbench is the Maxoid benchmark: three steady-state
// workloads driven through the system's public entry points, each
// checked against its own reference model.
//
//	sync-read   remote read-mostly provider traffic, volatile device
//	sync-write  remote write-heavy provider traffic, durable device
//	app-files   local confined app instances doing file I/O
//
// Usage:
//
//	perfbench --workload sync-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs traced and untraced phases alternately and prints the per-layer
// metrics, writing every span to a CSV file under --out. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A wrong result, a confinement
// violation, a lost acknowledged write or a leak exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxoid/internal/health"
)

// numClients is the closed loop's client count: each client waits for
// its reply before it sends again, like a device sync loop.
const numClients = 2

// defaultSetups is how many times an untraced run sets up; setup_s is
// the median, so one slow set-up does not move it.
const defaultSetups = 3

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// tiny shrinks every size, for the self-test.
	tiny bool
	// outDir receives temporary stores and span files.
	outDir string

	// Self-test hooks: corrupt makes the model expect wrong values;
	// leakInstance leaves an extra app instance running after the
	// window.
	corrupt      bool
	leakInstance bool
}

// world is one workload's booted system plus its reference model.
type world interface {
	// step runs one unit of a client's work, recording every operation
	// into rec. A non-nil error is a correctness failure.
	step(client int, rec *recorder) error
	// steady returns counters that must read the same at the start and
	// the end of the window.
	steady() (map[string]int64, error)
	// drain returns the system to its steady state after the window.
	drain() error
	// leak starts an extra app instance (self-test hook).
	leak() error
	// health reports the store's health state.
	health() health.State
	// setTracing switches span recording on or off between phases.
	setTracing(on bool)
	// layers adds the workload's per-layer metrics for a traced run.
	layers(lm *layerMetrics, ops int64, elapsed time.Duration)
	// writeSpans writes the recorded spans as CSV.
	writeSpans(out io.Writer) error
	// finish runs the post-run checks and shuts the system down.
	finish() error
	// close shuts the system down without checks.
	close()
}

// Correctness failures. Any of them fails the run.
var (
	errWrong       = errors.New("wrong result")
	errConfinement = errors.New("confinement violation")
	errLost        = errors.New("lost acknowledged write")
	errLeak        = errors.New("leak")
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: defaultSetups}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "sync-read, sync-write or app-files")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench-out", "directory for temporary stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := run(cfg, stdout)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(stderr, "perfbench:", jerr)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps a workload name to its constructor.
var workloads = map[string]func(cfg config) (world, error){
	"sync-read":  newSyncRead,
	"sync-write": newSyncWrite,
	"app-files":  newAppFiles,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run sets up, measures and checks one workload. It returns a result
// whenever the measurement finished, with Correct false when a check
// failed, and the failure as the error.
func run(cfg config, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o777); err != nil {
		return nil, err
	}
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var setupTimes []float64
	var w world
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		nw, err := workloads[cfg.workload](cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		w = nw
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%d clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, boolInt(cfg.trace), numClients)
	if sw, ok := w.(*syncWorld); ok {
		fmt.Fprintf(out, "flush policy: %s\n", sw.flushPolicy())
	}

	before, err := w.steady()
	if err != nil {
		w.close()
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var rec recorder
	var subs []recorder
	var subElapsed []time.Duration
	layers := newLayerMetrics()
	if cfg.trace {
		rec, err = runTraced(cfg, w, window, layers, out)
	} else {
		subs, subElapsed, err = measure(w, window)
		for i := range subs {
			rec.attempted += subs[i].attempted
			rec.failed += subs[i].failed
		}
	}
	if err != nil {
		w.close()
		return &result{Correct: false, Attempted: max(rec.attempted, 1), Failed: rec.failed, Metrics: map[string]metricValue{}}, err
	}
	var e2e map[string]float64
	if !cfg.trace {
		e2e = endToEndMetrics(cfg, subs, subElapsed, setupTimes, out)
	}
	// The live heap is read with the latency samples released, so it
	// holds the system's state and the model, not the measurement. The
	// second collection empties the sync.Pool victim caches the first
	// one leaves behind.
	subs, rec = nil, recorder{attempted: rec.attempted, failed: rec.failed}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	checkErr := endChecks(cfg, w, before)
	if checkErr == nil {
		checkErr = w.finish()
	} else {
		w.close()
	}

	res := &result{Correct: checkErr == nil, Attempted: max(rec.attempted, 1), Failed: rec.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		for _, m := range perLayer {
			v, ok := layers.v[m.Name]
			if reason := naReason(cfg.workload, m.Name); reason != "" || !ok || math.IsNaN(v) {
				if reason == "" {
					reason = "no samples"
				}
				fmt.Fprintf(out, "%s = n/a (%s)\n", m.Name, reason)
				v = 0
			} else if n := layers.n[m.Name]; n != "" {
				fmt.Fprintf(out, "%s = %.6g %s (%s)\n", m.Name, v, m.Unit, n)
			} else {
				fmt.Fprintf(out, "%s = %.6g %s\n", m.Name, v, m.Unit)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	} else {
		e2e["live_heap_mb"] = heapMB
		fmt.Fprintf(out, "live_heap_mb = %.6g MB (after runtime.GC at the end of the window)\n", heapMB)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: e2e[m.Name], Unit: m.Unit}
		}
	}
	return res, checkErr
}

// endChecks compares the steady-state counters and the store health
// after the window has drained.
func endChecks(cfg config, w world, before map[string]int64) error {
	if cfg.leakInstance {
		if err := w.leak(); err != nil {
			return err
		}
	}
	if err := w.drain(); err != nil {
		return err
	}
	after, err := w.steady()
	if err != nil {
		return err
	}
	var drift []string
	for _, k := range sortedKeys(before) {
		if before[k] != after[k] {
			drift = append(drift, fmt.Sprintf("%s %d -> %d", k, before[k], after[k]))
		}
	}
	for _, k := range sortedKeys(after) {
		if _, ok := before[k]; !ok {
			drift = append(drift, fmt.Sprintf("%s appeared (%d)", k, after[k]))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("%w: steady-state counters drifted over the window: %s", errLeak, strings.Join(drift, "; "))
	}
	if st := w.health(); st != health.Healthy {
		return fmt.Errorf("store health ended %v, want Healthy", st)
	}
	return nil
}

// runWindow runs every client's closed loop for d and returns the time
// until the last client stopped. The first correctness error stops all
// clients.
func runWindow(w world, recs []recorder, d time.Duration) (time.Duration, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(recs))
	start := time.Now()
	deadline := start.Add(d)
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(deadline) {
				if err := w.step(c, &recs[c]); err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// subWindows is how many consecutive sub-windows an untraced run
// measures. Throughput and the p50s are medians over them, so a burst
// of interference inside one sub-window does not move the result.
const subWindows = 10

// measure runs the window as subWindows consecutive sub-windows.
func measure(w world, window time.Duration) ([]recorder, []time.Duration, error) {
	subs := make([]recorder, 0, subWindows)
	var elapsed []time.Duration
	for i := 0; i < subWindows; i++ {
		var recs [numClients]recorder
		el, err := runWindow(w, recs[:], window/subWindows)
		var sub recorder
		for c := range recs {
			sub.merge(&recs[c])
		}
		subs = append(subs, sub)
		elapsed = append(elapsed, el)
		if err != nil {
			return subs, elapsed, err
		}
	}
	return subs, elapsed, nil
}

// endToEndMetrics derives the end-to-end metrics and prints each with
// its unit and sample count. Throughput and p50s are medians over the
// sub-windows; a p99 pools every sample of its class.
func endToEndMetrics(cfg config, subs []recorder, elapsed []time.Duration, setupTimes []float64, out io.Writer) map[string]float64 {
	m := map[string]float64{}
	m["setup_s"] = median(setupTimes)
	fmt.Fprintf(out, "setup_s = %.6g s (median of %d set-ups: %s)\n", m["setup_s"], len(setupTimes), fmtList(setupTimes))
	var all recorder
	var total time.Duration
	tputs := make([]float64, len(subs))
	for i := range subs {
		tputs[i] = float64(opsOf(&subs[i])) / elapsed[i].Seconds()
		all.merge(&subs[i])
		total += elapsed[i]
	}
	m["throughput"] = median(tputs)
	fmt.Fprintf(out, "throughput = %.6g ops/s (median of %d sub-windows; n=%d ops in %.3f s)\n", m["throughput"], len(subs), opsOf(&all), total.Seconds())
	p50 := func(c, k int) float64 {
		var v []float64
		for i := range subs {
			if subs[i].lat[c][k].count() > 0 {
				v = append(v, subs[i].lat[c][k].quantile(0.5))
			}
		}
		return median(v)
	}
	for _, c := range []int{classGet, classScan, classPut, classSpawn} {
		name := classNames[c]
		for k, kind := range []string{"init", "deleg"} {
			if c == classSpawn && k == 0 {
				continue
			}
			key := fmt.Sprintf("%s_p50_%s_us", name, kind)
			if c == classSpawn {
				key = "spawn_p50_us"
			}
			n := all.lat[c][k].count()
			if n == 0 {
				fmt.Fprintf(out, "%s = n/a (no %s operations on %s)\n", key, name, cfg.workload)
				continue
			}
			m[key] = p50(c, k)
			fmt.Fprintf(out, "%s = %.6g us (median of sub-window p50s; n=%d)\n", key, m[key], n)
		}
		if c == classSpawn {
			continue
		}
		pooled := all.all(c)
		key := name + "_p99_us"
		m[key] = pooled.quantile(0.99)
		if pooled.count() >= minTailSamples {
			fmt.Fprintf(out, "%s = %.6g us (n=%d)\n", key, m[key], pooled.count())
		} else {
			fmt.Fprintf(out, "%s = unresolved (n=%d < %d samples)\n", key, pooled.count(), minTailSamples)
		}
	}
	fmt.Fprintf(out, "fail_ratio = %.6g ratio (failed %d of %d attempted)\n",
		float64(all.failed)/float64(max(all.attempted, 1)), all.failed, all.attempted)
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deck deals card kinds in a seeded shuffled order; each pass through
// the deck deals every kind exactly its count of times, so a window's
// proportions are exact rather than drawn.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, counts []int) *deck {
	d := &deck{rng: rng}
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// ones returns n counts of 1: a deck dealing each of n items once per pass.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
