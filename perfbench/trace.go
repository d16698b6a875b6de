package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// tracePhases is how many sub-windows a traced run alternates between
// untraced and traced. Interleaving them lets drift over the run (heap
// growth, cache warm-up) weigh on both kinds equally, so their
// throughput difference is the cost of tracing.
const tracePhases = 10

// tracer is the switch and clock the span recorders share. Spans are
// stamped in nanoseconds since epoch.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// runtimeSample is a point reading of the process-wide counters the
// runtime.* metrics difference.
type runtimeSample struct {
	cpu      time.Duration // user + system CPU (getrusage)
	mallocs  uint64
	alloc    uint64
	gcCPU    float64 // seconds of GC CPU (runtime/metrics)
	totalCPU float64 // seconds of CPU the runtime accounts for
}

var runtimeMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	var s runtimeSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.alloc = ms.Mallocs, ms.TotalAlloc
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

func (s runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{
		cpu:      s.cpu - o.cpu,
		mallocs:  s.mallocs - o.mallocs,
		alloc:    s.alloc - o.alloc,
		gcCPU:    s.gcCPU - o.gcCPU,
		totalCPU: s.totalCPU - o.totalCPU,
	}
}

func (s runtimeSample) add(o runtimeSample) runtimeSample {
	return runtimeSample{
		cpu:      s.cpu + o.cpu,
		mallocs:  s.mallocs + o.mallocs,
		alloc:    s.alloc + o.alloc,
		gcCPU:    s.gcCPU + o.gcCPU,
		totalCPU: s.totalCPU + o.totalCPU,
	}
}

// opsOf counts the operations a recorder holds.
func opsOf(r *recorder) int64 {
	var n int64
	for c := range r.lat {
		n += int64(r.lat[c][0].count() + r.lat[c][1].count())
	}
	return n
}

// runTraced alternates untraced and traced phases over the window. The
// runtime.* metrics come from the untraced phases, the span-derived
// metrics from the traced ones, and the counter ratios from both.
func runTraced(cfg config, w world, window time.Duration, layers *layerMetrics, out io.Writer) (recorder, error) {
	phase := window / tracePhases
	var recs [2]recorder // 0 untraced, 1 traced
	var elapsed [2]time.Duration
	var rt [2]runtimeSample
	for p := 0; p < tracePhases; p++ {
		kind := p % 2
		w.setTracing(kind == 1)
		before := readRuntime()
		var prs [numClients]recorder
		el, err := runWindow(w, prs[:], phase)
		rt[kind] = rt[kind].add(readRuntime().sub(before))
		w.setTracing(false)
		for i := range prs {
			recs[kind].merge(&prs[i])
		}
		elapsed[kind] += el
		if err != nil {
			var all recorder
			all.merge(&recs[0])
			all.merge(&recs[1])
			return all, err
		}
	}
	var untraced, traced float64
	if ops := opsOf(&recs[0]); ops > 0 {
		untraced = float64(ops) / elapsed[0].Seconds()
		u := rt[0]
		layers.set("runtime.cpu_us_per_op", float64(u.cpu.Microseconds())/float64(ops))
		layers.set("runtime.allocs_per_op", float64(u.mallocs)/float64(ops))
		layers.set("runtime.alloc_kb_per_op", float64(u.alloc)/1024/float64(ops))
		if u.totalCPU > 0 {
			layers.set("runtime.gc_cpu_frac", u.gcCPU/u.totalCPU)
		}
	}
	traced = float64(opsOf(&recs[1])) / elapsed[1].Seconds()
	if untraced > 0 {
		layers.set("trace.overhead_frac", (untraced-traced)/untraced)
	}
	fmt.Fprintf(out, "traced phases: %d untraced ops/s %.6g, traced ops/s %.6g\n", tracePhases, untraced, traced)

	var all recorder
	all.merge(&recs[0])
	all.merge(&recs[1])
	total := elapsed[0] + elapsed[1]
	w.layers(layers, opsOf(&all), total)

	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
	if err := writeSpanFile(path, w); err != nil {
		return all, err
	}
	fmt.Fprintf(out, "span file: %s\n", path)
	return all, nil
}

func writeSpanFile(path string, w world) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := w.writeSpans(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
