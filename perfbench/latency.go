package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Operation classes of the end-to-end metrics.
const (
	classGet   = iota // point read: GET /{pk} or a whole-file read
	classScan         // bounded range read: range query or ReadDir
	classPut          // acknowledged write: PUT/POST/DELETE or a file write
	classSpawn        // LaunchAsDelegate
	numClasses
)

var classNames = [numClasses]string{"get", "scan", "put", "spawn"}

// minTailSamples is the sample count below which a p99 is not resolved.
const minTailSamples = 1000

// latencies keeps every sample exactly, so a percentile is a sample
// that was measured, never a point interpolated inside a bucket.
type latencies struct {
	ns     []int64
	sorted bool
}

func (l *latencies) add(d time.Duration) {
	l.ns = append(l.ns, int64(d))
	l.sorted = false
}

func (l *latencies) merge(o *latencies) {
	l.ns = append(l.ns, o.ns...)
	l.sorted = false
}

func (l *latencies) count() int { return len(l.ns) }

// quantile returns the nearest-rank q-quantile in microseconds, or NaN
// when there are no samples.
func (l *latencies) quantile(q float64) float64 {
	if len(l.ns) == 0 {
		return math.NaN()
	}
	if !l.sorted {
		sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
		l.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(l.ns)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(l.ns[rank]) / 1e3
}

// recorder holds one client's latencies by class and identity kind
// (index 0 initiator, 1 delegate), plus its operation counts.
type recorder struct {
	lat       [numClasses][2]latencies
	attempted int64
	failed    int64
}

func (r *recorder) observe(class int, deleg bool, d time.Duration) {
	k := 0
	if deleg {
		k = 1
	}
	r.lat[class][k].add(d)
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		for k := range r.lat[c] {
			r.lat[c][k].merge(&o.lat[c][k])
		}
	}
	r.attempted += o.attempted
	r.failed += o.failed
}

// all returns one class's samples over both identity kinds.
func (r *recorder) all(class int) *latencies {
	var l latencies
	l.merge(&r.lat[class][0])
	l.merge(&r.lat[class][1])
	return &l
}

// layerMetrics collects a traced run's per-layer values and, for every
// value read from latencies, the sample counts behind it.
type layerMetrics struct {
	v map[string]float64
	n map[string]string
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{v: map[string]float64{}, n: map[string]string{}}
}

func (lm *layerMetrics) set(name string, v float64) { lm.v[name] = v }

// pct sets name to the q-quantile of l in microseconds.
func (lm *layerMetrics) pct(name string, q float64, l *latencies) {
	lm.v[name] = l.quantile(q)
	lm.n[name] = fmt.Sprintf("n=%d", l.count())
}

// extra sets name to the p50 of deleg minus the p50 of init.
func (lm *layerMetrics) extra(name string, deleg, init *latencies) {
	lm.v[name] = deleg.quantile(0.5) - init.quantile(0.5)
	lm.n[name] = fmt.Sprintf("n=%d delegate, %d initiator", deleg.count(), init.count())
}
