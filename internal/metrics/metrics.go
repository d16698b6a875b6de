// Package metrics provides the observability primitives the
// substrate's hot paths (binder, AMS admission, WAL, gateway) record
// into: lock-free sharded latency histograms with p50/p99/p999
// extraction, and sharded throughput counters. Recording never takes a
// lock and never allocates; shards are cache-line padded so concurrent
// recorders on different shards do not false-share. Reading
// (quantiles, totals) merges the shards with atomic loads and may run
// concurrently with recorders — readers see a slightly stale but
// internally consistent view, which is what a monitoring plane wants.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numShards spreads recorders across cache lines. A power of two so the
// shard pick is a mask, sized for tens of hardware threads.
const numShards = 16

// Histogram buckets are log-scale: bucket i covers [2^i, 2^(i+1)) ns,
// 64 buckets cover every latency an int64 nanosecond count can express.
// Quantile extraction interpolates linearly inside the bucket, so p99
// error is bounded by the bucket's width (a factor of 2 worst case,
// far less in practice because the mass concentrates mid-bucket).
const numBuckets = 64

// pad keeps each shard on its own cache line(s).
type pad [64]byte

// histShard is one recorder lane of a Histogram.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 when empty
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
	_       pad
}

// Histogram is a lock-free sharded latency histogram. The zero value is
// NOT ready; use NewHistogram.
type Histogram struct {
	name   string
	shards [numShards]histShard
	picker atomic.Uint32
}

// NewHistogram creates an empty named histogram.
func NewHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	for i := range h.shards {
		h.shards[i].min.Store(math.MaxInt64)
	}
	return h
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a nanosecond duration to its log-scale bucket.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns)) - 1
}

// Observe records one latency sample. Safe for any number of concurrent
// callers; never blocks, never allocates.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s := &h.shards[h.picker.Add(1)&(numShards-1)]
	s.count.Add(1)
	s.sum.Add(ns)
	s.buckets[bucketOf(ns)].Add(1)
	for {
		cur := s.min.Load()
		if ns >= cur || s.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Snapshot is a merged, immutable view of a histogram.
type Snapshot struct {
	Name    string
	Count   int64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	buckets [numBuckets]int64
}

// Snapshot merges the shards. Concurrent recorders may land between
// shard reads; each shard's own counters are read atomically.
func (h *Histogram) Snapshot() Snapshot {
	out := Snapshot{Name: h.name, Min: time.Duration(math.MaxInt64)}
	for i := range h.shards {
		s := &h.shards[i]
		out.Count += s.count.Load()
		out.Sum += time.Duration(s.sum.Load())
		if m := time.Duration(s.min.Load()); m < out.Min {
			out.Min = m
		}
		if m := time.Duration(s.max.Load()); m > out.Max {
			out.Max = m
		}
		for b := range s.buckets {
			out.buckets[b] += s.buckets[b].Load()
		}
	}
	if out.Count == 0 {
		out.Min = 0
	}
	return out
}

// Mean returns the average sample.
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the q-th (0..1) latency quantile, interpolated
// within the containing log bucket.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var seen float64
	for b, n := range s.buckets {
		if n == 0 {
			continue
		}
		fn := float64(n)
		if seen+fn > rank {
			lo := float64(int64(1) << uint(b))
			if b == 0 {
				lo = 0
			}
			hi := float64(int64(1) << uint(b+1))
			frac := (rank - seen) / fn
			ns := lo + (hi-lo)*frac
			return clampDuration(ns, s.Min, s.Max)
		}
		seen += fn
	}
	return s.Max
}

// clampDuration keeps interpolated values inside the observed range.
func clampDuration(ns float64, min, max time.Duration) time.Duration {
	d := time.Duration(ns)
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// P50, P99, P999 are the quantiles the roadmap's trajectory tracks.
func (s Snapshot) P50() time.Duration  { return s.Quantile(0.50) }
func (s Snapshot) P99() time.Duration  { return s.Quantile(0.99) }
func (s Snapshot) P999() time.Duration { return s.Quantile(0.999) }

// String renders the snapshot compactly for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("%s: n=%d p50=%v p99=%v p999=%v max=%v",
		s.Name, s.Count, s.P50(), s.P99(), s.P999(), s.Max)
}

// Counter is a sharded monotonic counter (throughput, rejections).
type Counter struct {
	name   string
	shards [numShards]struct {
		n atomic.Int64
		_ pad
	}
	picker atomic.Uint32
}

// NewCounter creates a named counter at zero.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	c.shards[c.picker.Add(1)&(numShards-1)].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Total merges the shards.
func (c *Counter) Total() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].n.Load()
	}
	return t
}

// Gauge is a last-value-wins instantaneous metric (health state, queue
// depth). Unlike Counter it is not sharded: sets are rare compared to
// counter increments, and a gauge must read back exactly what was last
// stored, so a single atomic is both correct and fast enough.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge creates a named gauge at zero.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last value stored.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry names histograms, counters, and gauges so layers can share
// one metrics plane without plumbing pointers everywhere. Get-or-create
// is lock-free on the hot path after first use (sync.Map reads).
type Registry struct {
	hists    sync.Map // name -> *Histogram
	counters sync.Map // name -> *Counter
	gauges   sync.Map // name -> *Gauge
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry the substrate records into when
// no explicit registry is wired.
var Default = NewRegistry()

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, NewHistogram(name))
	return v.(*Histogram)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, NewCounter(name))
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, NewGauge(name))
	return v.(*Gauge)
}

// Snapshots returns every histogram's snapshot, sorted by name.
func (r *Registry) Snapshots() []Snapshot {
	var out []Snapshot
	r.hists.Range(func(_, v any) bool {
		out = append(out, v.(*Histogram).Snapshot())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Totals returns every counter's total, keyed by name.
func (r *Registry) Totals() map[string]int64 {
	out := make(map[string]int64)
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Counter).Total()
		return true
	})
	return out
}

// Gauges returns every gauge's current value, keyed by name.
func (r *Registry) Gauges() map[string]int64 {
	out := make(map[string]int64)
	r.gauges.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Gauge).Value()
		return true
	})
	return out
}
