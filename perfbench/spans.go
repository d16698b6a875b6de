package main

// Span recording at the seams the program already exposes: gateway
// pre/post hooks, a pass-through binder admission gate, and a
// wal.Storage wrapper. Spans of one request are matched by identity:
// each client owns its identities and has one request in flight.

import (
	"sync"
	"sync/atomic"
	"time"

	"maxoid/internal/binder"
	"maxoid/internal/gateway"
	"maxoid/internal/kernel"
	"maxoid/internal/wal"
)

// reqSpan is one gateway request's layer boundaries, in nanoseconds
// since the tracer's epoch:
//
//	send -> pre       netstack hand-off, route parse, identity resolution
//	pre -> admit      resolver, body decode, endpoint lookup, policy
//	admit -> release  provider, cowproxy, sqldb, WAL
//	release -> post   response JSON encoding
//	post -> recv      netstack reply
type reqSpan struct {
	class                                 uint8
	deleg                                 bool
	send, pre, admit, release, post, recv int64
}

// complete reports whether every seam stamped the request in order.
func (s *reqSpan) complete() bool {
	return s.send > 0 && s.pre >= s.send && s.admit >= s.pre && s.release >= s.admit &&
		s.post >= s.release && s.recv >= s.post
}

// slot receives the server-side stamps of an identity's request in
// flight.
type slot struct {
	pre, admit, release, post atomic.Int64
}

func (s *slot) reset() {
	s.pre.Store(0)
	s.admit.Store(0)
	s.release.Store(0)
	s.post.Store(0)
}

func (s *slot) fill(sp *reqSpan) {
	sp.pre, sp.admit, sp.release, sp.post = s.pre.Load(), s.admit.Load(), s.release.Load(), s.post.Load()
}

// traceGate is a pass-through binder.AdmissionGate: Admit stamps the
// start of dispatch and its release stamps the end.
type traceGate struct {
	tr     *tracer
	slots  map[kernel.Task]*slot // read-only after set-up
	admits atomic.Int64
}

func (g *traceGate) Admit(from binder.Caller, endpoint, code string, n int) (func(), error) {
	g.admits.Add(1)
	if !g.tr.on.Load() {
		return nil, nil
	}
	s := g.slots[from.Task]
	if s == nil {
		return nil, nil
	}
	s.admit.Store(g.tr.now())
	return func() { s.release.Store(g.tr.now()) }, nil
}

// installTrace gives every identity a slot and hooks the gateway and
// the binder router.
func installTrace(tr *tracer, gw *gateway.Gateway, router *binder.Router, idents []*ident) *traceGate {
	byName := make(map[string]*slot, len(idents))
	g := &traceGate{tr: tr, slots: make(map[kernel.Task]*slot, len(idents))}
	for _, in := range idents {
		in.slot = &slot{}
		byName[in.task.String()] = in.slot
		g.slots[in.task] = in.slot
	}
	gw.Pre(func(info *gateway.RequestInfo) error {
		if tr.on.Load() {
			if s := byName[info.Identity]; s != nil {
				s.pre.Store(tr.now())
			}
		}
		return nil
	})
	gw.Post(func(info *gateway.RequestInfo, _ int) {
		if tr.on.Load() {
			if s := byName[info.Identity]; s != nil {
				s.post.Store(tr.now())
			}
		}
	})
	router.SetAdmission(g)
	return g
}

// gatewayLayers derives the gateway, netstack, binder, provider and
// cowproxy span metrics. Each segment between two seams is that
// layer's self time.
func gatewayLayers(lm *layerMetrics, spans []reqSpan) {
	var pre, route, post, reply latencies
	var prov [numClasses][2]latencies
	for i := range spans {
		s := &spans[i]
		if !s.complete() {
			continue
		}
		pre.add(time.Duration(s.pre - s.send))
		route.add(time.Duration(s.admit - s.pre))
		post.add(time.Duration(s.post - s.release))
		reply.add(time.Duration(s.recv - s.post))
		k := 0
		if s.deleg {
			k = 1
		}
		prov[s.class][k].add(time.Duration(s.release - s.admit))
	}
	lm.pct("gateway.pre_us", 0.5, &pre)
	lm.pct("binder.route_us", 0.5, &route)
	lm.pct("gateway.post_us", 0.5, &post)
	lm.pct("netstack.reply_us", 0.5, &reply)
	for _, c := range []int{classGet, classScan, classPut} {
		var all latencies
		all.merge(&prov[c][0])
		all.merge(&prov[c][1])
		name := classNames[c]
		lm.pct("provider."+name+"_us", 0.5, &all)
		lm.extra("cowproxy.deleg_extra_"+name+"_us", &prov[c][1], &prov[c][0])
	}
}

// walTrace counts and times what the store writes to its storage.
type walTrace struct {
	tr       *tracer
	walBytes atomic.Int64 // bytes written to the WAL file
	allBytes atomic.Int64 // bytes written to any file (WAL and snapshots)
	walSyncs atomic.Int64
	syncNS   atomic.Int64 // total time inside WAL fsyncs

	mu    sync.Mutex
	syncs latencies // WAL fsync durations during traced phases
}

func (t *walTrace) reset() {
	t.walBytes.Store(0)
	t.allBytes.Store(0)
	t.walSyncs.Store(0)
	t.syncNS.Store(0)
	t.mu.Lock()
	t.syncs = latencies{}
	t.mu.Unlock()
}

func (t *walTrace) layers(lm *layerMetrics, writes, payload int64, elapsed time.Duration) {
	lm.set("wal.fsyncs_per_put", ratio(t.walSyncs.Load(), writes))
	lm.set("wal.bytes_per_put", ratio(t.walBytes.Load(), writes))
	lm.set("wal.write_amp", ratio(t.allBytes.Load(), payload))
	lm.set("wal.fsync_busy_frac", float64(t.syncNS.Load())/float64(elapsed))
	t.mu.Lock()
	lm.pct("wal.fsync_p50_us", 0.5, &t.syncs)
	lm.pct("wal.fsync_p99_us", 0.99, &t.syncs)
	t.mu.Unlock()
}

// tracedStorage wraps the durable store's storage.
type tracedStorage struct {
	wal.Storage
	t *walTrace
}

func (s *tracedStorage) Create(name string) (wal.File, error) {
	f, err := s.Storage.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, wal: name == "wal", t: s.t}, nil
}

func (s *tracedStorage) Append(name string, validLen int64) (wal.File, error) {
	f, err := s.Storage.Append(name, validLen)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, wal: name == "wal", t: s.t}, nil
}

type tracedFile struct {
	wal.File
	wal bool
	t   *walTrace
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.allBytes.Add(int64(n))
	if f.wal {
		f.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.wal {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.t.walSyncs.Add(1)
	f.t.syncNS.Add(int64(d))
	if f.t.tr.on.Load() {
		f.t.mu.Lock()
		f.t.syncs.add(d)
		f.t.mu.Unlock()
	}
	return err
}
