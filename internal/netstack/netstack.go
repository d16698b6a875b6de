// Package netstack simulates the network the device reaches.
//
// The paper's evaluation needs a network for two things: Downloads
// Provider fetching files (Table 4) and backend servers for apps like
// Dropbox. We model the network as a registry of named hosts with
// request/response handlers plus a configurable per-KB latency so
// download benchmarks have a realistic time component. Reachability is
// enforced elsewhere: the kernel's Connect gate returns ENETUNREACH for
// delegates (paper §6.2) before a request ever reaches this package.
package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maxoid/internal/fault"
)

// ErrNoHost is returned for requests to unregistered hosts.
var ErrNoHost = errors.New("netstack: no such host")

// faultConnect injects connection failures before a request reaches
// the host, modeling network partitions (see internal/fault).
var faultConnect = fault.Declare("netstack.connect", "network round trip: fail before the request reaches the host")

// Request is a simplified HTTP-like request. Method and Headers are
// optional: plain download-style fetches leave them empty, the gateway
// routes on them.
type Request struct {
	Host    string
	Path    string
	Body    []byte
	Method  string            // GET/POST/PUT/DELETE; "" reads as GET
	Headers map[string]string // e.g. the gateway identity token
}

// Header returns a request header ("" when absent).
func (r Request) Header(key string) string {
	if r.Headers == nil {
		return ""
	}
	return r.Headers[key]
}

// Response is a simplified HTTP-like response.
type Response struct {
	Status  int
	Body    []byte
	Headers map[string]string // e.g. Retry-After on 429/503
}

// Header returns a response header ("" when absent).
func (r Response) Header(key string) string {
	if r.Headers == nil {
		return ""
	}
	return r.Headers[key]
}

// Handler serves requests for one host.
type Handler interface {
	Serve(req Request) (Response, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req Request) (Response, error)

// Serve calls f.
func (f HandlerFunc) Serve(req Request) (Response, error) { return f(req) }

// Network is the set of reachable hosts.
type Network struct {
	mu       sync.RWMutex
	hosts    map[string]Handler
	perKB    time.Duration
	baseRTT  time.Duration
	requests atomic.Int64
}

// New creates a network with the given base round-trip latency and
// additional latency per KB transferred. Zero values disable delays,
// which tests use; benchmarks set realistic values.
func New(baseRTT, perKB time.Duration) *Network {
	return &Network{
		hosts:   make(map[string]Handler),
		baseRTT: baseRTT,
		perKB:   perKB,
	}
}

// Register makes a host reachable.
func (n *Network) Register(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = h
}

// Bind makes host reachable like Register, but fails when the host is
// already taken: two servers must not silently steal each other's
// traffic. unbind frees the host again; later calls do nothing, so a
// repeated unbind cannot free a host someone else has bound since.
func (n *Network) Bind(host string, h Handler) (unbind func(), err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.hosts[host]; taken {
		return nil, fmt.Errorf("netstack: host %s already registered", host)
	}
	n.hosts[host] = h
	var once sync.Once
	return func() {
		once.Do(func() {
			n.mu.Lock()
			delete(n.hosts, host)
			n.mu.Unlock()
		})
	}, nil
}

// Requests returns the total number of requests served, for asserting
// in tests that confined apps generated no network traffic.
func (n *Network) Requests() int64 {
	return n.requests.Load()
}

// RoundTrip delivers a request to its host and simulates transfer time.
func (n *Network) RoundTrip(req Request) (Response, error) {
	if err := fault.Hit(faultConnect); err != nil {
		return Response{}, fmt.Errorf("netstack: connect %s: %w", req.Host, err)
	}
	n.mu.RLock()
	h, ok := n.hosts[req.Host]
	n.mu.RUnlock()
	if !ok {
		return Response{}, fmt.Errorf("%w: %s", ErrNoHost, req.Host)
	}
	resp, err := h.Serve(req)
	if err != nil {
		return Response{}, err
	}
	if n.baseRTT > 0 || n.perKB > 0 {
		kb := (len(req.Body) + len(resp.Body)) / 1024
		time.Sleep(n.baseRTT + time.Duration(kb)*n.perKB)
	}
	n.requests.Add(1)
	return resp, nil
}

// StaticFileServer is a Handler serving an in-memory path→content map;
// used as the web server behind Downloads benchmarks and the Dropbox
// backend.
type StaticFileServer struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewStaticFileServer creates an empty file server.
func NewStaticFileServer() *StaticFileServer {
	return &StaticFileServer{files: make(map[string][]byte)}
}

// Put stores content at path.
func (s *StaticFileServer) Put(path string, content []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[path] = content
}

// Get retrieves the content stored at path.
func (s *StaticFileServer) Get(path string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.files[path]
	return b, ok
}

// Serve implements Handler: GET-like semantics with an optional upload
// when the request carries a body (PUT-like), which the Dropbox app
// uses to sync files.
func (s *StaticFileServer) Serve(req Request) (Response, error) {
	if len(req.Body) > 0 {
		s.Put(req.Path, req.Body)
		return Response{Status: 200}, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	content, ok := s.files[req.Path]
	if !ok {
		return Response{Status: 404}, nil
	}
	out := make([]byte, len(content))
	copy(out, content)
	return Response{Status: 200, Body: out}, nil
}
