package netstack

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"maxoid/internal/testutil"
)

func TestRoundTripToStaticServer(t *testing.T) {
	net := New(0, 0)
	srv := NewStaticFileServer()
	srv.Put("/a.txt", []byte("hello"))
	net.Register("files.example", srv)

	resp, err := net.RoundTrip(Request{Host: "files.example", Path: "/a.txt"})
	if err != nil || resp.Status != 200 || string(resp.Body) != "hello" {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	resp, err = net.RoundTrip(Request{Host: "files.example", Path: "/missing"})
	if err != nil || resp.Status != 404 {
		t.Errorf("missing file: %+v, %v", resp, err)
	}
}

func TestUnknownHost(t *testing.T) {
	net := New(0, 0)
	if _, err := net.RoundTrip(Request{Host: "nowhere"}); !errors.Is(err, ErrNoHost) {
		t.Errorf("err = %v, want ErrNoHost", err)
	}
}

func TestUploadSemantics(t *testing.T) {
	net := New(0, 0)
	srv := NewStaticFileServer()
	net.Register("store", srv)
	if _, err := net.RoundTrip(Request{Host: "store", Path: "/f", Body: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	got, ok := srv.Get("/f")
	if !ok || string(got) != "payload" {
		t.Errorf("upload stored %q, %v", got, ok)
	}
}

func TestResponseBodyIsACopy(t *testing.T) {
	net := New(0, 0)
	srv := NewStaticFileServer()
	srv.Put("/f", []byte("original"))
	net.Register("h", srv)
	resp, err := net.RoundTrip(Request{Host: "h", Path: "/f"})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body[0] = 'X'
	again, _ := net.RoundTrip(Request{Host: "h", Path: "/f"})
	if string(again.Body) != "original" {
		t.Error("response body aliases server storage")
	}
}

func TestRequestCounter(t *testing.T) {
	net := New(0, 0)
	srv := NewStaticFileServer()
	srv.Put("/f", []byte("x"))
	net.Register("h", srv)
	for i := 0; i < 5; i++ {
		if _, err := net.RoundTrip(Request{Host: "h", Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	// Failed lookups (no host) do not count.
	_, _ = net.RoundTrip(Request{Host: "nope"})
	if net.Requests() != 5 {
		t.Errorf("Requests = %d, want 5", net.Requests())
	}
}

func TestSimulatedLatency(t *testing.T) {
	net := New(2*time.Millisecond, 0)
	srv := NewStaticFileServer()
	srv.Put("/f", []byte("x"))
	net.Register("h", srv)
	start := time.Now()
	if _, err := net.RoundTrip(Request{Host: "h", Path: "/f"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestHandlerFunc(t *testing.T) {
	net := New(0, 0)
	net.Register("echo", HandlerFunc(func(req Request) (Response, error) {
		return Response{Status: 200, Body: append([]byte("echo:"), req.Body...)}, nil
	}))
	resp, err := net.RoundTrip(Request{Host: "echo", Path: "/", Body: []byte("hi")})
	if err != nil || string(resp.Body) != "echo:hi" {
		t.Errorf("echo = %q, %v", resp.Body, err)
	}
}

// TestBind: a bound host refuses a second Bind, unbind frees it, and
// it can then be bound again.
func TestBind(t *testing.T) {
	net := New(0, 0)
	ok := HandlerFunc(func(Request) (Response, error) { return Response{Status: 204}, nil })
	unbind, err := net.Bind("gw", ok)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if resp, err := net.RoundTrip(Request{Host: "gw"}); err != nil || resp.Status != 204 {
		t.Fatalf("roundtrip = %+v, %v", resp, err)
	}
	if _, err := net.Bind("gw", ok); err == nil {
		t.Fatal("second Bind on a bound host succeeded")
	}
	unbind()
	if _, err := net.RoundTrip(Request{Host: "gw"}); !errors.Is(err, ErrNoHost) {
		t.Fatalf("roundtrip after unbind: %v, want ErrNoHost", err)
	}
	unbind, err = net.Bind("gw", ok)
	if err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
	unbind()
}

// statusHandler answers every request with code.
func statusHandler(code int) Handler {
	return HandlerFunc(func(Request) (Response, error) { return Response{Status: code}, nil })
}

// TestListenerRoundTrip drives a request through a host bound with
// Bind, the network's listening side: the handler sees the method,
// path, headers and body as sent, and the client gets its reply.
func TestListenerRoundTrip(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n := New(0, 0)
	unbind, err := n.Bind("gw", HandlerFunc(func(req Request) (Response, error) {
		if req.Method != "PUT" || req.Path != "/x" || req.Header("k") != "v" {
			return Response{Status: 400}, nil
		}
		return Response{Status: 200, Body: append([]byte("echo:"), req.Body...)}, nil
	}))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer unbind()

	resp, err := n.RoundTrip(Request{Host: "gw", Path: "/x", Method: "PUT", Body: []byte("hi"),
		Headers: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	if resp.Status != 200 || string(resp.Body) != "echo:hi" {
		t.Fatalf("got %d %q", resp.Status, resp.Body)
	}
	if got := n.Requests(); got != 1 {
		t.Fatalf("Requests = %d, want 1", got)
	}
}

// TestListenerCloseUnblocksAccept: unbinding a host never waits on a
// request its handler is still serving (RoundTrip holds no lock while
// the handler runs). The in-flight request still gets its reply, later
// requests get ErrNoHost, and a second unbind leaves a newer binding
// of the host alone.
func TestListenerCloseUnblocksAccept(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n := New(0, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()
	unbind, err := n.Bind("gw", HandlerFunc(func(req Request) (Response, error) {
		if req.Path != "/hold" {
			return Response{Status: 204}, nil
		}
		close(entered)
		<-release
		return Response{Status: 200}, nil
	}))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}

	type result struct {
		resp Response
		err  error
	}
	held := make(chan result, 1)
	go func() {
		resp, err := n.RoundTrip(Request{Host: "gw", Path: "/hold"})
		held <- result{resp, err}
	}()
	<-entered

	unbound := make(chan struct{})
	go func() {
		unbind()
		close(unbound)
	}()
	select {
	case <-unbound:
	case <-time.After(2 * time.Second):
		free()
		<-unbound
		t.Fatal("unbind blocked behind an in-flight request")
	}
	if _, err := n.RoundTrip(Request{Host: "gw", Path: "/x"}); !errors.Is(err, ErrNoHost) {
		t.Fatalf("roundtrip after unbind: got %v, want ErrNoHost", err)
	}
	free()
	if r := <-held; r.err != nil || r.resp.Status != 200 {
		t.Fatalf("in-flight request = %+v, %v; want 200", r.resp, r.err)
	}

	unbindNext, err := n.Bind("gw", statusHandler(201))
	if err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
	defer unbindNext()
	unbind()
	if resp, err := n.RoundTrip(Request{Host: "gw"}); err != nil || resp.Status != 201 {
		t.Fatalf("after a second unbind: %+v, %v; want the newer binding's 201", resp, err)
	}
}

// TestListenerCloseReleasesClients: clients blocked in a bound handler
// get the handler's own typed error back through RoundTrip when its
// server shuts down, the way the gateway hands ErrClosed to requests
// still waiting for a slot. Failed requests are not counted.
func TestListenerCloseReleasesClients(t *testing.T) {
	defer testutil.LeakCheck(t)()
	errClosed := errors.New("server closed")
	n := New(0, 0)
	closing := make(chan struct{})
	var waiting sync.WaitGroup
	waiting.Add(4)
	unbind, err := n.Bind("gw", HandlerFunc(func(Request) (Response, error) {
		waiting.Done()
		<-closing
		return Response{}, fmt.Errorf("serve: %w", errClosed)
	}))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = n.RoundTrip(Request{Host: "gw", Path: "/queued"})
		}(i)
	}
	waiting.Wait()
	close(closing)
	wg.Wait()
	unbind()
	for i, err := range errs {
		if !errors.Is(err, errClosed) {
			t.Fatalf("client %d: got %v, want the handler's error", i, err)
		}
	}
	if got := n.Requests(); got != 0 {
		t.Fatalf("Requests = %d, want 0", got)
	}
	if _, err := n.RoundTrip(Request{Host: "gw"}); !errors.Is(err, ErrNoHost) {
		t.Fatalf("roundtrip after shutdown: got %v, want ErrNoHost", err)
	}
}

// TestListenerDoubleBind: a second Bind on a taken host fails, whether
// the host was bound or registered, and leaves the first server with
// the traffic; re-binding after unbind succeeds.
func TestListenerDoubleBind(t *testing.T) {
	n := New(0, 0)
	unbind, err := n.Bind("gw", statusHandler(200))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if _, err := n.Bind("gw", statusHandler(500)); err == nil {
		t.Fatal("second Bind on a bound host succeeded")
	}
	if resp, err := n.RoundTrip(Request{Host: "gw"}); err != nil || resp.Status != 200 {
		t.Fatalf("after a failed Bind: %+v, %v; want the first server's 200", resp, err)
	}
	n.Register("static", statusHandler(200))
	if _, err := n.Bind("static", statusHandler(500)); err == nil {
		t.Fatal("Bind on a registered host succeeded")
	}
	unbind()
	unbind, err = n.Bind("gw", statusHandler(201))
	if err != nil {
		t.Fatalf("re-bind after unbind: %v", err)
	}
	defer unbind()
	if resp, err := n.RoundTrip(Request{Host: "gw"}); err != nil || resp.Status != 201 {
		t.Fatalf("after re-bind: %+v, %v; want 201", resp, err)
	}
}

func TestConcurrentRoundTrips(t *testing.T) {
	// RoundTrip is synchronous by contract: the hammering below must
	// leave no goroutines behind.
	defer testutil.LeakCheck(t)()
	net := New(0, 0)
	srv := NewStaticFileServer()
	srv.Put("/f", []byte("x"))
	net.Register("h", srv)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if _, err := net.RoundTrip(Request{Host: "h", Path: "/f"}); err != nil {
						errs <- err
						return
					}
				} else {
					srv.Put("/f2", []byte{byte(j)})
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
