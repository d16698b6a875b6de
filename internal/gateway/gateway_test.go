// Identity and authorization edge cases at the remote boundary,
// exercised against a fully booted system (external test package:
// core wires the gateway, so these are true end-to-end requests).
package gateway_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/gateway"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/metrics"
	"maxoid/internal/netstack"
	"maxoid/internal/testutil"
	"maxoid/internal/vfs"
)

// nullApp is the minimal installable app.
type nullApp struct{ pkg string }

func (a nullApp) Package() string                                  { return a.pkg }
func (a nullApp) OnStart(ctx *ams.Context, in intent.Intent) error { return nil }
func (a nullApp) OnBroadcast(ctx *ams.Context, in intent.Intent)   {}

func bootGateway(t *testing.T) *core.System {
	t.Helper()
	s, _ := startGateway(t, core.GatewayOptions{})
	return s
}

// startGateway boots a system with three apps installed and starts its
// gateway with opts.
func startGateway(t *testing.T, opts core.GatewayOptions) (*core.System, *gateway.Gateway) {
	t.Helper()
	s, err := core.Boot(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"appA", "appX", "viewer"} {
		if err := s.Install(nullApp{pkg: pkg}, ams.Manifest{
			Package: pkg,
			Filters: []intent.Filter{{Actions: []string{intent.ActionView}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	gw, err := s.StartGateway(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, gw
}

// get decodes the error code out of a JSON error body ("" for 2xx).
func codeOf(t *testing.T, resp netstack.Response) string {
	t.Helper()
	if resp.Status < 400 {
		return ""
	}
	var body struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(resp.Body, &body); err != nil {
		t.Fatalf("status %d with non-JSON error body %q", resp.Status, resp.Body)
	}
	return body.Code
}

// TestIdentityAuthorizationEdgeCases runs one table of tokens against
// a strict gateway and, under "detached", against one started with
// AllowDetached.
func TestIdentityAuthorizationEdgeCases(t *testing.T) {
	defer testutil.LeakCheck(t)()
	checkIdentities(t, core.GatewayOptions{})
	t.Run("detached", func(t *testing.T) {
		checkIdentities(t, core.GatewayOptions{AllowDetached: true})
	})
}

// checkIdentities boots a gateway with opts and requests a table of
// tokens, one subtest each. Rows marked detached are 401 only because
// no live instance exists, so an AllowDetached gateway serves them;
// malformed tokens stay 401, and foreign or unknown principals stay
// 403, in both modes.
func checkIdentities(t *testing.T, opts core.GatewayOptions) {
	s, _ := startGateway(t, opts)
	defer s.Shutdown()

	// Live identities for the positive baseline and the probes.
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LaunchAsDelegate("viewer", "appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	// appX ran once and died: its token names a dead process.
	if _, err := s.Launch("appX", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	s.AM.StopInstance("appX", "")

	cases := []struct {
		name     string
		token    string
		status   int
		code     string
		detached bool
	}{
		{"live initiator", "u0:appA", 200, "", false},
		{"live delegate", "u0:viewer^appA", 200, "", false},
		{"absent token", "", 401, "unauthorized", false},
		{"malformed: no scheme", "appA", 401, "unauthorized", false},
		{"malformed: no app", "u0:", 401, "unauthorized", false},
		{"malformed: bad user", "ux:appA", 401, "unauthorized", false},
		{"malformed: double initiator", "u0:a^b^c", 401, "unauthorized", false},
		{"malformed: whitespace", "u0:app A", 401, "unauthorized", false},
		{"foreign user", "u1:appA", 403, "forbidden", false},
		{"unknown principal", "u0:ghost", 403, "forbidden", false},
		{"unknown initiator", "u0:viewer^ghost", 403, "forbidden", false},
		{"dead process", "u0:appX", 401, "unauthorized", true},
		{"never started", "u0:viewer", 401, "unauthorized", true},
		{"cross-initiator probe", "u0:viewer^appX", 401, "unauthorized", true},
	}
	for _, tc := range cases {
		status, code := tc.status, tc.code
		if opts.AllowDetached && tc.detached {
			status, code = 200, ""
		}
		t.Run(tc.name, func(t *testing.T) {
			resp, err := s.GatewayRequest(tc.token, "GET", "/v1/user_dictionary/words", nil)
			if err != nil {
				t.Fatalf("transport error: %v", err)
			}
			if resp.Status != status {
				t.Fatalf("status %d (%s), want %d", resp.Status, resp.Body, status)
			}
			if got := codeOf(t, resp); got != code {
				t.Fatalf("code %q, want %q", got, code)
			}
		})
	}
}

func TestRouteAndMethodErrors(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := bootGateway(t)
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	const tok = "u0:appA"

	cases := []struct {
		name         string
		method, path string
		body         []byte
		status       int
		code         string
	}{
		{"unknown version", "GET", "/v2/media/files", nil, 400, "bad_request"},
		{"bare path", "GET", "/", nil, 400, "bad_request"},
		{"non-numeric id", "GET", "/v1/media/files/abc", nil, 400, "bad_request"},
		{"unknown provider", "GET", "/v1/nosuch/files", nil, 404, "not_found"},
		{"unknown table", "GET", "/v1/media/nope", nil, 404, "not_found"},
		{"missing row", "GET", "/v1/user_dictionary/words/9999", nil, 404, "not_found"},
		{"PUT without id", "PUT", "/v1/user_dictionary/words", []byte(`{"word":"x"}`), 405, "method_not_allowed"},
		{"DELETE without id", "DELETE", "/v1/user_dictionary/words", nil, 405, "method_not_allowed"},
		{"POST with id", "POST", "/v1/user_dictionary/words/3", []byte(`{"word":"x"}`), 405, "method_not_allowed"},
		{"bad method", "PATCH", "/v1/user_dictionary/words", nil, 405, "method_not_allowed"},
		{"POST bad json", "POST", "/v1/user_dictionary/words", []byte(`{`), 400, "bad_request"},
		{"POST empty body", "POST", "/v1/user_dictionary/words", nil, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := s.GatewayRequest(tok, tc.method, tc.path, tc.body)
			if err != nil {
				t.Fatalf("transport error: %v", err)
			}
			if resp.Status != tc.status || codeOf(t, resp) != tc.code {
				t.Fatalf("got %d %q (%s), want %d %q",
					resp.Status, codeOf(t, resp), resp.Body, tc.status, tc.code)
			}
		})
	}
}

func TestCRUDAndViewConfinement(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := bootGateway(t)
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LaunchAsDelegate("viewer", "appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	tokA, tokD := "u0:appA", "u0:viewer^appA"

	// Public insert by the initiator.
	resp, err := s.GatewayRequest(tokA, "POST", "/v1/user_dictionary/words",
		[]byte(`{"word":"hello","frequency":3,"locale":"en"}`))
	if err != nil || resp.Status != 201 {
		t.Fatalf("insert: %v %d %s", err, resp.Status, resp.Body)
	}
	var ins struct {
		ID  int64  `json:"id"`
		URI string `json:"uri"`
	}
	if err := json.Unmarshal(resp.Body, &ins); err != nil || ins.ID == 0 {
		t.Fatalf("insert body %s: %v", resp.Body, err)
	}

	// The delegate sees the public row through its COW view.
	path := fmt.Sprintf("/v1/user_dictionary/words/%d", ins.ID)
	resp, _ = s.GatewayRequest(tokD, "GET", path, nil)
	if resp.Status != 200 {
		t.Fatalf("delegate point query: %d %s", resp.Status, resp.Body)
	}

	// Delegate writes land in its delta, invisible to the initiator.
	resp, _ = s.GatewayRequest(tokD, "POST", "/v1/user_dictionary/words",
		[]byte(`{"word":"delegate-only"}`))
	if resp.Status != 201 {
		t.Fatalf("delegate insert: %d %s", resp.Status, resp.Body)
	}
	q := "/v1/user_dictionary/words?" + url.Values{
		"where": {"word = ?"}, "arg": {"delegate-only"},
	}.Encode()
	for _, tc := range []struct {
		tok  string
		want int
	}{{tokD, 1}, {tokA, 0}} {
		resp, _ = s.GatewayRequest(tc.tok, "GET", q, nil)
		if resp.Status != 200 {
			t.Fatalf("query as %s: %d %s", tc.tok, resp.Status, resp.Body)
		}
		var out struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(resp.Body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != tc.want {
			t.Fatalf("as %s: %d rows, want %d (confinement breach)", tc.tok, len(out.Rows), tc.want)
		}
	}

	// Update + delete round out the reflected CRUD surface.
	resp, _ = s.GatewayRequest(tokA, "PUT", path, []byte(`{"frequency":9}`))
	if resp.Status != 200 {
		t.Fatalf("update: %d %s", resp.Status, resp.Body)
	}
	resp, _ = s.GatewayRequest(tokA, "DELETE", path, nil)
	if resp.Status != 200 {
		t.Fatalf("delete: %d %s", resp.Status, resp.Body)
	}
	resp, _ = s.GatewayRequest(tokA, "GET", path, nil)
	if resp.Status != 404 {
		t.Fatalf("after delete: %d, want 404", resp.Status)
	}
}

func TestSchemaAndExplain(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := bootGateway(t)
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}

	resp, err := s.GatewayRequest("u0:appA", "GET", "/v1/media/_schema", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("schema: %v %d %s", err, resp.Status, resp.Body)
	}
	var schema struct {
		Provider string `json:"provider"`
		Tables   []struct {
			Path    string `json:"path"`
			Table   string `json:"table"`
			View    bool   `json:"view"`
			Columns []struct {
				Name       string `json:"name"`
				PrimaryKey bool   `json:"primary_key"`
			} `json:"columns"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(resp.Body, &schema); err != nil {
		t.Fatal(err)
	}
	if schema.Provider != "media" || len(schema.Tables) != 7 {
		t.Fatalf("schema %s: %d tables", schema.Provider, len(schema.Tables))
	}
	byPath := map[string]bool{}
	for _, tb := range schema.Tables {
		byPath[tb.Path] = true
		if tb.Path == "files" {
			if tb.View || len(tb.Columns) == 0 {
				t.Fatalf("files should be a base table with columns: %+v", tb)
			}
			if tb.Columns[0].Name != "_id" || !tb.Columns[0].PrimaryKey {
				t.Fatalf("files first column: %+v", tb.Columns[0])
			}
		}
		if tb.Path == "images" && !tb.View {
			t.Fatalf("images should be reported as a view")
		}
	}
	if !byPath["audio"] || !byPath["artists"] {
		t.Fatalf("schema missing routes: %v", byPath)
	}

	// _explain reports the planner's access path for the caller's view.
	q := "/v1/media/files/_explain?" + url.Values{
		"where": {"_id = ?"}, "arg": {"1"},
	}.Encode()
	resp, _ = s.GatewayRequest("u0:appA", "GET", q, nil)
	if resp.Status != 200 {
		t.Fatalf("explain: %d %s", resp.Status, resp.Body)
	}
	if len(resp.Body) == 0 {
		t.Fatal("empty explain body")
	}
}

func TestGrantRevokedMidRequest(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := bootGateway(t)
	defer s.Shutdown()
	ctxA, err := s.Launch("appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	// appA writes a private file and grants viewer one-time access.
	path := ctxA.DataDir() + "/secret.txt"
	if err := vfs.WriteFile(ctxA.FS(), ctxA.Cred(), path, []byte("s3cret"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AM.StartActivity(ctxA, intent.Intent{
		Action: intent.ActionView, Component: "viewer",
		Data: path, Flags: intent.FlagGrantReadURIPermission,
	}); err != nil {
		t.Fatal(err)
	}

	// The grantor dies before the remote client redeems the grant: the
	// reaper revokes it, and the in-flight redemption gets a typed 403.
	s.AM.StopInstance("appA", "")
	resp, err := s.GatewayRequest("u0:viewer", "GET",
		"/v1/_grant?uri="+url.QueryEscape(path), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 403 || codeOf(t, resp) != "forbidden" {
		t.Fatalf("revoked grant: %d %s, want 403 forbidden", resp.Status, resp.Body)
	}
}

func TestGrantServedThroughGateway(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := bootGateway(t)
	defer s.Shutdown()
	ctxA, err := s.Launch("appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	path := ctxA.DataDir() + "/shared.txt"
	if err := vfs.WriteFile(ctxA.FS(), ctxA.Cred(), path, []byte("payload"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AM.StartActivity(ctxA, intent.Intent{
		Action: intent.ActionView, Component: "viewer",
		Data: path, Flags: intent.FlagGrantReadURIPermission,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.GatewayRequest("u0:viewer", "GET",
		"/v1/_grant?uri="+url.QueryEscape(path), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "payload" {
		t.Fatalf("grant read: %d %q", resp.Status, resp.Body)
	}
	// One-time: a second redemption is refused.
	resp, _ = s.GatewayRequest("u0:viewer", "GET",
		"/v1/_grant?uri="+url.QueryEscape(path), nil)
	if resp.Status != 403 {
		t.Fatalf("second redemption: %d, want 403", resp.Status)
	}
}

func TestHooks(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s, gw := startGateway(t, core.GatewayOptions{})
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	// A pre-hook vetoing one identity: its error maps through statusFor.
	gw.Pre(func(info *gateway.RequestInfo) error {
		if info.Identity == "banned" {
			return fmt.Errorf("%w: banned", kernel.ErrPermissionDenied)
		}
		return nil
	})
	type record struct {
		info   gateway.RequestInfo
		status int
	}
	var seen []record
	gw.Post(func(info *gateway.RequestInfo, status int) {
		seen = append(seen, record{*info, status})
	})

	resp, err := s.GatewayRequest("u0:appA", "GET", "/v1/user_dictionary/words", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("request: %v %d", err, resp.Status)
	}
	if len(seen) != 1 {
		t.Fatalf("post-hook saw %d requests", len(seen))
	}
	if r := seen[0]; r.info.Identity != "appA" || r.status != 200 || r.info.Method != "GET" {
		t.Fatalf("post-hook record: %+v", r)
	}

	// The post-hook also sees rejected requests with their status.
	if _, err := s.GatewayRequest("", "GET", "/v1/user_dictionary/words", nil); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[1].status != 401 {
		t.Fatalf("post-hook after reject: %+v", seen)
	}
}

// TestCloseDrainsAndReleases: with the only slot taken, Close fails
// the client waiting for it with ErrClosed, returns only after the
// admitted request has finished, and leaves the host unbound.
func TestCloseDrainsAndReleases(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s, gw := startGateway(t, core.GatewayOptions{Workers: 1})
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll() // a failing test must not wedge Shutdown
	gw.Pre(func(*gateway.RequestInfo) error {
		close(entered) // only the admitted request gets this far
		<-release
		return nil
	})
	type result struct {
		resp netstack.Response
		err  error
	}
	get := func(out chan<- result) {
		resp, err := s.GatewayRequest("u0:appA", "GET", "/v1/user_dictionary/words", nil)
		out <- result{resp, err}
	}
	inflight, waiting := make(chan result, 1), make(chan result, 1)
	go get(inflight)
	<-entered
	go get(waiting)
	waitFor(t, "the second client waits for the slot", func() bool { return serving() == 2 })

	closed := make(chan struct{})
	go func() {
		gw.Close()
		close(closed)
	}()
	select {
	case r := <-waiting:
		if !errors.Is(r.err, gateway.ErrClosed) {
			t.Fatalf("waiting client: %+v, want ErrClosed", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the client waiting for a slot")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	releaseAll()
	<-closed
	if r := <-inflight; r.err != nil || r.resp.Status != 200 {
		t.Fatalf("in-flight request: %d %v, want 200", r.resp.Status, r.err)
	}
	if _, err := s.GatewayRequest("u0:appA", "GET", "/v1/user_dictionary/words", nil); !errors.Is(err, netstack.ErrNoHost) {
		t.Fatalf("request after Close: %v, want ErrNoHost", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// serving counts the requests inside the gateway, admitted or waiting
// for a slot.
func serving() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "gateway.(*Gateway).serve(")
}

// TestWorkersBoundsConcurrency: with Workers 2 and eight concurrent
// clients, no more than two requests are ever served at once.
func TestWorkersBoundsConcurrency(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s, gw := startGateway(t, core.GatewayOptions{Workers: 2})
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		cur, peak int
		release   = make(chan struct{})
	)
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll() // a failing test must not wedge Shutdown
	inHook := func() int {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	gw.Pre(func(*gateway.RequestInfo) error {
		mu.Lock()
		cur++
		peak = max(peak, cur)
		mu.Unlock()
		<-release
		mu.Lock()
		cur--
		mu.Unlock()
		return nil
	})
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := s.GatewayRequest("u0:appA", "GET", "/v1/user_dictionary/words", nil)
			if err == nil && resp.Status != 200 {
				err = fmt.Errorf("status %d %s", resp.Status, resp.Body)
			}
			errs <- err
		}()
	}
	// Hold the admitted requests in the hook until every client is
	// inside the gateway, then give a broken bound time to show.
	waitFor(t, "eight requests are inside", func() bool { return serving() == 8 })
	waitFor(t, "two requests are admitted", func() bool { return inHook() >= 2 })
	time.Sleep(10 * time.Millisecond)
	releaseAll()
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if peak != 2 {
		t.Fatalf("peak concurrent requests %d, want 2", peak)
	}
}

// TestGatewayMetricNamesBounded: no request can add a metric name.
// 20,000 junk requests from 4 goroutines, with random methods and
// random authorities, from an authorised identity and from rejected
// ones, leave the registry with the histograms and counters the gateway
// created when it started, and every request is counted.
func TestGatewayMetricNamesBounded(t *testing.T) {
	defer testutil.LeakCheck(t)()
	reg := metrics.NewRegistry()
	s, err := core.Boot(core.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	for _, pkg := range []string{"appA", "viewer"} {
		if err := s.Install(nullApp{pkg: pkg}, ams.Manifest{Package: pkg}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartGateway(core.GatewayOptions{}); err != nil {
		t.Fatal(err)
	}
	hists, counters := len(reg.Snapshots()), len(reg.Totals())

	const clients, perClient = 4, 5000
	tokens := []string{"u0:appA", "u0:viewer", "u0:nosuch", "u1:appA", ""}
	methods := []string{"GET", "POST", "PUT", "DELETE", "PATCH", ""}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				method := methods[r.Intn(len(methods))]
				if r.Intn(2) == 0 {
					method = fmt.Sprintf("M%d", r.Int63())
				}
				path := fmt.Sprintf("/v1/p%d/files", r.Int63())
				switch r.Intn(4) {
				case 0:
					path = "/v1/user_dictionary/words"
				case 1:
					path = fmt.Sprintf("/v1/_fs/f%d", r.Int63())
				}
				if _, err := s.GatewayRequest(tokens[r.Intn(len(tokens))], method, path, nil); err != nil {
					errs <- err
					return
				}
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(reg.Snapshots()); got != hists {
		t.Errorf("%d latency histograms after junk requests, %d at start", got, hists)
	}
	if got := len(reg.Totals()); got != counters {
		t.Errorf("%d counters after junk requests, %d at start", got, counters)
	}
	var observed int64
	for _, snap := range reg.Snapshots() {
		if strings.HasPrefix(snap.Name, "gw.latency.") {
			observed += snap.Count
		}
	}
	if observed != clients*perClient {
		t.Errorf("latency histograms observed %d requests, want %d", observed, clients*perClient)
	}
}
