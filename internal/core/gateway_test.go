package core

// Gateway acceptance tests at the system level: the differential
// confinement check (a remote client with delegate identity D observes
// byte-for-byte what a local delegate D observes — rows and files),
// plus the production gates at the remote boundary (admission overload
// → typed 429, degraded store → typed 503 for writes while reads keep
// serving).

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/fault"
	"maxoid/internal/gateway"
	"maxoid/internal/health"
	"maxoid/internal/intent"
	"maxoid/internal/layout"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
	"maxoid/internal/wal"
)

// remoteRows renders a local query result exactly as the gateway's
// rowsResponse does, so local and remote observations can be compared
// byte-for-byte.
func remoteRows(t *testing.T, rows *sqldb.Rows) []byte {
	t.Helper()
	out := struct {
		Columns []string        `json:"columns"`
		Rows    [][]sqldb.Value `json:"rows"`
	}{Columns: rows.Columns, Rows: rows.Data}
	if out.Columns == nil {
		out.Columns = []string{}
	}
	if out.Rows == nil {
		out.Rows = [][]sqldb.Value{}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGatewayDifferentialRemoteVsLocal is the PR's acceptance
// differential: for both Downloads and Media, and for files on
// external storage, the remote observation with identity D must be
// byte-identical to the local delegate D's observation — including
// volatile state only D can see.
func TestGatewayDifferentialRemoteVsLocal(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := boot(t)
	defer s.Shutdown()
	installScript(t, s, "appA", ams.Manifest{})
	installScript(t, s, "editor", ams.Manifest{Filters: viewFilter()})
	ctxA, err := s.Launch("appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	ctxD, err := s.LaunchAsDelegate("editor", "appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartGateway(GatewayOptions{}); err != nil {
		t.Fatal(err)
	}
	tokD := gateway.Token(ctxD.Task())

	// Public state written by the initiator: provider rows + a file.
	for i := 0; i < 3; i++ {
		if _, err := ctxA.Resolver().Insert("content://media/files", provider.Values{
			"_data": fmt.Sprintf("/storage/sdcard/DCIM/img%d.jpg", i), "media_type": int64(1),
			"title": fmt.Sprintf("img%d", i), "size": int64(100 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctxA.Resolver().Insert("content://downloads/my_downloads", provider.Values{
		"uri": "http://files.example.com/pub.bin", "title": "pub", "status": int64(200),
		"_data": layout.ExtDir + "/Download/pub.bin",
	}); err != nil {
		t.Fatal(err)
	}
	if err := ctxA.FS().MkdirAll(ctxA.Cred(), layout.ExtDir+"/Download", 0o755); err != nil {
		t.Fatal(err)
	}
	writeAs(t, ctxA, layout.ExtDir+"/Download/pub.bin", "public-bytes")

	// Volatile state written by the delegate: only D's view holds it.
	if _, err := ctxD.Resolver().Insert("content://media/files", provider.Values{
		"_data": "/storage/sdcard/DCIM/private.jpg", "media_type": int64(1),
		"title": "private", "size": int64(7),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctxD.Resolver().Insert("content://downloads/my_downloads", provider.Values{
		"uri": "http://files.example.com/vol.bin", "title": "vol",
		"_data": layout.ExtDir + "/Download/vol.bin",
	}); err != nil {
		t.Fatal(err)
	}
	writeAs(t, ctxD, layout.ExtDir+"/Download/vol.bin", "delegate-only-bytes")

	// Rows: every (provider, table) surface, ordered deterministically.
	for _, tc := range []struct {
		uri  string
		path string
	}{
		{"content://downloads/my_downloads", "/v1/downloads/my_downloads?order=_id"},
		{"content://media/files", "/v1/media/files?order=_id"},
		{"content://media/images", "/v1/media/images?order=_id"},
		{"content://user_dictionary/words", "/v1/user_dictionary/words?order=_id"},
	} {
		local, err := ctxD.Resolver().Query(tc.uri, nil, "", "_id")
		if err != nil {
			t.Fatalf("local query %s: %v", tc.uri, err)
		}
		resp, err := s.GatewayRequest(tokD, "GET", tc.path, nil)
		if err != nil || resp.Status != 200 {
			t.Fatalf("remote query %s: %v %d %s", tc.path, err, resp.Status, resp.Body)
		}
		if want := remoteRows(t, local); string(resp.Body) != string(want) {
			t.Fatalf("%s: remote view diverges from local delegate view\nremote: %s\nlocal:  %s",
				tc.path, resp.Body, want)
		}
	}

	// Files: the delegate's union view over the gateway, byte-for-byte.
	for _, name := range []string{"/Download/pub.bin", "/Download/vol.bin"} {
		local, err := readAs(ctxD, layout.ExtDir+name)
		if err != nil {
			t.Fatalf("local read %s: %v", name, err)
		}
		resp, err := s.GatewayRequest(tokD, "GET", "/v1/_fs"+layout.ExtDir+name, nil)
		if err != nil || resp.Status != 200 {
			t.Fatalf("remote read %s: %v %d %s", name, err, resp.Status, resp.Body)
		}
		if string(resp.Body) != local {
			t.Fatalf("file %s: remote %q != local %q", name, resp.Body, local)
		}
	}

	// Counter-probe: the initiator's remote view must NOT contain the
	// delegate's volatile file or rows.
	tokA := gateway.Token(ctxA.Task())
	resp, _ := s.GatewayRequest(tokA, "GET", "/v1/_fs"+layout.ExtDir+"/Download/vol.bin", nil)
	if resp.Status != 404 {
		t.Fatalf("initiator sees delegate's volatile file remotely: %d", resp.Status)
	}
	local, err := ctxA.Resolver().Query("content://media/files", nil, "", "_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Data) != 3 {
		t.Fatalf("initiator sees %d media rows locally, want 3", len(local.Data))
	}
	resp, _ = s.GatewayRequest(tokA, "GET", "/v1/media/files?order=_id", nil)
	if want := remoteRows(t, local); string(resp.Body) != string(want) {
		t.Fatalf("initiator remote/local diverge:\nremote: %s\nlocal:  %s", resp.Body, want)
	}
}

// TestGatewayOrderLimitOverflow: a LIMIT near max int64 smuggled in
// through order= must not crash the device. LIMIT
// 9223372036854775807 OFFSET 1 used to overflow offset+limit in sqldb
// and panic on the request goroutine; it is a 200 with rows 2…n, for an
// initiator and for a delegate reading through its COW view.
func TestGatewayOrderLimitOverflow(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := boot(t)
	defer s.Shutdown()
	installScript(t, s, "appA", ams.Manifest{})
	installScript(t, s, "editor", ams.Manifest{Filters: viewFilter()})
	ctxA, err := s.Launch("appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	ctxD, err := s.LaunchAsDelegate("editor", "appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartGateway(GatewayOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
		if _, err := ctxA.Resolver().Insert("content://user_dictionary/words", provider.Values{"word": w}); err != nil {
			t.Fatal(err)
		}
	}
	path := "/v1/user_dictionary/words?order=" + url.QueryEscape("_id LIMIT 9223372036854775807 OFFSET 1")
	for _, ctx := range []*ams.Context{ctxA, ctxD} {
		local, err := ctx.Resolver().Query("content://user_dictionary/words", nil, "", "_id")
		if err != nil {
			t.Fatal(err)
		}
		if len(local.Data) != 4 {
			t.Fatalf("%v sees %d words, want 4", ctx.Task(), len(local.Data))
		}
		resp, err := s.GatewayRequest(gateway.Token(ctx.Task()), "GET", path, nil)
		if err != nil || resp.Status != 200 {
			t.Fatalf("%v: %v %d %s", ctx.Task(), err, resp.Status, resp.Body)
		}
		want := remoteRows(t, &sqldb.Rows{Columns: local.Columns, Data: local.Data[1:]})
		if string(resp.Body) != string(want) {
			t.Fatalf("%v: LIMIT max OFFSET 1\nremote: %s\nwant:   %s", ctx.Task(), resp.Body, want)
		}
	}
}

// TestGatewayOverloadTyped429 floods a rate-limited system through the
// gateway from one client and, under "concurrent", from eight.
func TestGatewayOverloadTyped429(t *testing.T) {
	defer testutil.LeakCheck(t)()
	floodRateLimited(t, 1)
	t.Run("concurrent", func(t *testing.T) { floodRateLimited(t, 8) })
}

// floodRateLimited boots a system admitting 5 requests/s per app and
// sends 200 POSTs through the gateway from the given number of
// clients. Every rejection must be the typed 429 with a Retry-After
// hint — never a 500 — the 201s and 429s must account for every
// request, and in-flight work must drain to 0.
func floodRateLimited(t *testing.T, clients int) {
	s := boot(t)
	defer s.Shutdown()
	installScript(t, s, "appA", ams.Manifest{})
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	adm := s.AM.EnableAdmissionControl(ams.AdmissionConfig{PerAppRate: 5, PerAppBurst: 5})
	if _, err := s.StartGateway(GatewayOptions{}); err != nil {
		t.Fatal(err)
	}

	const requests = 200
	var next, created, rej429 atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				resp, err := s.GatewayRequest("u0:appA", "POST", "/v1/user_dictionary/words",
					[]byte(fmt.Sprintf(`{"word":"w%d"}`, i)))
				switch {
				case err != nil:
					t.Errorf("transport error: %v", err)
				case resp.Status == 201:
					created.Add(1)
				case resp.Status == 429:
					rej429.Add(1)
					if resp.Header("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
				default:
					t.Errorf("untyped overload response: %d %s", resp.Status, resp.Body)
				}
			}
		}()
	}
	wg.Wait()
	if rej429.Load() == 0 {
		t.Fatalf("no 429s across %d requests at rate 5/s (admitted %d)", requests, created.Load())
	}
	if got := created.Load() + rej429.Load(); got != requests {
		t.Fatalf("201s + 429s = %d, want %d", got, requests)
	}
	if got := adm.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d, want 0", got)
	}
}

// TestGatewayDegradedStore503 degrades a durable boot to read-only and
// requires remote writes to fail with the typed 503 while remote reads
// keep serving 200.
func TestGatewayDegradedStore503(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s, err := Boot(Options{
		Storage: wal.NewMemStorage(),
		StoreTuning: func(cfg *wal.Config) {
			cfg.MaxRetries = 2
			cfg.RetryBackoff = time.Nanosecond
			cfg.RetrySleep = func(time.Duration) {}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	installScript(t, s, "appA", ams.Manifest{})
	ctx, err := s.Launch("appA", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartGateway(GatewayOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": "before"}); err != nil {
		t.Fatal(err)
	}

	// Exhaust the store's retry budget: health drops to read-only.
	fault.Enable(1, fault.Spec{Point: "wal.append.transient", Prob: 1, Op: fault.OpTransient})
	_, _ = ctx.Resolver().Insert("content://user_dictionary/words", provider.Values{"word": "x"})
	fault.Disable()
	if s.Health() != health.ReadOnly {
		t.Fatalf("health = %v, want read-only", s.Health())
	}

	resp, err := s.GatewayRequest("u0:appA", "POST", "/v1/user_dictionary/words",
		[]byte(`{"word":"degraded"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("degraded write: %d %s, want 503", resp.Status, resp.Body)
	}
	if resp.Header("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp, err = s.GatewayRequest("u0:appA", "GET", "/v1/user_dictionary/words", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("degraded read: %v %d %s — reads must keep serving", err, resp.Status, resp.Body)
	}
}

// TestGatewayRequestAllocs guards the remote request path's allocation
// count, end to end through System.GatewayRequest: a point GET and a
// 3-row arg= range scan, as a detached initiator and as its delegate
// reading through the COW view. Decoding the target, rendering the
// content URI and the binder round trip together stay within a bound
// that the url.Parse decoder and the re-parsed URI strings exceeded by
// about 20 objects. The provider's endpoint name is built once, at
// registration, and a range read whose probe yields its order sorts
// nothing.
func TestGatewayRequestAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector drops pooled executors")
	}
	s := boot(t)
	defer s.Shutdown()
	installScript(t, s, "appA", ams.Manifest{})
	installScript(t, s, "editor", ams.Manifest{Filters: viewFilter()})
	if _, err := s.StartGateway(GatewayOptions{AllowDetached: true}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		body := fmt.Sprintf(`{"word":"w%d","frequency":%d}`, i, i)
		if resp, err := s.GatewayRequest("u0:appA", "POST", "/v1/user_dictionary/words", []byte(body)); err != nil || resp.Status != 201 {
			t.Fatalf("insert %d: %v %d %s", i, err, resp.Status, resp.Body)
		}
	}
	const cols = "?columns=_id,word,frequency"
	for _, tc := range []struct {
		name, path string
		rows       int
		max        float64
	}{
		{"point GET", "/v1/user_dictionary/words/3" + cols, 1, 21},
		{"3-row arg= scan", "/v1/user_dictionary/words" + cols + "&order=_id&where=" +
			url.QueryEscape("_id >= ? AND _id < ?") + "&arg=3&arg=6", 3, 28},
	} {
		for _, token := range []string{"u0:appA", "u0:editor^appA"} {
			get := func() {
				resp, err := s.GatewayRequest(token, "GET", tc.path, nil)
				if err != nil || resp.Status != 200 {
					t.Fatalf("%s as %s: %v %d %s", tc.name, token, err, resp.Status, resp.Body)
				}
				var body struct{ Rows [][]any }
				if err := json.Unmarshal(resp.Body, &body); err != nil || len(body.Rows) != tc.rows {
					t.Fatalf("%s as %s: %v, %d rows, want %d", tc.name, token, err, len(body.Rows), tc.rows)
				}
			}
			get()
			got := testing.AllocsPerRun(200, func() {
				if resp, err := s.GatewayRequest(token, "GET", tc.path, nil); err != nil || resp.Status != 200 {
					t.Fatalf("%s as %s: %v %d", tc.name, token, err, resp.Status)
				}
			})
			t.Logf("%s as %s: %.0f allocs", tc.name, token, got)
			if got > tc.max {
				t.Errorf("%s as %s: %.0f allocs per request, want <= %.0f", tc.name, token, got, tc.max)
			}
		}
	}
}
