package downloads

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxoid/internal/cowproxy"
	"maxoid/internal/kernel"
	"maxoid/internal/layout"
	"maxoid/internal/netstack"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
	"maxoid/internal/vfs"
)

var (
	browser    = provider.Caller{Task: kernel.Task{App: "browser"}}
	delegateXB = provider.Caller{Task: kernel.Task{App: "appX", Initiator: "browser"}}
	otherApp   = provider.Caller{Task: kernel.Task{App: "other"}}
)

func newTestProvider(t *testing.T) (*Provider, *vfs.FS, *netstack.Network) {
	t.Helper()
	disk := vfs.New()
	if err := disk.MkdirAll(vfs.Root, layout.ExtPubBranch(), 0o777); err != nil {
		t.Fatal(err)
	}
	net := netstack.New(0, 0)
	srv := netstack.NewStaticFileServer()
	srv.Put("/files/doc.pdf", []byte("pdf-bytes"))
	net.Register("web.example", srv)
	p, err := New(disk, net)
	if err != nil {
		t.Fatal(err)
	}
	return p, disk, net
}

func mustURI(t *testing.T, s string) provider.URI {
	t.Helper()
	u, err := provider.ParseURI(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestPublicDownload(t *testing.T) {
	p, disk, _ := newTestProvider(t)
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/files/doc.pdf", "title": "doc",
	})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := provider.ParseURI(uri.String())
	id, _ := u.ID()
	ev := p.WaitFor(id)
	if ev.Status != StatusSuccess {
		t.Fatalf("download status = %d", ev.Status)
	}
	if ev.ClientPath != DownloadDir+"/doc.pdf" {
		t.Errorf("client path = %s", ev.ClientPath)
	}
	// File is in the public branch.
	data, err := vfs.ReadFile(disk, vfs.Root, layout.PublicBacking(ev.ClientPath))
	if err != nil || !bytes.Equal(data, []byte("pdf-bytes")) {
		t.Errorf("public file = %q, %v", data, err)
	}
	// Record is public: any app sees it.
	rows, err := p.Query(otherApp, mustURI(t, DownloadsURI), []string{"status", "total_bytes"}, "", "")
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("query: %v, %v", rows, err)
	}
	if rows.Data[0][0] != int64(StatusSuccess) || rows.Data[0][1] != int64(9) {
		t.Errorf("record: %v", rows.Data[0])
	}
}

func TestVolatileDownloadIncognito(t *testing.T) {
	p, disk, _ := newTestProvider(t)
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/files/doc.pdf", provider.IsVolatileKey: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	ev := p.WaitFor(id)
	if ev.Status != StatusSuccess {
		t.Fatalf("volatile download status = %d", ev.Status)
	}
	if ev.Initiator != "browser" {
		t.Errorf("initiator = %q", ev.Initiator)
	}
	// File is in the browser's volatile branch, not public.
	vol, err := vfs.ReadFile(disk, vfs.Root, layout.VolatileBacking("browser", ev.ClientPath))
	if err != nil || !bytes.Equal(vol, []byte("pdf-bytes")) {
		t.Errorf("volatile file = %q, %v", vol, err)
	}
	if vfs.Exists(disk, vfs.Root, layout.PublicBacking(ev.ClientPath)) {
		t.Error("volatile download leaked into public branch")
	}
	// Record invisible to other apps, visible to browser's delegates and
	// via the browser's tmp URI.
	rows, _ := p.Query(otherApp, mustURI(t, DownloadsURI), nil, "", "")
	if len(rows.Data) != 0 {
		t.Errorf("volatile record visible publicly: %v", rows.Data)
	}
	rows, _ = p.Query(delegateXB, mustURI(t, DownloadsURI), []string{"status"}, "", "")
	if len(rows.Data) != 1 {
		t.Errorf("delegate cannot see volatile record: %v", rows.Data)
	}
	rows, err = p.Query(browser, mustURI(t, VolatileDownloadsURI), nil, "", "")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("tmp URI: %v, %v", rows, err)
	}
}

func TestDelegateDownloadGetsNetworkError(t *testing.T) {
	p, disk, net := newTestProvider(t)
	before := net.Requests()
	uri, err := p.Insert(delegateXB, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/files/doc.pdf?leak=SECRET",
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	// The record exists in the delegate's view, already failed.
	rows, err := p.Query(delegateXB, mustURI(t, DownloadsURI), []string{"status"}, "_id = ?", "", id)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != int64(StatusErrorNetwork) {
		t.Fatalf("delegate record: %v, %v", rows, err)
	}
	// Crucially, no network request was made (no URL exfiltration).
	p.Drain()
	if net.Requests() != before {
		t.Error("delegate download touched the network")
	}
	// Nothing public.
	rows, _ = p.Query(otherApp, mustURI(t, DownloadsURI), nil, "", "")
	if len(rows.Data) != 0 {
		t.Errorf("delegate record leaked: %v", rows.Data)
	}
	if vfs.Exists(disk, vfs.Root, layout.PublicBacking(DownloadDir+"/doc.pdf?leak=SECRET")) {
		t.Error("file appeared in public branch")
	}
}

func TestDelegateMayUpdateExistingEntries(t *testing.T) {
	p, _, _ := newTestProvider(t)
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/files/doc.pdf",
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	p.WaitFor(id)
	// A delegate retitles the entry: allowed (no network), copy-on-write.
	n, err := p.Update(delegateXB, mustURI(t, DownloadsURI), provider.Values{"title": "renamed"}, "_id = ?", id)
	if err != nil || n != 1 {
		t.Fatalf("delegate update: %d, %v", n, err)
	}
	rows, _ := p.Query(otherApp, mustURI(t, DownloadsURI), []string{"title"}, "", "")
	if sqldb.AsString(rows.Data[0][0]) == "renamed" {
		t.Error("delegate update mutated public record")
	}
	rows, _ = p.Query(delegateXB, mustURI(t, DownloadsURI), []string{"title"}, "", "")
	if sqldb.AsString(rows.Data[0][0]) != "renamed" {
		t.Error("delegate does not read its own update")
	}
}

func TestDownloadFromUnknownHostFails(t *testing.T) {
	p, _, _ := newTestProvider(t)
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "nohost.example/f",
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	ev := p.WaitFor(id)
	if ev.Status != StatusErrorNetwork {
		t.Errorf("status = %d, want network error", ev.Status)
	}
}

func TestRequestHeaders(t *testing.T) {
	p, _, _ := newTestProvider(t)
	headers := mustURI(t, "content://downloads/headers")
	if _, err := p.Insert(browser, headers, provider.Values{
		"download_id": int64(1), "header": "User-Agent", "value": "maxoid",
	}); err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query(browser, headers, []string{"header", "value"}, "download_id = ?", "", 1)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][1] != "maxoid" {
		t.Errorf("headers: %v, %v", rows, err)
	}
}

func TestCompletionNotificationListener(t *testing.T) {
	p, _, _ := newTestProvider(t)
	got := make(chan Event, 1)
	p.Subscribe(func(ev Event) { got <- ev })
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/files/doc.pdf",
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = uri
	ev := <-got
	if ev.Status != StatusSuccess {
		t.Errorf("listener event: %+v", ev)
	}
}

func TestLocateFile(t *testing.T) {
	pub := LocateFile("", DownloadDir+"/f.pdf")
	if pub != layout.ExtPubBranch()+"/Download/f.pdf" {
		t.Errorf("public locate = %s", pub)
	}
	vol := LocateFile("browser", DownloadDir+"/f.pdf")
	if vol != layout.ExtTmpBranch("browser")+"/Download/f.pdf" {
		t.Errorf("volatile locate = %s", vol)
	}
}

func TestSplitURL(t *testing.T) {
	for _, tc := range []struct{ in, host, path string }{
		{"web.example/a/b", "web.example", "/a/b"},
		{"http://web.example/a", "web.example", "/a"},
	} {
		h, p, err := splitURL(tc.in)
		if err != nil || h != tc.host || p != tc.path {
			t.Errorf("splitURL(%s) = %s %s %v", tc.in, h, p, err)
		}
	}
	if _, _, err := splitURL("nopath"); err == nil {
		t.Error("splitURL without path should fail")
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	disk := vfs.New()
	if err := disk.MkdirAll(vfs.Root, layout.ExtPubBranch(), 0o777); err != nil {
		t.Fatal(err)
	}
	net := netstack.New(0, 0)
	var mu sync.Mutex
	inFlight, peak := 0, 0
	net.Register("slow.example", netstack.HandlerFunc(func(req netstack.Request) (netstack.Response, error) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return netstack.Response{Status: 200, Body: []byte("x")}, nil
	}))
	p, err := New(disk, net)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 20; i++ {
		uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
			"uri": "slow.example/f", "hint": fmt.Sprintf("f%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		id, _ := uri.ID()
		ids = append(ids, id)
	}
	for _, id := range ids {
		if ev := p.WaitFor(id); ev.Status != StatusSuccess {
			t.Fatalf("download %d: status %d", id, ev.Status)
		}
	}
	if peak > maxConcurrentDownloads {
		t.Errorf("peak concurrency %d exceeds pool size %d", peak, maxConcurrentDownloads)
	}
	if peak == 0 {
		t.Error("no downloads observed")
	}
}

// TestQueuedFetchesKeepNoGoroutines: downloads waiting for a worker
// wait in the provider's queue, not in parked goroutines of their own.
// 200 inserts against a host that holds every request until released
// may add only the worker pool's goroutines, and every queued download
// still succeeds once the host answers.
func TestQueuedFetchesKeepNoGoroutines(t *testing.T) {
	disk := vfs.New()
	if err := disk.MkdirAll(vfs.Root, layout.ExtPubBranch(), 0o777); err != nil {
		t.Fatal(err)
	}
	net := netstack.New(0, 0)
	release := make(chan struct{})
	var inHandler atomic.Int32
	net.Register("held.example", netstack.HandlerFunc(func(req netstack.Request) (netstack.Response, error) {
		inHandler.Add(1)
		<-release
		return netstack.Response{Status: 200, Body: []byte("x")}, nil
	}))
	p, err := New(disk, net)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const inserts = 200
	ids := make([]int64, 0, inserts)
	for i := 0; i < inserts; i++ {
		uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
			"uri": "held.example/f", "hint": fmt.Sprintf("held-%03d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		id, _ := uri.ID()
		ids = append(ids, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inHandler.Load() < maxConcurrentDownloads && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := inHandler.Load(); n != maxConcurrentDownloads {
		t.Errorf("%d fetches reached the host, want %d", n, maxConcurrentDownloads)
	}
	if n, limit := runtime.NumGoroutine(), baseline+maxConcurrentDownloads+2; n > limit {
		t.Errorf("%d goroutines with %d downloads queued, want <= %d", n, inserts, limit)
	}
	close(release)
	for _, id := range ids {
		if ev := p.WaitFor(id); ev.Status != StatusSuccess {
			t.Fatalf("download %d: status %d", id, ev.Status)
		}
	}
	p.Close()
}

func TestWaitForAlreadyCompleted(t *testing.T) {
	p, _, _ := newTestProvider(t)
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/files/doc.pdf",
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	p.Drain() // download certainly finished
	ev := p.WaitFor(id)
	if ev.Status != StatusSuccess {
		t.Errorf("late WaitFor: %+v", ev)
	}
	// A second wait also returns immediately.
	if ev2 := p.WaitFor(id); ev2.Status != StatusSuccess {
		t.Errorf("repeat WaitFor: %+v", ev2)
	}
}

func TestMetadataOnlyInsert(t *testing.T) {
	p, _, net := newTestProvider(t)
	before := net.Requests()
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "local/x", "_data": DownloadDir + "/existing.pdf", "title": "existing",
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	rows, err := p.Query(browser, mustURI(t, DownloadsURI), []string{"status"}, "_id = ?", "", id)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != int64(StatusSuccess) {
		t.Fatalf("metadata record: %v, %v", rows, err)
	}
	p.Drain()
	if net.Requests() != before {
		t.Error("metadata-only insert touched the network")
	}
}

// TestCloseRacesInFlightFetches hammers Close against a storm of
// concurrent Inserts: some fetch workers are already running when
// Close lands, others race the closed flag. Invariants: Close returns
// only after every started worker has been joined (no goroutine
// outlives it), every record reaches a terminal status, and WaitFor
// never hangs regardless of which side of Close an insert landed on.
func TestCloseRacesInFlightFetches(t *testing.T) {
	leak := testutil.LeakCheck(t)
	disk := vfs.New()
	if err := disk.MkdirAll(vfs.Root, layout.ExtPubBranch(), 0o777); err != nil {
		t.Fatal(err)
	}
	// A little simulated latency keeps workers in flight while Close runs.
	net := netstack.New(time.Millisecond, 0)
	srv := netstack.NewStaticFileServer()
	srv.Put("/blob", []byte("race-payload"))
	net.Register("web.example", srv)
	p, err := New(disk, net)
	if err != nil {
		t.Fatal(err)
	}

	const inserts = 24
	ids := make(chan int64, inserts)
	var wg sync.WaitGroup
	for i := 0; i < inserts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
				"uri": "web.example/blob", "hint": fmt.Sprintf("race-%02d.bin", i),
			})
			if err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			id, _ := uri.ID()
			ids <- id
		}(i)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	wg.Wait()
	<-closed
	close(ids)

	for id := range ids {
		ev := p.WaitFor(id)
		if ev.Status != StatusSuccess && ev.Status != StatusErrorNetwork {
			t.Errorf("download %d: non-terminal status %d after Close", id, ev.Status)
		}
	}

	// After Close, a new insert fails its record synchronously — as if
	// the network had gone away — rather than starting a worker.
	uri, err := p.Insert(browser, mustURI(t, DownloadsURI), provider.Values{
		"uri": "web.example/blob", "hint": "too-late.bin",
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := uri.ID()
	if ev := p.WaitFor(id); ev.Status != StatusErrorNetwork {
		t.Errorf("post-Close insert: status %d, want network error", ev.Status)
	}
	leak()
}

// TestVolatileHeadersStayVolatile: request headers an initiator inserts
// with isVolatile land in its volatile state, as its volatile download
// records do. Other apps and its own public view do not read them; its
// delegates and its tmp URI do.
func TestVolatileHeadersStayVolatile(t *testing.T) {
	p, _, _ := newTestProvider(t)
	headers := mustURI(t, "content://downloads/headers")
	uri, err := p.Insert(browser, headers, provider.Values{
		"download_id": int64(1), "header": "Cookie", "value": "secret", provider.IsVolatileKey: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := uri.ID(); id < cowproxy.DeltaKeyBase {
		t.Errorf("volatile header id = %v", uri)
	}
	for _, c := range []provider.Caller{otherApp, browser} {
		rows, err := p.Query(c, headers, []string{"value"}, "", "")
		if err != nil || len(rows.Data) != 0 {
			t.Errorf("%v reads a volatile header as public: %v, %v", c.Task, rows, err)
		}
	}
	rows, err := p.Query(delegateXB, headers, []string{"value"}, "", "")
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != "secret" {
		t.Errorf("delegate's view of the header: %v, %v", rows, err)
	}
	rows, err = p.Query(browser, mustURI(t, "content://downloads/tmp/headers"), nil, "", "")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("initiator's tmp URI: %v, %v", rows, err)
	}
}
