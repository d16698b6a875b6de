// Package downloads implements the Downloads system content provider
// (paper §5.3): storage for download records plus background workers
// that fetch files from the network and write them to external storage.
//
// Maxoid-specific behavior reproduced here:
//
//   - Initiators can request volatile downloads (the isVolatile flag in
//     ContentValues, §6.1 API 4): the record is created in the
//     initiator's volatile state and the file lands in its volatile tmp
//     branch — the basis of incognito download (§7.1).
//   - Download requests from delegates fail with an emulated network
//     error (§6.2): returning ENETUNREACH from connect alone is not
//     enough, because a delegate could otherwise exfiltrate data in the
//     requested URL. Delegates may still add or update entries for
//     existing files, since that does not touch the network.
//   - Each fetch carries the state its record belongs to, which also
//     locates the backing file of a volatile record (the paper's
//     File-class wrapper, LocateFile).
//
// URIs:
//
//	content://downloads/my_downloads[/<id>]      download records
//	content://downloads/tmp/my_downloads[/<id>]  caller's volatile records
//	content://downloads/headers[/<id>]           request headers
package downloads

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"maxoid/internal/binder"
	"maxoid/internal/cowproxy"
	"maxoid/internal/layout"
	"maxoid/internal/netstack"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
)

// Authority is the provider's content authority.
const Authority = "downloads"

// DownloadsURI is the collection URI for download records.
const DownloadsURI = "content://" + Authority + "/my_downloads"

// VolatileDownloadsURI addresses the caller's volatile records.
const VolatileDownloadsURI = "content://" + Authority + "/tmp/my_downloads"

// Download status codes (following Android's DownloadManager values).
const (
	StatusPending      = 190
	StatusRunning      = 192
	StatusSuccess      = 200
	StatusErrorNetwork = 495
)

// DownloadDir is the client-visible directory downloads are saved to.
const DownloadDir = layout.ExtDir + "/Download"

// maxConcurrentDownloads bounds the worker pool, matching Android's
// DownloadManager behavior of a few parallel transfers.
const maxConcurrentDownloads = 3

// Event describes a download reaching a terminal state.
type Event struct {
	ID        int64
	Initiator string // "" for public downloads
	Status    int64
	// ClientPath is the path apps use to open the file. For volatile
	// downloads this resolves through the initiator's view.
	ClientPath string
}

// Provider is the Downloads content provider. It runs as a trusted
// system service: it accesses the global disk directly and has
// unconditional network access.
type Provider struct {
	proxy *cowproxy.Proxy
	disk  *vfs.FS
	net   *netstack.Network

	mu        sync.Mutex
	waiters   map[int64][]chan Event
	done      map[int64]Event
	listeners []func(Event)
	closed    bool           // set by Close; no new worker goroutines may start
	pending   sync.WaitGroup // running workers; a queued fetch always has one
	queue     []fetchJob     // fetches waiting for a worker, oldest first
	workers   int            // running workers, at most maxConcurrentDownloads
}

// fetchJob is one queued download.
type fetchJob struct {
	id                            int64
	initiator, srcURL, clientPath string
}

// New creates the provider over the global disk and network.
func New(disk *vfs.FS, net *netstack.Network) (*Provider, error) {
	return NewWithDB(sqldb.Open(), disk, net)
}

// NewWithDB creates the provider over an existing database — the
// durable-boot path, where core opens the database first so WAL
// recovery can replay into it. The schema DDL is idempotent against a
// recovered schema.
func NewWithDB(db *sqldb.DB, disk *vfs.FS, net *netstack.Network) (*Provider, error) {
	schema := []string{
		`CREATE TABLE IF NOT EXISTS downloads (
			_id INTEGER PRIMARY KEY,
			uri TEXT NOT NULL,
			title TEXT,
			_data TEXT,
			status INTEGER DEFAULT 190,
			total_bytes INTEGER DEFAULT 0
		)`,
		`CREATE TABLE IF NOT EXISTS request_headers (
			_id INTEGER PRIMARY KEY,
			download_id INTEGER NOT NULL,
			header TEXT,
			value TEXT
		)`,
		// Download managers poll by status and fetch headers per
		// download; both shapes come straight out of the workload
		// advisor (cmd/maxoid-advisor) run against this provider.
		`CREATE INDEX IF NOT EXISTS downloads_by_status ON downloads (status) USING HASH`,
		`CREATE INDEX IF NOT EXISTS headers_by_download ON request_headers (download_id) USING HASH`,
	}
	for _, s := range schema {
		if _, err := db.Exec(s); err != nil {
			return nil, err
		}
	}
	proxy := cowproxy.New(db)
	for _, t := range []string{"downloads", "request_headers"} {
		if err := proxy.RegisterTable(t); err != nil {
			return nil, err
		}
	}
	return &Provider{
		proxy:   proxy,
		disk:    disk,
		net:     net,
		waiters: make(map[int64][]chan Event),
		done:    make(map[int64]Event),
	}, nil
}

// Authority implements provider.Provider.
func (p *Provider) Authority() string { return Authority }

// Proxy exposes the COW proxy for Maxoid administrative operations.
func (p *Provider) Proxy() *cowproxy.Proxy { return p.proxy }

// TableRoutes implements provider.Reflector: the URI vocabulary the
// gateway reflects into REST routes, with the catalog tables behind it.
func (p *Provider) TableRoutes() []provider.TableRoute {
	return []provider.TableRoute{
		{Path: "my_downloads", Table: "downloads"},
		{Path: "headers", Table: "request_headers"},
	}
}

// Subscribe registers a listener for completion notifications.
func (p *Provider) Subscribe(fn func(Event)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.listeners = append(p.listeners, fn)
}

// WaitFor blocks until the download reaches a terminal state; if it
// already has, the recorded event is returned immediately.
func (p *Provider) WaitFor(id int64) Event {
	p.mu.Lock()
	if ev, ok := p.done[id]; ok {
		p.mu.Unlock()
		return ev
	}
	ch := make(chan Event, 1)
	p.waiters[id] = append(p.waiters[id], ch)
	p.mu.Unlock()
	return <-ch
}

// Drain waits for all in-flight downloads to finish (tests, shutdown).
func (p *Provider) Drain() { p.pending.Wait() }

// Close shuts the provider down: no new download workers are started
// after Close returns, and every in-flight worker has been joined. A
// fetch requested after Close fails its record with a network error
// synchronously, as if the network had gone away. Close is idempotent.
func (p *Provider) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.pending.Wait()
}

func (p *Provider) complete(ev Event) {
	p.mu.Lock()
	p.done[ev.ID] = ev
	chans := p.waiters[ev.ID]
	delete(p.waiters, ev.ID)
	listeners := append([]func(Event){}, p.listeners...)
	p.mu.Unlock()
	for _, ch := range chans {
		ch <- ev
	}
	for _, fn := range listeners {
		fn(ev)
	}
}

// table maps a URI path to the backing table name.
func table(uri provider.URI) (string, error) {
	pathSegs := uri.Path()
	if len(pathSegs) != 1 {
		return "", fmt.Errorf("%w: %s", provider.ErrBadURI, uri)
	}
	switch pathSegs[0] {
	case "my_downloads", "all_downloads":
		return "downloads", nil
	case "headers":
		return "request_headers", nil
	}
	return "", fmt.Errorf("%w: %s", provider.ErrBadURI, uri)
}

// LocateFile maps a record's client-visible path to the backing path on
// the global disk, given the state the record belongs to ("" public,
// else the initiator owning the volatile copy). This is the paper's
// File wrapper that automates locating files in volatile tmp dirs.
func LocateFile(origin, clientPath string) string {
	if origin == "" {
		return layout.PublicBacking(clientPath)
	}
	return layout.VolatileBacking(origin, clientPath)
}

// splitURL splits "host/path" or "http://host/path" into host and path.
func splitURL(url string) (host, urlPath string, err error) {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	slash := strings.Index(s, "/")
	if slash <= 0 {
		return "", "", fmt.Errorf("downloads: malformed url %q", url)
	}
	return s[:slash], s[slash:], nil
}

// Insert enqueues a download. The values must include "uri" (source
// URL); optional "title" and "hint" (target filename). Initiators may
// assert isVolatile for an incognito download.
func (p *Provider) Insert(c provider.Caller, uri provider.URI, values provider.Values) (provider.URI, error) {
	tbl, err := table(uri)
	if err != nil {
		return provider.URI{}, err
	}
	if tbl == "request_headers" {
		return provider.Insert(p.proxy, c, uri, tbl, values)
	}
	// Metadata-only insert: the caller registers an already-existing
	// file (e.g. Email's SAVE button) — no fetch is performed.
	if sqldb.AsString(values["_data"]) != "" {
		row := values.Clone()
		row["status"] = int64(StatusSuccess)
		return provider.Insert(p.proxy, c, uri, tbl, row)
	}

	srcURL := sqldb.AsString(values["uri"])
	if srcURL == "" {
		return provider.URI{}, fmt.Errorf("downloads: missing source uri")
	}
	hint := sqldb.AsString(values["hint"])
	if hint == "" {
		hint = path.Base(srcURL)
	}
	clientPath := path.Join(DownloadDir, hint)
	volatile, _ := values[provider.IsVolatileKey].(bool)
	origin := provider.ViewOf(c, volatile).Initiator
	row := map[string]sqldb.Value{
		"uri":    srcURL,
		"title":  values["title"],
		"_data":  clientPath,
		"status": int64(StatusPending),
	}
	delegate := c.Task.IsDelegate()
	if delegate {
		// Emulated network error: the record lands in the delegate's
		// view (the initiator's volatile state) already failed, and no
		// network request is ever issued.
		row["status"] = int64(StatusErrorNetwork)
	}
	id, err := p.proxy.For(origin).Insert(tbl, row)
	if err != nil {
		return provider.URI{}, err
	}
	if delegate {
		p.complete(Event{ID: id, Initiator: origin, Status: StatusErrorNetwork, ClientPath: clientPath})
	} else {
		p.fetchAsync(id, origin, srcURL, clientPath)
	}
	return uri.WithID(id), nil
}

// fetchAsync queues the download of one record. Queued fetches wait
// in a FIFO, not in goroutines of their own: at most
// maxConcurrentDownloads workers drain it, each started on demand and
// exiting when it finds the queue empty.
func (p *Provider) fetchAsync(id int64, initiator, srcURL, clientPath string) {
	p.mu.Lock()
	if p.closed {
		// Shutting down: fail the record synchronously instead of
		// leaking a worker past Close's WaitGroup join.
		p.mu.Unlock()
		conn := p.proxy.For(initiator)
		_, _ = conn.Update("downloads",
			map[string]sqldb.Value{"status": int64(StatusErrorNetwork)},
			"_id = ?", id)
		p.complete(Event{ID: id, Initiator: initiator, Status: StatusErrorNetwork, ClientPath: clientPath})
		return
	}
	p.queue = append(p.queue, fetchJob{id: id, initiator: initiator, srcURL: srcURL, clientPath: clientPath})
	if p.workers < maxConcurrentDownloads {
		p.workers++
		p.pending.Add(1)
		go p.work()
	}
	p.mu.Unlock()
}

// work runs queued fetches until the queue is empty. A worker leaves
// only under p.mu with the queue empty, so a fetch queued after that
// finds a free worker slot and starts a new one.
func (p *Provider) work() {
	defer p.pending.Done()
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.workers--
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue[0] = fetchJob{}
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.fetch(job)
	}
}

// fetch downloads one record's file and records its terminal status.
func (p *Provider) fetch(job fetchJob) {
	conn := p.proxy.For(job.initiator)
	finish := func(status int64, size int64) {
		_, _ = conn.Update("downloads",
			map[string]sqldb.Value{"status": status, "total_bytes": size},
			"_id = ?", job.id)
		p.complete(Event{ID: job.id, Initiator: job.initiator, Status: status, ClientPath: job.clientPath})
	}
	_, _ = conn.Update("downloads", map[string]sqldb.Value{"status": int64(StatusRunning)}, "_id = ?", job.id)

	host, urlPath, err := splitURL(job.srcURL)
	if err != nil {
		finish(StatusErrorNetwork, 0)
		return
	}
	resp, err := p.net.RoundTrip(netstack.Request{Host: host, Path: urlPath})
	if err != nil || resp.Status != 200 {
		finish(StatusErrorNetwork, 0)
		return
	}
	backing := LocateFile(job.initiator, job.clientPath)
	if err := p.disk.MkdirAll(vfs.Root, path.Dir(backing), 0o777); err != nil {
		finish(StatusErrorNetwork, 0)
		return
	}
	if err := vfs.WriteFile(p.disk, vfs.Root, backing, resp.Body, 0o666); err != nil {
		finish(StatusErrorNetwork, 0)
		return
	}
	finish(StatusSuccess, int64(len(resp.Body)))
}

// Update updates records in the caller's view. Delegates may update
// entries (that does not touch the network), but may not trigger new
// fetches.
func (p *Provider) Update(c provider.Caller, uri provider.URI, values provider.Values, where string, args ...sqldb.Value) (int64, error) {
	tbl, err := table(uri)
	if err != nil {
		return 0, err
	}
	return provider.Update(p.proxy, c, uri, tbl, values, where, args...)
}

// Delete deletes records in the caller's view.
func (p *Provider) Delete(c provider.Caller, uri provider.URI, where string, args ...sqldb.Value) (int64, error) {
	tbl, err := table(uri)
	if err != nil {
		return 0, err
	}
	return provider.Delete(p.proxy, c, uri, tbl, where, args...)
}

// Query returns records from the caller's view; tmp URIs expose an
// initiator's volatile records.
func (p *Provider) Query(c provider.Caller, uri provider.URI, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	tbl, err := table(uri)
	if err != nil {
		return nil, err
	}
	return provider.Query(p.proxy, c, uri, tbl, columns, where, orderBy, args...)
}

// OnCall handles DownloadManager's extra Binder transactions:
//
//	code "wait": {"id": int64} -> {"status": int64, "path": string}
//	  blocks until the download reaches a terminal state.
func (p *Provider) OnCall(from provider.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
	switch code {
	case "wait":
		ev := p.WaitFor(data.Int("id"))
		return binder.Parcel{"status": ev.Status, "path": ev.ClientPath}, nil
	}
	return nil, fmt.Errorf("%w: %s", provider.ErrNotSupported, code)
}
