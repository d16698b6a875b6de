// Package gateway is the schema-reflected remote API boundary: it
// serves every registered content provider to a fleet of devices over
// the simulated netstack, reflecting each provider's sqldb catalog
// schema into auto-generated CRUD + query endpoints.
//
// The confinement contract is the paper's, moved to a network seam:
// every request carries a (user, app, initiator) identity token, and
// the gateway resolves it to exactly the view a local caller with that
// identity holds. It does this by construction, not by handler-side
// filtering — each request is dispatched through the existing binder
// router / provider / cowproxy machinery with the resolved caller, so
// kernel Binder policy, AMS admission control, URI grants, and COW
// view selection all apply unchanged. A remote client can never see
// or write outside its custom view because no gateway code path
// touches state except through those layers.
//
// Routes (all under /v1, identity in the X-Maxoid-Identity header):
//
//	GET    /v1/{provider}/_schema              reflected table catalog
//	GET    /v1/{provider}/{table}              query (?where=&order=&columns=&arg=)
//	POST   /v1/{provider}/{table}              insert (JSON body of values)
//	GET    /v1/{provider}/{table}/_explain     planner-only access path for the caller's view
//	GET    /v1/{provider}/{table}/{pk}         point query
//	PUT    /v1/{provider}/{table}/{pk}         update (JSON body of values)
//	DELETE /v1/{provider}/{table}/{pk}         delete
//	GET    /v1/_grant?uri=content://...        read a URI-granted file
//	GET    /v1/_fs/{path}                      read a file through the caller's namespace
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/cowproxy"
	"maxoid/internal/fault"
	"maxoid/internal/metrics"
	"maxoid/internal/netstack"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
)

// IdentityHeader carries the request's (user, app, initiator) token.
const IdentityHeader = "X-Maxoid-Identity"

// ErrClosed fails a request that was still waiting for a slot when
// Close began.
var ErrClosed = errors.New("gateway: closed")

// Fault points on the gateway request path (see internal/fault).
var (
	faultDecode = fault.Declare("gw.decode", "gateway request decode: fail before the request body/query is parsed")
	faultView   = fault.Declare("gw.view", "gateway view resolution: fail after identity auth, before dispatch")
)

// Options configures a Gateway over an already-booted system.
type Options struct {
	AMS       *ams.Manager
	Providers *provider.Registry
	Metrics   *metrics.Registry // nil: metrics are skipped

	// AllowDetached admits identities with no running AMS instance by
	// synthesizing a kernel-less caller (PID 0). Off by default: strict
	// mode binds every token to a live instance, so a dead process is a
	// 401. perfbench's sync workloads turn this on to address their
	// remote identities without booting an instance for each.
	AllowDetached bool

	// Workers is the most requests served at once (default 4); extra
	// requests wait for a slot.
	Workers int
}

// Gateway serves providers as a netstack host. Each request runs on
// its client's goroutine.
type Gateway struct {
	opts   Options
	routes map[string]map[string]string // authority -> path -> table
	hooks  hookChain
	met    *gwMetrics // nil when Options.Metrics is

	slots     chan struct{} // one token per request being served
	done      chan struct{} // closed when Close begins
	unbind    func()
	closeOnce sync.Once
}

// New creates a gateway and snapshots each provider's table routes.
// Only providers implementing provider.Reflector are exposed.
func New(opts Options) *Gateway {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	g := &Gateway{
		opts:   opts,
		routes: make(map[string]map[string]string),
		slots:  make(chan struct{}, opts.Workers),
		done:   make(chan struct{}),
	}
	for _, authority := range opts.Providers.Authorities() {
		p, _ := opts.Providers.Provider(authority)
		refl, ok := p.(provider.Reflector)
		if !ok {
			continue
		}
		m := make(map[string]string)
		for _, r := range refl.TableRoutes() {
			m[r.Path] = r.Table
		}
		g.routes[authority] = m
	}
	if opts.Metrics != nil {
		g.met = newGWMetrics(opts.Metrics, g.routes)
	}
	return g
}

// Pre appends a pre-request hook; see hooks.go.
func (g *Gateway) Pre(h PreHook) { g.hooks.pre = append(g.hooks.pre, h) }

// Post appends a post-request hook; see hooks.go.
func (g *Gateway) Post(h PostHook) { g.hooks.post = append(g.hooks.post, h) }

// Serve binds host on the network. Call it once, before Close.
func (g *Gateway) Serve(net *netstack.Network, host string) error {
	unbind, err := net.Bind(host, netstack.HandlerFunc(g.serve))
	if err != nil {
		return err
	}
	g.unbind = unbind
	return nil
}

// Close unbinds the host, so later requests fail with
// netstack.ErrNoHost, and fails requests still waiting for a slot with
// ErrClosed. It returns once every admitted request has finished, and
// none starts after it. Idempotent.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		if g.unbind != nil {
			g.unbind()
		}
		close(g.done)
		for i := 0; i < cap(g.slots); i++ {
			g.slots <- struct{}{}
		}
	})
}

// serve is the bound netstack handler: it waits for a slot, then runs
// the request on the caller's goroutine.
func (g *Gateway) serve(req netstack.Request) (netstack.Response, error) {
	select {
	case g.slots <- struct{}{}:
	case <-g.done:
		return netstack.Response{}, ErrClosed
	}
	defer func() { <-g.slots }()
	// A slot freed after Close began must not start a request.
	select {
	case <-g.done:
		return netstack.Response{}, ErrClosed
	default:
	}
	return g.handle(req), nil
}

// handle runs one request end to end: decode, authenticate, hooks,
// dispatch, encode. Every error leaves as a typed HTTP status with a
// JSON {error, code} body — never a transport error.
func (g *Gateway) handle(req netstack.Request) netstack.Response {
	start := time.Now()
	info := &RequestInfo{Method: methodOf(req), Path: req.Path}
	resp := g.dispatch(req, info)
	if g.met != nil {
		g.met.record(info, resp.Status, time.Since(start))
	}
	g.hooks.runPost(info, resp.Status)
	return resp
}

// methodLabels are the methods a latency histogram is named by; any
// other method is recorded as "_other".
var methodLabels = [...]string{"GET", "POST", "PUT", "DELETE", "_other"}

// methodHists are one provider label's latency histograms, indexed
// like methodLabels.
type methodHists [len(methodLabels)]*metrics.Histogram

// gwMetrics are the gateway's instruments, resolved once in New so the
// epilogue builds no name and does no registry lookup. Every label set
// is closed, so no request can add a metric:
// gw.latency.{provider}.{method}, where provider is one the gateway
// routes, "_fs", "_grant" or "_none" and method is a methodLabels
// entry; gw.status.{2,4,5}xx; gw.overloaded; gw.readonly.
type gwMetrics struct {
	latency    map[string]*methodHists // by RequestInfo.Provider; "" is "_none"
	status     [6]*metrics.Counter     // by status class; the gateway sends 2xx, 4xx and 5xx
	overloaded *metrics.Counter
	readonly   *metrics.Counter
}

func newGWMetrics(reg *metrics.Registry, routes map[string]map[string]string) *gwMetrics {
	m := &gwMetrics{
		latency:    make(map[string]*methodHists, len(routes)+3),
		overloaded: reg.Counter("gw.overloaded"),
		readonly:   reg.Counter("gw.readonly"),
	}
	label := func(key, provider string) {
		var hs methodHists
		for i, method := range methodLabels {
			hs[i] = reg.Histogram("gw.latency." + provider + "." + method)
		}
		m.latency[key] = &hs
	}
	for provider := range routes {
		label(provider, provider)
	}
	label("_fs", "_fs")
	label("_grant", "_grant")
	label("", "_none")
	for _, class := range []int{2, 4, 5} {
		m.status[class] = reg.Counter("gw.status." + strconv.Itoa(class) + "xx")
	}
	return m
}

// record is the metrics epilogue of one request. dispatch names a
// provider only once the gateway routes it, so any other request is
// "_none".
func (m *gwMetrics) record(info *RequestInfo, status int, d time.Duration) {
	hs := m.latency[info.Provider]
	if hs == nil { // a pre-hook rewrote Provider
		hs = m.latency[""]
	}
	method := len(methodLabels) - 1
	for i, label := range methodLabels[:method] {
		if info.Method == label {
			method = i
			break
		}
	}
	hs[method].Observe(d)
	if class := status / 100; class >= 0 && class < len(m.status) && m.status[class] != nil {
		m.status[class].Inc()
	}
	switch status {
	case 429:
		m.overloaded.Inc()
	case 503:
		m.readonly.Inc()
	}
}

// dispatch decodes and routes; split from handle so every return path
// shares the metrics/post-hook epilogue.
func (g *Gateway) dispatch(req netstack.Request, info *RequestInfo) netstack.Response {
	if err := fault.Hit(faultDecode); err != nil {
		return errResponse(fmt.Errorf("%w: injected decode failure: %s", errBadRequest, err))
	}
	rt, err := parseRoute(req.Path)
	if err != nil {
		return errResponse(err)
	}

	id, err := g.resolveIdentity(req.Header(IdentityHeader))
	if err != nil {
		return errResponse(err)
	}
	if len(g.hooks.pre) > 0 || len(g.hooks.post) > 0 {
		info.Identity = id.task.String()
	}

	if err := g.hooks.runPre(info); err != nil {
		return errResponse(err)
	}
	if err := fault.Hit(faultView); err != nil {
		return errResponse(fmt.Errorf("gateway: view resolution: %w", err))
	}

	switch rt.kind {
	case routeFS:
		info.Provider = "_fs"
		return g.handleFS(id, methodOf(req), rt.fsPath)
	case routeGrant:
		info.Provider = "_grant"
		return g.handleGrant(id, methodOf(req), rt.uri)
	}
	tables, ok := g.routes[rt.authority]
	if !ok {
		return errResponse(fmt.Errorf("%w: provider %s", errNotFound, rt.authority))
	}
	info.Provider = rt.authority
	if rt.kind == routeSchema {
		return g.handleSchema(rt.authority, tables)
	}
	if _, ok := tables[rt.table]; !ok {
		return errResponse(fmt.Errorf("%w: %s/%s", errNotFound, rt.authority, rt.table))
	}

	uri := rt.contentURI()
	res := g.opts.Providers.Resolver(id.caller)
	switch methodOf(req) {
	case "GET":
		if rt.kind == routeExplain {
			return g.handleExplain(id, rt.authority, tables[rt.table], &rt)
		}
		return handleQuery(res, uri, &rt)
	case "POST":
		if rt.hasPK || rt.kind == routeExplain {
			return errResponse(fmt.Errorf("%w: POST", errMethod))
		}
		return handleInsert(res, uri, req.Body)
	case "PUT":
		if !rt.hasPK {
			return errResponse(fmt.Errorf("%w: PUT requires an id", errMethod))
		}
		return handleUpdate(res, uri, req.Body)
	case "DELETE":
		if !rt.hasPK {
			return errResponse(fmt.Errorf("%w: DELETE requires an id", errMethod))
		}
		return handleDelete(res, uri)
	default:
		return errResponse(fmt.Errorf("%w: %s", errMethod, methodOf(req)))
	}
}

// handleSchema reflects the provider's routes with real catalog columns
// for base tables; routed user views are reported without columns.
func (g *Gateway) handleSchema(authority string, tables map[string]string) netstack.Response {
	type colJSON struct {
		Name       string `json:"name"`
		Type       string `json:"type"`
		PrimaryKey bool   `json:"primary_key,omitempty"`
		NotNull    bool   `json:"not_null,omitempty"`
	}
	type tableJSON struct {
		Path    string    `json:"path"`
		Table   string    `json:"table"`
		View    bool      `json:"view,omitempty"`
		Columns []colJSON `json:"columns,omitempty"`
	}
	catalog := g.catalogFor(authority)
	out := struct {
		Provider string      `json:"provider"`
		Tables   []tableJSON `json:"tables"`
	}{Provider: authority}
	paths := make([]string, 0, len(tables))
	for path := range tables {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		tj := tableJSON{Path: path, Table: tables[path]}
		if catalog != nil {
			if cols, ok := catalog.TableColumns(tables[path]); ok {
				for _, c := range cols {
					tj.Columns = append(tj.Columns, colJSON{
						Name: c.Name, Type: c.Type,
						PrimaryKey: c.PrimaryKey, NotNull: c.NotNull,
					})
				}
			} else {
				tj.View = true
			}
		}
		out.Tables = append(out.Tables, tj)
	}
	return jsonResponse(200, out)
}

// proxied is the accessor the three system providers share.
type proxied interface {
	Proxy() *cowproxy.Proxy
}

// catalogFor returns the provider's sqldb catalog, or nil when the
// provider doesn't expose its proxy.
func (g *Gateway) catalogFor(authority string) *sqldb.DB {
	if pr, ok := g.proxyFor(authority); ok {
		return pr.DB()
	}
	return nil
}

// proxyFor returns the provider's COW proxy when it exposes one.
func (g *Gateway) proxyFor(authority string) (*cowproxy.Proxy, bool) {
	p, ok := g.opts.Providers.Provider(authority)
	if !ok {
		return nil, false
	}
	pr, ok := p.(proxied)
	if !ok {
		return nil, false
	}
	return pr.Proxy(), true
}

// handleExplain renders the caller's view of the query and runs the
// planner only, via cowproxy's own renderer — so the reported access
// path is for the view the caller actually gets (a delegate's COW
// view), not the primary table.
func (g *Gateway) handleExplain(id identity, authority, table string, rt *route) netstack.Response {
	proxy, ok := g.proxyFor(authority)
	if !ok {
		return errResponse(fmt.Errorf("%w: _explain on %s", provider.ErrNotSupported, authority))
	}
	where, columns, orderBy, args := queryParams(rt)
	conn := proxy.For(provider.ViewOf(id.caller, false).Initiator)
	rows, err := conn.Explain(table, columns, where, orderBy, args...)
	if err != nil {
		return errResponse(err)
	}
	return rowsResponse(rows)
}

// handleFS reads a file through the caller's mount namespace — the
// same unionfs view a local process with that identity sees. Detached
// identities have no namespace, so the route requires a live instance.
func (g *Gateway) handleFS(id identity, method string, segs []string) netstack.Response {
	if method != "GET" {
		return errResponse(fmt.Errorf("%w: %s on _fs", errMethod, method))
	}
	if id.ctx == nil {
		return errResponse(fmt.Errorf("%w: _fs requires a live instance", errForbidden))
	}
	name := "/" + strings.Join(segs, "/")
	data, err := vfs.ReadFile(id.ctx.FS(), id.ctx.Cred(), name)
	if err != nil {
		return errResponse(err)
	}
	return netstack.Response{Status: 200, Body: data}
}

// handleGrant opens a URI-granted file via the AMS grant table — the
// remote equivalent of Context.OpenGrantedURI, so a grant revoked
// mid-flight fails with the typed ams.ErrNoGrant (403).
func (g *Gateway) handleGrant(id identity, method, uri string) netstack.Response {
	if method != "GET" {
		return errResponse(fmt.Errorf("%w: %s on _grant", errMethod, method))
	}
	if id.ctx == nil {
		return errResponse(fmt.Errorf("%w: _grant requires a live instance", errForbidden))
	}
	if uri == "" {
		return errResponse(fmt.Errorf("%w: missing uri parameter", errBadRequest))
	}
	data, err := id.ctx.OpenGrantedURI(uri)
	if err != nil {
		return errResponse(err)
	}
	return netstack.Response{Status: 200, Body: data}
}

// handleQuery serves GET on a table or a /{pk} row.
func handleQuery(res *provider.Resolver, uri string, rt *route) netstack.Response {
	where, columns, orderBy, args := queryParams(rt)
	rows, err := res.Query(uri, columns, where, orderBy, args...)
	if err != nil {
		return errResponse(err)
	}
	if rt.hasPK && len(rows.Data) == 0 {
		return errResponse(fmt.Errorf("%w: %s", provider.ErrNotFound, uri))
	}
	return rowsResponse(rows)
}

// handleInsert serves POST: the JSON body is the ContentValues map.
func handleInsert(res *provider.Resolver, uri string, body []byte) netstack.Response {
	values, err := decodeValues(body)
	if err != nil {
		return errResponse(err)
	}
	out, err := res.Insert(uri, values)
	if err != nil {
		return errResponse(err)
	}
	outURI, _ := provider.ParseURI(out)
	id, _ := outURI.ID()
	return jsonResponse(201, map[string]any{"uri": out, "id": id})
}

// handleUpdate serves PUT on a /{pk} row.
func handleUpdate(res *provider.Resolver, uri string, body []byte) netstack.Response {
	values, err := decodeValues(body)
	if err != nil {
		return errResponse(err)
	}
	n, err := res.Update(uri, values, "")
	if err != nil {
		return errResponse(err)
	}
	if n == 0 {
		return errResponse(fmt.Errorf("%w: %s", provider.ErrNotFound, uri))
	}
	return jsonResponse(200, map[string]any{"count": n})
}

// handleDelete serves DELETE on a /{pk} row.
func handleDelete(res *provider.Resolver, uri string) netstack.Response {
	n, err := res.Delete(uri, "")
	if err != nil {
		return errResponse(err)
	}
	if n == 0 {
		return errResponse(fmt.Errorf("%w: %s", provider.ErrNotFound, uri))
	}
	return jsonResponse(200, map[string]any{"count": n})
}

// queryParams converts the query-string knobs shared by GET and
// _explain: where, columns (comma-separated, blanks dropped), order,
// and the repeated arg= placeholder values (int64 when the literal
// parses as one).
func queryParams(rt *route) (where string, columns []string, orderBy string, args []sqldb.Value) {
	if rt.columns != "" {
		columns = make([]string, 0, strings.Count(rt.columns, ",")+1)
		for rest, more := rt.columns, true; more; {
			var c string
			c, rest, more = strings.Cut(rest, ",")
			if c = strings.TrimSpace(c); c != "" {
				columns = append(columns, c)
			}
		}
	}
	if len(rt.args) > 0 {
		args = make([]sqldb.Value, len(rt.args))
		for i, a := range rt.args {
			if n, err := strconv.ParseInt(a, 10, 64); err == nil {
				args[i] = n
			} else {
				args[i] = a
			}
		}
	}
	return rt.where, columns, rt.order, args
}

// decodeValues parses a JSON object body into ContentValues. JSON
// numbers arrive as float64; integral ones are narrowed to int64 so
// they round-trip through sqldb's INTEGER affinity.
func decodeValues(body []byte) (provider.Values, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty body", errBadRequest)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("%w: %s", errBadRequest, err)
	}
	values := make(provider.Values, len(raw))
	for k, v := range raw {
		switch x := v.(type) {
		case float64:
			if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
				values[k] = int64(x)
			} else {
				values[k] = x
			}
		case string:
			values[k] = x
		case bool:
			values[k] = x
		case nil:
			values[k] = nil
		default:
			return nil, fmt.Errorf("%w: column %s: unsupported value type", errBadRequest, k)
		}
	}
	return values, nil
}

// rowsResponse encodes a query result as {"columns":[...],"rows":[[...]]},
// appending into one buffer sized by rowsLen. The bytes are
// encoding/json's for the {Columns, Rows} struct with nil columns or
// rows sent as []; FuzzRowsResponse holds the two together.
func rowsResponse(rows *sqldb.Rows) netstack.Response {
	buf := make([]byte, 0, rowsLen(rows))
	buf = append(buf, `{"columns":[`...)
	for i, c := range rows.Columns {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendString(buf, c)
	}
	buf = append(buf, `],"rows":[`...)
	var err error
	for i, row := range rows.Data {
		if i > 0 {
			buf = append(buf, ',')
		}
		if row == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendValue(buf, v); err != nil {
				return encodeFailure()
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, "]}"...)
	return netstack.Response{Status: 200, Body: buf}
}

// rowsLen bounds the encoded length of rows when every value is
// written inline; a value sent through json.Marshal is guessed at 24
// bytes.
func rowsLen(rows *sqldb.Rows) int {
	n := len(`{"columns":[],"rows":[]}`)
	for _, c := range rows.Columns {
		n += len(c) + len(`"",`)
	}
	for _, row := range rows.Data {
		if row == nil {
			n += len("null,")
			continue
		}
		n += len("[],")
		for _, v := range row {
			switch x := v.(type) {
			case nil:
				n += len("null,")
			case int64:
				n += intLen(x) + len(",")
			case string:
				n += len(x) + len(`"",`)
			default:
				n += 24
			}
		}
	}
	return n
}

// intLen is the number of bytes strconv.AppendInt writes for x.
func intLen(x int64) int {
	n, u := 1, uint64(x)
	if x < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// appendValue appends v's JSON encoding. Nil, int64 and plain strings
// are written inline; any other value goes through json.Marshal alone,
// so its bytes, and its errors (NaN, ±Inf), are encoding/json's.
func appendValue(buf []byte, v sqldb.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...), nil
	case int64:
		return strconv.AppendInt(buf, x, 10), nil
	case string:
		return appendString(buf, x), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(buf, b...), nil
}

// appendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes (" \ < > &) is copied between
// quotes; any other string goes through json.Marshal.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// methodOf defaults an empty method to GET (netstack's plain fetches).
func methodOf(req netstack.Request) string {
	if req.Method == "" {
		return "GET"
	}
	return req.Method
}
