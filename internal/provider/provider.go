// Package provider implements Android-style content providers: URI
// parsing, ContentValues, a provider registry exposed over Binder, and
// the client-side ContentResolver apps use.
//
// System content providers (subpackages userdict, downloads, media) are
// the paper's three ported providers (§5.3). Each keeps its tables
// behind the COW proxy and serves a request in the view ViewOf chooses
// for it: an initiator's operations hit primary tables, a delegate's
// hit its initiator's COW views, and initiators can address volatile
// records via "tmp" URIs (§5.1).
package provider

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"maxoid/internal/binder"
	"maxoid/internal/cowproxy"
	"maxoid/internal/sqldb"
)

// Errors shared across providers.
var (
	ErrBadURI       = errors.New("provider: malformed content URI")
	ErrNotFound     = errors.New("provider: no such record")
	ErrNotSupported = errors.New("provider: operation not supported")
)

// IsVolatileKey is the ContentValues flag an initiator asserts to create
// a record in its own volatile state (paper §6.1 API 4).
const IsVolatileKey = "isVolatile"

// Values is the ContentValues map passed to insert/update.
type Values map[string]sqldb.Value

// Clone returns a copy with the given keys removed.
func (v Values) Clone(drop ...string) Values {
	out := make(Values, len(v))
	for k, val := range v {
		out[k] = val
	}
	for _, k := range drop {
		delete(out, k)
	}
	return out
}

// URI is a parsed content:// URI.
type URI struct {
	Authority string
	Segments  []string
}

// ParseURI parses "content://authority/seg/seg...". Empty segments are
// dropped; the segments share one slice (nil when there are none).
func ParseURI(s string) (URI, error) {
	authority, path, err := splitURI(s)
	if err != nil {
		return URI{}, err
	}
	path = strings.Trim(path, "/")
	if path == "" {
		return URI{Authority: authority}, nil
	}
	segs := make([]string, 0, strings.Count(path, "/")+1)
	for rest := path; rest != ""; {
		var seg string
		if seg, rest, _ = strings.Cut(rest, "/"); seg != "" {
			segs = append(segs, seg)
		}
	}
	return URI{Authority: authority, Segments: segs}, nil
}

// splitURI checks that s is "content://authority[/path]" with a
// non-empty authority, and splits it there without parsing the path.
func splitURI(s string) (authority, path string, err error) {
	rest, ok := strings.CutPrefix(s, "content://")
	authority, path, _ = strings.Cut(rest, "/")
	if !ok || authority == "" {
		return "", "", fmt.Errorf("%w: %s", ErrBadURI, s)
	}
	return authority, path, nil
}

// String renders the URI back to content:// form.
func (u URI) String() string {
	return "content://" + u.Authority + "/" + strings.Join(u.Segments, "/")
}

// ID returns the trailing numeric segment, if any.
func (u URI) ID() (int64, bool) {
	if len(u.Segments) == 0 {
		return 0, false
	}
	last := u.Segments[len(u.Segments)-1]
	// A table name never parses; skipping ParseInt spares the error it
	// would allocate.
	if last == "" || (last[0] != '-' && last[0] != '+' && (last[0] < '0' || last[0] > '9')) {
		return 0, false
	}
	n, err := strconv.ParseInt(last, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// IsVolatile reports whether the URI addresses volatile state — a "tmp"
// path component, e.g. content://user_dictionary/tmp/words (§5.1).
func (u URI) IsVolatile() bool {
	for _, s := range u.Segments {
		if s == "tmp" {
			return true
		}
	}
	return false
}

// Path returns the path segments with any "tmp" component and trailing
// numeric ID removed: the provider-level table path. Without a "tmp"
// component it is Segments itself, capacity-clipped so an append copies.
func (u URI) Path() []string {
	segs := u.Segments
	if _, ok := u.ID(); ok {
		segs = segs[:len(segs)-1]
	}
	if !slices.Contains(segs, "tmp") {
		return segs[:len(segs):len(segs)]
	}
	out := make([]string, 0, len(segs)-1)
	for _, s := range segs {
		if s != "tmp" {
			out = append(out, s)
		}
	}
	return out
}

// WithID returns a copy of the URI with a numeric ID appended.
func (u URI) WithID(id int64) URI {
	segs := make([]string, 0, len(u.Segments)+1)
	segs = append(segs, u.Segments...)
	segs = append(segs, strconv.FormatInt(id, 10))
	return URI{Authority: u.Authority, Segments: segs}
}

// TableRoute maps one URI path a provider exposes to the sqldb table
// (or registered user view) backing it — the seam the gateway uses to
// reflect provider schemas into REST routes.
type TableRoute struct {
	Path  string // URI path segment, e.g. "my_downloads"
	Table string // backing sqldb table or view name in the catalog
}

// Reflector is implemented by providers whose URI vocabulary can be
// reflected into auto-generated endpoints. Paths are the provider's own
// addressing (what ParseURI sees); tables are what the sqldb catalog
// describes, so introspection can list real columns per route.
type Reflector interface {
	TableRoutes() []TableRoute
}

// Caller aliases the binder caller identity.
type Caller = binder.Caller

// View is the state one provider request addresses.
type View struct {
	// Initiator names the initiator whose COW view the request goes
	// through (cowproxy.Proxy.For); "" for the primary tables.
	Initiator string
	// Own marks an initiator addressing its own volatile state: its
	// reads see that state alone, whiteouts included.
	Own bool
}

// ViewOf is Maxoid's view choice for one request: the COW proxy "uses a
// Maxoid API to get information about the calling process ... then
// selects the correct Maxoid view" (§5.2). A delegate of A gets A's COW
// view. An initiator gets the primary tables, unless the request is
// volatile (a tmp URI, or isVolatile on an insert): then it gets its
// own volatile state.
func ViewOf(c Caller, volatile bool) View {
	switch {
	case c.Task.IsDelegate():
		return View{Initiator: c.Task.Initiator}
	case volatile:
		return View{Initiator: c.Task.App, Own: true}
	}
	return View{}
}

// Insert inserts values into table in the view the request gets, with
// isVolatile stripped, and returns the new record's URI.
func Insert(px *cowproxy.Proxy, c Caller, uri URI, table string, values Values) (URI, error) {
	volatile, _ := values[IsVolatileKey].(bool)
	id, err := px.For(ViewOf(c, volatile).Initiator).Insert(table, values.Clone(IsVolatileKey))
	if err != nil {
		return URI{}, err
	}
	return uri.WithID(id), nil
}

// Update updates the rows of table the URI and where select in the view
// the request gets, with isVolatile stripped from values.
func Update(px *cowproxy.Proxy, c Caller, uri URI, table string, values Values, where string, args ...sqldb.Value) (int64, error) {
	where, args = whereFor(uri, where, args)
	return px.For(ViewOf(c, uri.IsVolatile()).Initiator).Update(table, values.Clone(IsVolatileKey), where, args...)
}

// Delete deletes the rows of table the URI and where select in the view
// the request gets.
func Delete(px *cowproxy.Proxy, c Caller, uri URI, table string, where string, args ...sqldb.Value) (int64, error) {
	where, args = whereFor(uri, where, args)
	return px.For(ViewOf(c, uri.IsVolatile()).Initiator).Delete(table, where, args...)
}

// Query returns the rows of table the URI and where select in the view
// the request gets. An initiator's tmp URI reads its volatile state
// alone (§5.1).
func Query(px *cowproxy.Proxy, c Caller, uri URI, table string, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	where, args = whereFor(uri, where, args)
	v := ViewOf(c, uri.IsVolatile())
	if v.Own {
		return px.QueryVolatile(table, v.Initiator, where, args...)
	}
	return px.For(v.Initiator).Query(table, columns, where, orderBy, args...)
}

// whereFor augments a where clause with the URI's ID constraint.
func whereFor(uri URI, where string, args []sqldb.Value) (string, []sqldb.Value) {
	if id, ok := uri.ID(); ok {
		idClause := "_id = ?"
		args = append(args, id)
		if where == "" {
			return idClause, args
		}
		return "(" + where + ") AND " + idClause, args
	}
	return where, args
}

// Provider is a content provider: the four Android operations.
type Provider interface {
	Authority() string
	Insert(c Caller, uri URI, values Values) (URI, error)
	Update(c Caller, uri URI, values Values, where string, args ...sqldb.Value) (int64, error)
	Delete(c Caller, uri URI, where string, args ...sqldb.Value) (int64, error)
	Query(c Caller, uri URI, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error)
}

// Registry installs providers as Binder system endpoints so the kernel
// Binder policy allows delegates to reach them (content providers are
// trusted system processes in the paper's model).
type Registry struct {
	router    *binder.Router
	providers map[string]Provider
	names     map[string]string // authority -> its binder endpoint name
}

// NewRegistry creates a registry on the router.
func NewRegistry(router *binder.Router) *Registry {
	return &Registry{router: router, providers: make(map[string]Provider), names: make(map[string]string)}
}

// endpointName is the binder endpoint for a provider authority.
func endpointName(authority string) string { return "provider:" + authority }

// Register installs a provider. Like the provider table, the endpoint
// names are written only while the system is being set up, before any
// resolver reads them.
func (r *Registry) Register(p Provider) {
	authority := p.Authority()
	name := endpointName(authority)
	r.providers[authority] = p
	r.names[authority] = name
	r.router.RegisterSystem(name, &providerEndpoint{p: p})
}

// Resolver creates a resolver for a caller on the registry's router. It
// names the endpoints of registered authorities with the registry's
// names instead of building one per call.
func (r *Registry) Resolver(caller binder.Caller) *Resolver {
	return &Resolver{router: r.router, caller: caller, names: r.names}
}

// Provider returns a registered provider by authority.
func (r *Registry) Provider(authority string) (Provider, bool) {
	p, ok := r.providers[authority]
	return p, ok
}

// Authorities returns the registered authorities, sorted.
func (r *Registry) Authorities() []string {
	out := make([]string, 0, len(r.providers))
	for a := range r.providers {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// providerEndpoint adapts a Provider to the binder Handler interface.
type providerEndpoint struct {
	p Provider
}

func (e *providerEndpoint) OnTransact(from binder.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
	switch code {
	case "insert", "update", "delete", "query":
	default:
		// Provider-specific transaction: no URI envelope.
		if caller, ok := e.p.(Callable); ok {
			return caller.OnCall(from, code, data)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotSupported, code)
	}
	uri, err := ParseURI(data.String("uri"))
	if err != nil {
		return nil, err
	}
	values, _ := data["values"].(Values)
	where := data.String("where")
	args, _ := data["args"].([]sqldb.Value)
	switch code {
	case "insert":
		out, err := e.p.Insert(from, uri, values)
		if err != nil {
			return nil, err
		}
		return binder.Parcel{"uri": out.String()}, nil
	case "update":
		n, err := e.p.Update(from, uri, values, where, args...)
		if err != nil {
			return nil, err
		}
		return binder.Parcel{"count": n}, nil
	case "delete":
		n, err := e.p.Delete(from, uri, where, args...)
		if err != nil {
			return nil, err
		}
		return binder.Parcel{"count": n}, nil
	case "query":
		columns, _ := data["columns"].([]string)
		rows, err := e.p.Query(from, uri, columns, where, data.String("orderBy"), args...)
		if err != nil {
			return nil, err
		}
		return binder.Parcel{"rows": rows}, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotSupported, code)
}

// Callable is implemented by providers with operations beyond the four
// standard ones (e.g. the Media scanner's "scan").
type Callable interface {
	OnCall(from Caller, code string, data binder.Parcel) (binder.Parcel, error)
}

// Resolver is the client-side ContentResolver bound to one caller
// identity. All calls go through Binder, so the kernel policy applies.
type Resolver struct {
	router *binder.Router
	caller binder.Caller
	names  map[string]string // a Registry's endpoint names; nil from NewResolver
}

// NewResolver creates a resolver for a caller.
func NewResolver(router *binder.Router, caller binder.Caller) *Resolver {
	return &Resolver{router: router, caller: caller}
}

// endpoint is the binder endpoint for authority.
func (r *Resolver) endpoint(authority string) string {
	if name, ok := r.names[authority]; ok {
		return name
	}
	return endpointName(authority)
}

// Insert inserts values at the URI, returning the new record's URI.
func (r *Resolver) Insert(uri string, values Values) (string, error) {
	authority, _, err := splitURI(uri)
	if err != nil {
		return "", err
	}
	reply, err := r.router.Call(r.caller, r.endpoint(authority), "insert",
		binder.Parcel{"uri": uri, "values": values})
	if err != nil {
		return "", err
	}
	return reply.String("uri"), nil
}

// Update updates records matching where at the URI.
func (r *Resolver) Update(uri string, values Values, where string, args ...sqldb.Value) (int64, error) {
	authority, _, err := splitURI(uri)
	if err != nil {
		return 0, err
	}
	reply, err := r.router.Call(r.caller, r.endpoint(authority), "update",
		binder.Parcel{"uri": uri, "values": values, "where": where, "args": args})
	if err != nil {
		return 0, err
	}
	return reply.Int("count"), nil
}

// Delete deletes records matching where at the URI.
func (r *Resolver) Delete(uri string, where string, args ...sqldb.Value) (int64, error) {
	authority, _, err := splitURI(uri)
	if err != nil {
		return 0, err
	}
	reply, err := r.router.Call(r.caller, r.endpoint(authority), "delete",
		binder.Parcel{"uri": uri, "where": where, "args": args})
	if err != nil {
		return 0, err
	}
	return reply.Int("count"), nil
}

// Query queries records at the URI.
func (r *Resolver) Query(uri string, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	authority, _, err := splitURI(uri)
	if err != nil {
		return nil, err
	}
	reply, err := r.router.Call(r.caller, r.endpoint(authority), "query",
		binder.Parcel{"uri": uri, "columns": columns, "where": where, "orderBy": orderBy, "args": args})
	if err != nil {
		return nil, err
	}
	rows, _ := reply["rows"].(*sqldb.Rows)
	if rows == nil {
		rows = &sqldb.Rows{}
	}
	return rows, nil
}

// Call performs a provider-specific transaction beyond the standard
// four operations.
func (r *Resolver) Call(authority, code string, data binder.Parcel) (binder.Parcel, error) {
	return r.router.Call(r.caller, r.endpoint(authority), code, data)
}
