package gateway

// Request-target decoding: one pass over the target yields the route
// and its parameters, without net/url. On every origin-form target the
// result equals what url.Parse, url.Values and the old segment split
// produced; FuzzGatewayPath holds the two together.

import (
	"fmt"
	"strconv"
	"strings"
)

// routeKind classifies a parsed path.
type routeKind int

const (
	routeTable   routeKind = iota // /v1/{provider}/{table}[/{pk}]
	routeSchema                   // /v1/{provider}/_schema
	routeExplain                  // /v1/{provider}/{table}/_explain
	routeFS                       // /v1/_fs/{path...}
	routeGrant                    // /v1/_grant?uri=...
)

// route is a decoded request target — what FuzzGatewayPath exercises.
// String fields are substrings of the target unless they held escapes.
type route struct {
	kind      routeKind
	authority string
	table     string // URI path segment ("" for _fs/_grant)
	pk        int64  // 0 when the path has no trailing id
	hasPK     bool
	fsPath    []string

	// Query parameters: the first where, order, columns and uri win;
	// every arg is kept, in order. Other keys are ignored.
	where, order, columns, uri string
	args                       []string
}

// parseRoute decodes a request target into a route. Pure function of
// the target: provider/table existence is checked by the dispatcher.
//
// Only origin form is accepted (RFC 9112 §3.2.1): exactly one leading
// '/', no '#' and no control byte. The path, everything before the
// first '?', is percent-decoded as url.PathUnescape does (a bad escape
// is a 400) and split into non-empty segments; the query decodes as
// url.ParseQuery does (decodeQuery).
func parseRoute(target string) (route, error) {
	if !originForm(target) {
		return route{}, fmt.Errorf("%w: %q is not an origin-form target", errBadRequest, target)
	}
	rawPath, query, _ := strings.Cut(target, "?")
	path, ok := unescape(rawPath, false)
	if !ok {
		return route{}, fmt.Errorf("%w: %s", errBadRequest, target)
	}
	rt, err := routeOf(path)
	if err != nil {
		return route{}, err
	}
	rt.decodeQuery(query)
	return rt, nil
}

// routeOf classifies a decoded path by its non-empty segments.
func routeOf(path string) (route, error) {
	version, rest := nextSegment(path)
	first, rest := nextSegment(rest)
	if version != "v1" || first == "" {
		return route{}, unknownRoute(path)
	}
	switch first {
	case "_fs":
		segs := strings.FieldsFunc(rest, func(r rune) bool { return r == '/' })
		return route{kind: routeFS, fsPath: segs}, nil
	case "_grant":
		if extra, _ := nextSegment(rest); extra != "" {
			return route{}, unknownRoute(path)
		}
		return route{kind: routeGrant}, nil
	}
	table, rest := nextSegment(rest)
	last, rest := nextSegment(rest)
	if extra, _ := nextSegment(rest); table == "" || extra != "" {
		return route{}, unknownRoute(path)
	}
	rt := route{authority: first}
	switch {
	case table == "_schema" && last == "":
		rt.kind = routeSchema
	case strings.HasPrefix(table, "_"):
		return route{}, unknownRoute(path)
	case last == "_explain":
		rt.kind, rt.table = routeExplain, table
	default:
		rt.kind, rt.table = routeTable, table
		if last != "" {
			pk, err := strconv.ParseInt(last, 10, 64)
			if err != nil {
				return route{}, fmt.Errorf("%w: bad id %q", errBadRequest, last)
			}
			rt.pk, rt.hasPK = pk, true
		}
	}
	return rt, nil
}

func unknownRoute(path string) error {
	return fmt.Errorf("%w: unknown route %s", errBadRequest, path)
}

// contentURI renders the route's content://{authority}/{table}[/{pk}],
// the one URI string the request carries to the provider.
func (rt *route) contentURI() string {
	var buf [96]byte
	b := append(buf[:0], "content://"...)
	b = append(b, rt.authority...)
	b = append(b, '/')
	b = append(b, rt.table...)
	if rt.hasPK {
		b = append(b, '/')
		b = strconv.AppendInt(b, rt.pk, 10)
	}
	return string(b)
}

// originForm reports whether target is an origin-form request target:
// exactly one leading '/', no '#' and no control byte.
func originForm(target string) bool {
	if target == "" || target[0] != '/' || len(target) > 1 && target[1] == '/' {
		return false
	}
	for i := 0; i < len(target); i++ {
		if c := target[i]; c < 0x20 || c == 0x7f || c == '#' {
			return false
		}
	}
	return true
}

// nextSegment returns p's first non-empty '/'-separated segment and
// what follows it; seg is "" when p holds no more segments.
func nextSegment(p string) (seg, rest string) {
	seg, rest, _ = strings.Cut(strings.TrimLeft(p, "/"), "/")
	return seg, rest
}

// decodeQuery sets rt's parameters from a raw query the way
// url.ParseQuery and url.Values.Get do: pairs split on '&'; empty pairs
// and pairs holding ';' are skipped; key and value are unescaped with
// '+' as a space, and a pair that fails to unescape is skipped.
func (rt *route) decodeQuery(query string) {
	var seen [4]bool // where, order, columns, uri
	fields := [4]*string{&rt.where, &rt.order, &rt.columns, &rt.uri}
	// Room for every arg whose key is written plainly; an escaped key
	// grows the list.
	if n := strings.Count(query, "arg"); n > 0 {
		rt.args = make([]string, 0, n)
	}
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		rawKey, rawValue, _ := strings.Cut(pair, "=")
		key, ok := unescape(rawKey, true)
		if !ok {
			continue
		}
		i := -1
		switch key {
		case "arg":
		case "where":
			i = 0
		case "order":
			i = 1
		case "columns":
			i = 2
		case "uri":
			i = 3
		default:
			continue
		}
		value, ok := unescape(rawValue, true)
		switch {
		case !ok:
		case i < 0:
			rt.args = append(rt.args, value)
		case !seen[i]:
			seen[i] = true
			*fields[i] = value
		}
	}
}

// unescape decodes s as url.PathUnescape (query false) or
// url.QueryUnescape (query true) does: each %XX is the byte XX, and in
// a query '+' is a space. ok is false when a '%' is not followed by two
// hex digits. s itself comes back, unallocated, when it holds nothing
// to decode.
func unescape(s string, query bool) (string, bool) {
	escapes, plus := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return "", false
			}
			escapes++
			i += 2
		case '+':
			plus = plus || query
		}
	}
	if escapes == 0 && !plus {
		return s, true
	}
	var b strings.Builder
	b.Grow(len(s) - 2*escapes)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '%':
			b.WriteByte(unhex(s[i+1])<<4 | unhex(s[i+2]))
			i += 2
		case c == '+' && query:
			b.WriteByte(' ')
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}
