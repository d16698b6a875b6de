package gateway

import (
	"errors"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"maxoid/internal/kernel"
	"maxoid/internal/sqldb"
)

func TestParseToken(t *testing.T) {
	cases := []struct {
		tok  string
		user int
		task kernel.Task
		ok   bool
	}{
		{"u0:appA", 0, kernel.Task{App: "appA"}, true},
		{"u0:viewer^appA", 0, kernel.Task{App: "viewer", Initiator: "appA"}, true},
		{"u3:appA", 3, kernel.Task{App: "appA"}, true},
		{"", 0, kernel.Task{}, false},
		{"appA", 0, kernel.Task{}, false},
		{"u:appA", 0, kernel.Task{}, false},
		{"ux:appA", 0, kernel.Task{}, false},
		{"u-1:appA", 0, kernel.Task{}, false},
		{"u0:", 0, kernel.Task{}, false},
		{"u0:app A", 0, kernel.Task{}, false},
		{"u0:a^b^c", 0, kernel.Task{}, false},
		{"u0:app/../etc", 0, kernel.Task{}, false},
	}
	for _, tc := range cases {
		user, task, err := parseToken(tc.tok)
		if (err == nil) != tc.ok {
			t.Errorf("parseToken(%q): err=%v, want ok=%v", tc.tok, err, tc.ok)
			continue
		}
		if tc.ok && (user != tc.user || task != tc.task) {
			t.Errorf("parseToken(%q) = %d %v, want %d %v", tc.tok, user, task, tc.user, tc.task)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, task := range []kernel.Task{{App: "appA"}, {App: "viewer", Initiator: "appA"}} {
		_, got, err := parseToken(Token(task))
		if err != nil || got != task {
			t.Errorf("round trip %v: got %v, %v", task, got, err)
		}
	}
}

func TestParseRoute(t *testing.T) {
	cases := []struct {
		path string
		want route
		ok   bool
	}{
		{"/v1/media/files", route{kind: routeTable, authority: "media", table: "files"}, true},
		{"/v1/media/files/42", route{kind: routeTable, authority: "media", table: "files", pk: 42, hasPK: true}, true},
		{"/v1/media/_schema", route{kind: routeSchema, authority: "media"}, true},
		{"/v1/media/files/_explain", route{kind: routeExplain, authority: "media", table: "files"}, true},
		{"/v1/_fs/sdcard/Download/a.bin", route{kind: routeFS, fsPath: []string{"sdcard", "Download", "a.bin"}}, true},
		// Paths a pattern mux finds ambiguous between the provider
		// routes and _fs: they are files.
		{"/v1/_fs/_schema", route{kind: routeFS, fsPath: []string{"_schema"}}, true},
		{"/v1/_fs/a/_explain", route{kind: routeFS, fsPath: []string{"a", "_explain"}}, true},
		{"/v1/_fs/a%2Fb", route{kind: routeFS, fsPath: []string{"a", "b"}}, true},
		{"/v1/%6Dedia/files", route{kind: routeTable, authority: "media", table: "files"}, true},
		{"/v1/_grant", route{kind: routeGrant}, true},
		{"/v1/_grant?uri=content%3A%2F%2Fmedia%2Ffiles%2F3", route{kind: routeGrant, uri: "content://media/files/3"}, true},
		{"/v1/media/files?where=_id+%3D+%3F&arg=1", route{kind: routeTable, authority: "media", table: "files",
			where: "_id = ?", args: []string{"1"}}, true},
		{"/v1/media/files?columns=_id,+title&order=_id+DESC&arg=a%2Bb&arg=2&junk=1",
			route{kind: routeTable, authority: "media", table: "files",
				columns: "_id, title", order: "_id DESC", args: []string{"a+b", "2"}}, true},
		// The first where wins, even when empty; pairs holding ';' and
		// pairs that fail to unescape are skipped.
		{"/v1/media/files?where=&where=x&order=%zz&order=b", route{kind: routeTable, authority: "media", table: "files",
			order: "b"}, true},
		{"/v1/media/files?where=a;b&arg=1;arg=2&arg=3", route{kind: routeTable, authority: "media", table: "files",
			args: []string{"3"}}, true},
		{"/v1/media/files?", route{kind: routeTable, authority: "media", table: "files"}, true},
		{"/v1/media/files??where=x", route{kind: routeTable, authority: "media", table: "files"}, true},
		{"/", route{}, false},
		{"/v1", route{}, false},
		{"/v2/media/files", route{}, false},
		{"/v1/media/files/abc", route{}, false},
		{"/v1/media/files/42/extra", route{}, false},
		{"/v1/media/_secret", route{}, false},
		{"/v1/_grant/extra", route{}, false},
		{"/v1/media/files%zz", route{}, false},
		// Not origin form: url.Parse routed these, the decoder does not.
		{"v1/media/files", route{}, false},
		{"///v1/media/files", route{}, false},
		{"/v1/media/files#x", route{}, false},
		{"//host/v1/media/files", route{}, false},
		{"http://host/v1/media/files", route{}, false},
		{"/v1/media/files\x00", route{}, false},
	}
	for _, tc := range cases {
		got, err := parseRoute(tc.path)
		if (err == nil) != tc.ok {
			t.Errorf("parseRoute(%q): err=%v, want ok=%v", tc.path, err, tc.ok)
			continue
		}
		if !tc.ok {
			if !errors.Is(err, errBadRequest) {
				t.Errorf("parseRoute(%q): err=%v, want errBadRequest", tc.path, err)
			}
			continue
		}
		if !sameRoute(got, tc.want) {
			t.Errorf("parseRoute(%q) = %+v, want %+v", tc.path, got, tc.want)
		}
	}
}

// sameRoute compares two routes field by field; an empty slice equals
// a nil one.
func sameRoute(a, b route) bool {
	return a.kind == b.kind && a.authority == b.authority && a.table == b.table &&
		a.pk == b.pk && a.hasPK == b.hasPK && slices.Equal(a.fsPath, b.fsPath) &&
		a.where == b.where && a.order == b.order && a.columns == b.columns && a.uri == b.uri &&
		slices.Equal(a.args, b.args)
}

// referenceRoute is the url.Parse-based decoder parseRoute replaced,
// with its query left as url.Values. On origin-form targets parseRoute
// must agree with it.
func referenceRoute(rawPath string) (route, url.Values, error) {
	u, err := url.Parse(rawPath)
	if err != nil {
		return route{}, nil, err
	}
	var segs []string
	for _, s := range strings.Split(u.Path, "/") {
		if s != "" {
			segs = append(segs, s)
		}
	}
	if len(segs) < 2 || segs[0] != "v1" {
		return route{}, nil, errBadRequest
	}
	q := u.Query()
	rt := route{where: q.Get("where"), order: q.Get("order"), columns: q.Get("columns"), uri: q.Get("uri"), args: q["arg"]}
	segs = segs[1:]
	switch segs[0] {
	case "_fs":
		rt.kind = routeFS
		rt.fsPath = segs[1:]
		return rt, q, nil
	case "_grant":
		if len(segs) != 1 {
			return route{}, nil, errBadRequest
		}
		rt.kind = routeGrant
		return rt, q, nil
	}
	rt.authority = segs[0]
	if len(segs) == 2 && segs[1] == "_schema" {
		rt.kind = routeSchema
		return rt, q, nil
	}
	if len(segs) < 2 || len(segs) > 3 {
		return route{}, nil, errBadRequest
	}
	rt.kind = routeTable
	rt.table = segs[1]
	if strings.HasPrefix(rt.table, "_") {
		return route{}, nil, errBadRequest
	}
	if len(segs) == 3 {
		if segs[2] == "_explain" {
			rt.kind = routeExplain
		} else {
			pk, err := strconv.ParseInt(segs[2], 10, 64)
			if err != nil {
				return route{}, nil, errBadRequest
			}
			rt.pk, rt.hasPK = pk, true
		}
	}
	return rt, q, nil
}

// referenceParams is the url.Values-based queryParams the decoder
// replaced.
func referenceParams(q url.Values) (where string, columns []string, orderBy string, args []sqldb.Value) {
	where = q.Get("where")
	orderBy = q.Get("order")
	if cs := q.Get("columns"); cs != "" {
		for _, c := range strings.Split(cs, ",") {
			if c = strings.TrimSpace(c); c != "" {
				columns = append(columns, c)
			}
		}
	}
	for _, a := range q["arg"] {
		if n, err := strconv.ParseInt(a, 10, 64); err == nil {
			args = append(args, n)
		} else {
			args = append(args, a)
		}
	}
	return where, columns, orderBy, args
}

// isOriginForm is the origin-form rule restated for the fuzz target:
// one leading '/', no "//" prefix, no '#', no control byte.
func isOriginForm(target string) bool {
	return strings.HasPrefix(target, "/") && !strings.HasPrefix(target, "//") &&
		!strings.ContainsFunc(target, func(r rune) bool { return r == '#' || r < 0x20 || r == 0x7f })
}

// FuzzGatewayPath holds the request-target decoder to the url.Parse
// reference: on every origin-form target both fail or both yield the
// same route and parameters, and every other target is a 400. Accepted
// routes must also satisfy the shape invariants the dispatcher relies
// on.
func FuzzGatewayPath(f *testing.F) {
	for _, seed := range []string{
		"/v1/media/files", "/v1/media/files/42", "/v1/media/_schema",
		"/v1/media/files/_explain", "/v1/_fs/a/b", "/v1/_grant?uri=content://x/y",
		"/v1/downloads/my_downloads?where=status+%3D+%3F&arg=200&order=_id",
		"//v1//media//files//", "/v1/a/b/c/d", "/v1/%zz", "/v1/media/files/-9",
		"/v1/_fs/_schema", "/v1/_fs/a/_explain",
		"/v1/%6Dedia/files", "/v1/_fs/a%2Fb",
		"/v1/media/files%4", "/v1/media/files?where=%zz&arg=1", "/v1/media/files?wh%zere=x&arg=%2",
		"/v1/media/files?where=a+%2B+b", "/v1/media/files?where=a&where=b", "/v1/media/files?where=&where=b",
		"/v1/media/files?where=a;b&arg=1", "/v1/media/files?arg=1;arg=2&arg=3",
		"/v1/media/files?", "/v1/media/files??", "/v1/media/files?columns=_id,,+title,&%61rg=x",
		"v1/media/files", "///v1/media/files", "/v1/media/files#x", "//host/v1/media/files",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		rt, err := parseRoute(path)
		if err != nil && !errors.Is(err, errBadRequest) {
			t.Fatalf("%q: error %v is not a bad request", path, err)
		}
		if !isOriginForm(path) {
			if err == nil {
				t.Fatalf("accepted a target that is not origin form: %q -> %+v", path, rt)
			}
			return
		}
		ref, q, refErr := referenceRoute(path)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: decoder err=%v, reference err=%v", path, err, refErr)
		}
		if err != nil {
			return
		}
		if !sameRoute(rt, ref) {
			t.Fatalf("%q: decoder %+v, reference %+v", path, rt, ref)
		}
		where, columns, order, args := queryParams(&rt)
		rWhere, rColumns, rOrder, rArgs := referenceParams(q)
		if where != rWhere || order != rOrder || !slices.Equal(columns, rColumns) || !reflect.DeepEqual(args, rArgs) {
			t.Fatalf("%q: params %q %q %q %v, reference %q %q %q %v",
				path, where, columns, order, args, rWhere, rColumns, rOrder, rArgs)
		}
		switch rt.kind {
		case routeTable, routeExplain:
			if rt.authority == "" || rt.table == "" {
				t.Fatalf("accepted table route with empty fields: %q -> %+v", path, rt)
			}
			if strings.HasPrefix(rt.table, "_") {
				t.Fatalf("reserved table name leaked through: %q -> %+v", path, rt)
			}
		case routeSchema:
			if rt.authority == "" {
				t.Fatalf("schema route without authority: %q", path)
			}
		}
		if rt.hasPK && rt.kind != routeTable {
			t.Fatalf("pk on non-table route: %q -> %+v", path, rt)
		}
	})
}
