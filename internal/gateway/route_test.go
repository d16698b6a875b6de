package gateway

import (
	"strings"
	"testing"

	"maxoid/internal/kernel"
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
		{"/v1/_fs/sdcard/Download/a.bin", route{kind: routeFS}, true},
		// Paths a pattern mux finds ambiguous between the provider
		// routes and _fs: they are files.
		{"/v1/_fs/_schema", route{kind: routeFS}, true},
		{"/v1/_fs/a/_explain", route{kind: routeFS}, true},
		{"/v1/_grant", route{kind: routeGrant}, true},
		{"/v1/media/files?where=_id+%3D+%3F&arg=1", route{kind: routeTable, authority: "media", table: "files"}, true},
		{"/", route{}, false},
		{"/v1", route{}, false},
		{"/v2/media/files", route{}, false},
		{"/v1/media/files/abc", route{}, false},
		{"/v1/media/files/42/extra", route{}, false},
		{"/v1/media/_secret", route{}, false},
		{"/v1/_grant/extra", route{}, false},
	}
	for _, tc := range cases {
		got, err := parseRoute(tc.path)
		if (err == nil) != tc.ok {
			t.Errorf("parseRoute(%q): err=%v, want ok=%v", tc.path, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if got.kind != tc.want.kind || got.authority != tc.want.authority ||
			got.table != tc.want.table || got.pk != tc.want.pk || got.hasPK != tc.want.hasPK {
			t.Errorf("parseRoute(%q) = %+v, want %+v", tc.path, got, tc.want)
		}
	}
}

// FuzzGatewayPath fuzzes the URL path → route resolver: it must never
// panic, and every accepted route must satisfy the shape invariants the
// dispatcher relies on.
func FuzzGatewayPath(f *testing.F) {
	for _, seed := range []string{
		"/v1/media/files", "/v1/media/files/42", "/v1/media/_schema",
		"/v1/media/files/_explain", "/v1/_fs/a/b", "/v1/_grant?uri=content://x/y",
		"/v1/downloads/my_downloads?where=status+%3D+%3F&arg=200&order=_id",
		"//v1//media//files//", "/v1/a/b/c/d", "/v1/%zz", "/v1/media/files/-9",
		"/v1/_fs/_schema", "/v1/_fs/a/_explain",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		rt, err := parseRoute(path)
		if err != nil {
			return
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
