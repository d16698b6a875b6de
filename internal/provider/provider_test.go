package provider

import (
	"errors"
	"strconv"
	"testing"

	"maxoid/internal/binder"
	"maxoid/internal/kernel"
	"maxoid/internal/sqldb"
)

func TestParseURI(t *testing.T) {
	cases := []struct {
		in        string
		authority string
		segs      int
		id        int64
		hasID     bool
		volatile  bool
	}{
		{"content://user_dictionary/words", "user_dictionary", 1, 0, false, false},
		{"content://user_dictionary/words/5", "user_dictionary", 2, 5, true, false},
		{"content://user_dictionary/tmp/words/7", "user_dictionary", 3, 7, true, true},
		{"content://media/files", "media", 1, 0, false, false},
	}
	for _, tc := range cases {
		u, err := ParseURI(tc.in)
		if err != nil {
			t.Fatalf("ParseURI(%s): %v", tc.in, err)
		}
		if u.Authority != tc.authority || len(u.Segments) != tc.segs {
			t.Errorf("%s: parsed %+v", tc.in, u)
		}
		id, ok := u.ID()
		if ok != tc.hasID || (ok && id != tc.id) {
			t.Errorf("%s: ID = %d, %v", tc.in, id, ok)
		}
		if u.IsVolatile() != tc.volatile {
			t.Errorf("%s: IsVolatile = %v", tc.in, u.IsVolatile())
		}
		if u.String() != tc.in {
			t.Errorf("round trip: %s -> %s", tc.in, u.String())
		}
	}
	for _, bad := range []string{"http://x/y", "content://", "words/5"} {
		if _, err := ParseURI(bad); !errors.Is(err, ErrBadURI) {
			t.Errorf("ParseURI(%q) = %v, want ErrBadURI", bad, err)
		}
	}
}

func TestURIPathStripsTmpAndID(t *testing.T) {
	u, _ := ParseURI("content://downloads/tmp/my_downloads/12")
	p := u.Path()
	if len(p) != 1 || p[0] != "my_downloads" {
		t.Errorf("Path = %v", p)
	}
	u2 := u.WithID(99)
	if id, ok := u2.ID(); !ok || id != 99 {
		t.Errorf("WithID: %v", u2)
	}
}

// TestURIID: ID answers as strconv.ParseInt on the last segment does,
// including for segments it rejects without parsing.
func TestURIID(t *testing.T) {
	for _, tc := range []struct {
		seg  string
		id   int64
		isID bool
	}{
		{"words", 0, false},
		{"12", 12, true},
		{"007", 7, true},
		{"-5", -5, true},
		{"+7", 7, true},
		{"1e3", 0, false},
		{"", 0, false},
		{"99999999999999999999", 0, false},
	} {
		id, ok := URI{Authority: "a", Segments: []string{"words", tc.seg}}.ID()
		if id != tc.id || ok != tc.isID {
			t.Errorf("ID of %q = %d, %v; want %d, %v", tc.seg, id, ok, tc.id, tc.isID)
		}
		n, err := strconv.ParseInt(tc.seg, 10, 64)
		if ok != (err == nil) || (ok && n != id) {
			t.Errorf("ID of %q = %d, %v; ParseInt gives %d, %v", tc.seg, id, ok, n, err)
		}
	}
	if id, ok := (URI{Authority: "a"}).ID(); id != 0 || ok {
		t.Errorf("ID with no segments = %d, %v", id, ok)
	}
}

func TestViewOf(t *testing.T) {
	initiator := Caller{Task: kernel.Task{App: "a"}}
	delegate := Caller{Task: kernel.Task{App: "b", Initiator: "a"}}
	for _, tc := range []struct {
		c        Caller
		volatile bool
		want     View
	}{
		{initiator, false, View{}},
		{initiator, true, View{Initiator: "a", Own: true}},
		{delegate, false, View{Initiator: "a"}},
		{delegate, true, View{Initiator: "a"}},
	} {
		if got := ViewOf(tc.c, tc.volatile); got != tc.want {
			t.Errorf("ViewOf(%v, %v) = %+v, want %+v", tc.c.Task, tc.volatile, got, tc.want)
		}
	}
}

// fakeProvider records calls for registry/resolver testing.
type fakeProvider struct {
	lastOp string
}

func (f *fakeProvider) Authority() string { return "fake" }

func (f *fakeProvider) Insert(c Caller, uri URI, values Values) (URI, error) {
	f.lastOp = "insert"
	return uri.WithID(42), nil
}

func (f *fakeProvider) Update(c Caller, uri URI, values Values, where string, args ...sqldb.Value) (int64, error) {
	f.lastOp = "update"
	return 3, nil
}

func (f *fakeProvider) Delete(c Caller, uri URI, where string, args ...sqldb.Value) (int64, error) {
	f.lastOp = "delete"
	return 1, nil
}

func (f *fakeProvider) Query(c Caller, uri URI, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	f.lastOp = "query"
	return &sqldb.Rows{Columns: []string{"x"}, Data: [][]sqldb.Value{{int64(1)}}}, nil
}

func TestRegistryAndResolver(t *testing.T) {
	router := binder.NewRouter()
	reg := NewRegistry(router)
	fake := &fakeProvider{}
	reg.Register(fake)

	res := NewResolver(router, Caller{Task: kernel.Task{App: "client"}})
	uri, err := res.Insert("content://fake/things", Values{"a": int64(1)})
	if err != nil || uri != "content://fake/things/42" {
		t.Errorf("Insert: %q, %v", uri, err)
	}
	n, err := res.Update("content://fake/things/42", Values{"a": int64(2)}, "")
	if err != nil || n != 3 {
		t.Errorf("Update: %d, %v", n, err)
	}
	n, err = res.Delete("content://fake/things/42", "")
	if err != nil || n != 1 {
		t.Errorf("Delete: %d, %v", n, err)
	}
	rows, err := res.Query("content://fake/things", nil, "", "")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("Query: %v, %v", rows, err)
	}
	if _, ok := reg.Provider("fake"); !ok {
		t.Error("registry lookup failed")
	}
	// The resolver takes the authority without parsing the path, but
	// rejects what ParseURI rejects, with the same error.
	for _, bad := range []string{"http://fake/things", "content://", "content:///things"} {
		_, want := ParseURI(bad)
		if _, err := res.Query(bad, nil, "", ""); !errors.Is(err, ErrBadURI) || err.Error() != want.Error() {
			t.Errorf("Query(%q): %v, want %v", bad, err, want)
		}
	}
}

// TestURIAllocs: ParseURI allocates one segment slice, and Path shares
// it unless a "tmp" segment has to be dropped.
func TestURIAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseURI("content://media/files/42") }); n > 1 {
		t.Errorf("ParseURI: %.0f allocs, want <= 1", n)
	}
	u, _ := ParseURI("content://media/files/42")
	if n := testing.AllocsPerRun(100, func() { _ = u.Path() }); n != 0 {
		t.Errorf("Path without tmp: %.0f allocs, want 0", n)
	}
	p := u.Path()
	if len(p) != 1 || cap(p) != 1 || &p[0] != &u.Segments[0] {
		t.Errorf("Path = %q (cap %d), want a clipped view of %q", p, cap(p), u.Segments)
	}
	if p = append(p, "x"); u.Segments[1] != "42" {
		t.Errorf("appending to Path overwrote Segments: %q", u.Segments)
	}
}

// TestResolverReachableByDelegates checks providers register as system
// endpoints so the kernel Binder policy admits delegates.
func TestResolverReachableByDelegates(t *testing.T) {
	router := binder.NewRouter()
	reg := NewRegistry(router)
	reg.Register(&fakeProvider{})
	delegate := Caller{Task: kernel.Task{App: "b", Initiator: "a"}}
	res := NewResolver(router, delegate)
	if _, err := res.Query("content://fake/things", nil, "", ""); err != nil {
		t.Errorf("delegate query via binder: %v", err)
	}
}

func TestValuesClone(t *testing.T) {
	v := Values{"a": int64(1), IsVolatileKey: true}
	c := v.Clone(IsVolatileKey)
	if _, ok := c[IsVolatileKey]; ok {
		t.Error("Clone did not drop key")
	}
	c["a"] = int64(9)
	if v["a"] != int64(1) {
		t.Error("Clone shares storage with original")
	}
}
