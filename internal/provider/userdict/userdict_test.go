package userdict

import (
	"testing"

	"maxoid/internal/kernel"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
)

var (
	initiatorA = provider.Caller{Task: kernel.Task{App: "appA"}}
	delegateBA = provider.Caller{Task: kernel.Task{App: "appB", Initiator: "appA"}}
	otherAppX  = provider.Caller{Task: kernel.Task{App: "appX"}}
)

func mustURI(t *testing.T, s string) provider.URI {
	t.Helper()
	u, err := provider.ParseURI(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func newProvider(t *testing.T) *Provider {
	t.Helper()
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInsertAndQueryPublic(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	uri, err := p.Insert(initiatorA, words, provider.Values{"word": "hello", "frequency": int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := uri.ID(); !ok || id != 1 {
		t.Errorf("insert URI: %v", uri)
	}
	rows, err := p.Query(otherAppX, words, []string{"word"}, "", "")
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != "hello" {
		t.Errorf("public query from another app: %v, %v", rows, err)
	}
}

func TestSingleWordURI(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	for _, w := range []string{"a", "b", "c"} {
		if _, err := p.Insert(initiatorA, words, provider.Values{"word": w}); err != nil {
			t.Fatal(err)
		}
	}
	one := mustURI(t, WordsURI+"/2")
	rows, err := p.Query(initiatorA, one, []string{"word"}, "", "")
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != "b" {
		t.Errorf("query by id: %v, %v", rows, err)
	}
	n, err := p.Update(initiatorA, one, provider.Values{"frequency": int64(9)}, "")
	if err != nil || n != 1 {
		t.Errorf("update by id: %d, %v", n, err)
	}
	n, err = p.Delete(initiatorA, one, "")
	if err != nil || n != 1 {
		t.Errorf("delete by id: %d, %v", n, err)
	}
	rows, _ = p.Query(initiatorA, words, []string{"word"}, "", "word")
	if len(rows.Data) != 2 {
		t.Errorf("after delete: %v", rows.Data)
	}
}

func TestDelegateWritesAreVolatile(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	if _, err := p.Insert(initiatorA, words, provider.Values{"word": "public"}); err != nil {
		t.Fatal(err)
	}
	// Delegate adds a word it learned from A's private data.
	if _, err := p.Insert(delegateBA, words, provider.Values{"word": "secretterm"}); err != nil {
		t.Fatal(err)
	}
	// Delegate sees both (read-your-writes, U3).
	rows, _ := p.Query(delegateBA, words, []string{"word"}, "", "word")
	if len(rows.Data) != 2 {
		t.Errorf("delegate view: %v", rows.Data)
	}
	// Other apps see only the public word (S1).
	rows, _ = p.Query(otherAppX, words, []string{"word"}, "", "")
	if len(rows.Data) != 1 || rows.Data[0][0] != "public" {
		t.Errorf("leak to other app: %v", rows.Data)
	}
	// The initiator sees it via the volatile URI.
	vol := mustURI(t, VolatileWordsURI)
	rows, err := p.Query(initiatorA, vol, nil, "", "")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("volatile URI: %v, %v", rows, err)
	}
}

func TestDelegateUpdateCopyOnWrite(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	if _, err := p.Insert(initiatorA, words, provider.Values{"word": "orig", "frequency": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Update(delegateBA, mustURI(t, WordsURI+"/1"), provider.Values{"word": "edited"}, ""); err != nil {
		t.Fatal(err)
	}
	rows, _ := p.Query(otherAppX, words, []string{"word"}, "", "")
	if rows.Data[0][0] != "orig" {
		t.Errorf("public record mutated: %v", rows.Data)
	}
	rows, _ = p.Query(delegateBA, words, []string{"word"}, "", "")
	if rows.Data[0][0] != "edited" {
		t.Errorf("delegate does not read its write: %v", rows.Data)
	}
}

func TestVolatileInsertByInitiator(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	uri, err := p.Insert(initiatorA, words, provider.Values{"word": "incognito", provider.IsVolatileKey: true})
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := uri.ID(); id < 10000001 {
		t.Errorf("volatile record id = %v", uri)
	}
	// Public view empty; A's delegates see it.
	rows, _ := p.Query(otherAppX, words, []string{"word"}, "", "")
	if len(rows.Data) != 0 {
		t.Errorf("volatile leaked to public: %v", rows.Data)
	}
	rows, _ = p.Query(delegateBA, words, []string{"word"}, "", "")
	if len(rows.Data) != 1 {
		t.Errorf("delegate missing initiator volatile record: %v", rows.Data)
	}
	// Clear-Vol wipes it.
	if err := p.Proxy().DiscardVolatile("appA"); err != nil {
		t.Fatal(err)
	}
	rows, _ = p.Query(delegateBA, words, []string{"word"}, "", "")
	if len(rows.Data) != 0 {
		t.Errorf("volatile record survived clear: %v", rows.Data)
	}
}

func TestVolatileURIUpdateDelete(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	if _, err := p.Insert(delegateBA, words, provider.Values{"word": "v1"}); err != nil {
		t.Fatal(err)
	}
	vol := mustURI(t, VolatileWordsURI)
	n, err := p.Update(initiatorA, vol, provider.Values{"word": "v2"}, "word = ?", "v1")
	if err != nil || n != 1 {
		t.Fatalf("volatile update: %d, %v", n, err)
	}
	rows, _ := p.Query(initiatorA, vol, nil, "", "")
	found := false
	for _, row := range rows.Data {
		for _, v := range row {
			if sqldb.AsString(v) == "v2" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("volatile update not visible: %v", rows.Data)
	}
	if _, err := p.Delete(initiatorA, vol, ""); err != nil {
		t.Fatal(err)
	}
}

func TestBadURIs(t *testing.T) {
	p := newProvider(t)
	bad := mustURI(t, "content://user_dictionary/bogus")
	if _, err := p.Query(initiatorA, bad, nil, "", ""); err == nil {
		t.Error("bogus path should fail")
	}
	if _, err := p.Insert(initiatorA, bad, provider.Values{"word": "x"}); err == nil {
		t.Error("bogus insert should fail")
	}
}

// TestUpdateStripsIsVolatile: isVolatile in an update's values is the
// insert flag, not a column. The update succeeds in the view the URI
// selects, as it does in Media and Downloads.
func TestUpdateStripsIsVolatile(t *testing.T) {
	p := newProvider(t)
	words := mustURI(t, WordsURI)
	if _, err := p.Insert(initiatorA, words, provider.Values{"word": "w"}); err != nil {
		t.Fatal(err)
	}
	for i, c := range []provider.Caller{initiatorA, delegateBA} {
		n, err := p.Update(c, words, provider.Values{"frequency": int64(i + 5), provider.IsVolatileKey: true}, "word = ?", "w")
		if err != nil || n != 1 {
			t.Fatalf("update as %v: %d, %v", c.Task, n, err)
		}
		rows, err := p.Query(c, words, []string{"frequency"}, "", "")
		if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != int64(i+5) {
			t.Errorf("%v reads %v, %v after its update", c.Task, rows, err)
		}
	}
	rows, _ := p.Query(otherAppX, words, []string{"frequency"}, "", "")
	if len(rows.Data) != 1 || rows.Data[0][0] != int64(5) {
		t.Errorf("public row after the initiator's update: %v", rows)
	}
}
