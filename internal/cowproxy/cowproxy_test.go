package cowproxy

import (
	"testing"

	"maxoid/internal/sqldb"
)

// newWordsProxy builds a User-Dictionary-shaped proxy with n rows.
func newWordsProxy(t *testing.T, n int) *Proxy {
	t.Helper()
	db := sqldb.Open()
	if _, err := db.Exec("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER)"); err != nil {
		t.Fatal(err)
	}
	p := New(db)
	if err := p.RegisterTable("words"); err != nil {
		t.Fatal(err)
	}
	pub := p.For("")
	for i := 0; i < n; i++ {
		if _, err := pub.Insert("words", map[string]sqldb.Value{
			"word": "w" + string(rune('a'+i%26)), "frequency": int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestInitiatorOperatesOnPrimary(t *testing.T) {
	p := newWordsProxy(t, 3)
	pub := p.For("")
	rows, err := pub.Query("words", []string{"_id", "word"}, "", "_id")
	if err != nil || len(rows.Data) != 3 {
		t.Fatalf("query: %v, %v", rows, err)
	}
	if _, err := pub.Update("words", map[string]sqldb.Value{"frequency": int64(99)}, "_id = ?", 1); err != nil {
		t.Fatal(err)
	}
	v, _ := p.DB().QueryScalar("SELECT frequency FROM words WHERE _id = 1")
	if v != int64(99) {
		t.Errorf("primary update: %v", v)
	}
	if p.HasDelta("words", "") {
		t.Error("initiator ops should not create deltas")
	}
}

func TestDelegateCopyOnWriteUpdate(t *testing.T) {
	p := newWordsProxy(t, 3)
	del := p.For("email")

	n, err := del.Update("words", map[string]sqldb.Value{"word": "EDITED"}, "_id = ?", 2)
	if err != nil || n != 1 {
		t.Fatalf("delegate update: %d, %v", n, err)
	}
	// Primary table untouched (S2).
	v, _ := p.DB().QueryScalar("SELECT word FROM words WHERE _id = 2")
	if v == "EDITED" {
		t.Error("delegate update mutated primary table")
	}
	// Delegate reads its own write with the original name (U3).
	rows, err := del.Query("words", []string{"word"}, "_id = ?", "", 2)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != "EDITED" {
		t.Errorf("delegate view: %v, %v", rows, err)
	}
	// Delta exists for the initiator.
	if !p.HasDelta("words", "email") {
		t.Error("delta not created on demand")
	}
}

func TestDelegateDeleteIsWhiteout(t *testing.T) {
	p := newWordsProxy(t, 3)
	del := p.For("email")
	if _, err := del.Delete("words", "_id = ?", 1); err != nil {
		t.Fatal(err)
	}
	// Gone from the delegate's view.
	rows, _ := del.Query("words", []string{"_id"}, "", "_id")
	if len(rows.Data) != 2 {
		t.Errorf("delegate sees %d rows, want 2", len(rows.Data))
	}
	// Still in the primary table.
	n, _ := p.DB().QueryScalar("SELECT COUNT(*) FROM words")
	if n != int64(3) {
		t.Errorf("primary count = %v, want 3", n)
	}
	// Volatile state records the whiteout.
	vol, err := p.QueryVolatile("words", "email", "_whiteout = 1")
	if err != nil || len(vol.Data) != 1 {
		t.Errorf("whiteout records: %v, %v", vol, err)
	}
}

func TestDelegateInsertKeysStartAtN(t *testing.T) {
	p := newWordsProxy(t, 3)
	del := p.For("email")
	id, err := del.Insert("words", map[string]sqldb.Value{"word": "new", "frequency": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if id != DeltaKeyBase {
		t.Errorf("first delegate insert id = %d, want %d", id, DeltaKeyBase)
	}
	id2, err := del.Insert("words", map[string]sqldb.Value{"word": "new2", "frequency": int64(2)})
	if err != nil || id2 != DeltaKeyBase+1 {
		t.Errorf("second delegate insert id = %d, %v", id2, err)
	}
	// Both visible in the delegate's view alongside public rows.
	rows, _ := del.Query("words", []string{"_id"}, "", "_id")
	if len(rows.Data) != 5 {
		t.Errorf("delegate view rows = %d, want 5", len(rows.Data))
	}
	// Not visible to initiators via normal names.
	n, _ := p.DB().QueryScalar("SELECT COUNT(*) FROM words")
	if n != int64(3) {
		t.Errorf("primary rows = %v, want 3", n)
	}
}

func TestPerInitiatorIsolation(t *testing.T) {
	p := newWordsProxy(t, 2)
	delA := p.For("appA")
	delB := p.For("appB")
	if _, err := delA.Update("words", map[string]sqldb.Value{"word": "forA"}, "_id = 1"); err != nil {
		t.Fatal(err)
	}
	// B's view is unaffected by A's volatile state.
	rows, _ := delB.Query("words", []string{"word"}, "_id = 1", "")
	if rows.Data[0][0] == "forA" {
		t.Error("initiator B's delegates see initiator A's volatile state")
	}
	// A's delegates all share the same view.
	delA2 := p.For("appA")
	rows, _ = delA2.Query("words", []string{"word"}, "_id = 1", "")
	if rows.Data[0][0] != "forA" {
		t.Error("same-initiator delegates do not share volatile state")
	}
}

func TestUnilateralCOW(t *testing.T) {
	// Initiator updates are visible to delegates until the delegate
	// touches that row (per-name unilateral copy-on-write, §3.3).
	p := newWordsProxy(t, 2)
	del := p.For("appA")
	pub := p.For("")

	// Delegate copies row 1 by updating it.
	if _, err := del.Update("words", map[string]sqldb.Value{"word": "mine"}, "_id = 1"); err != nil {
		t.Fatal(err)
	}
	// Initiator updates both rows.
	if _, err := pub.Update("words", map[string]sqldb.Value{"word": "theirs"}, ""); err != nil {
		t.Fatal(err)
	}
	rows, _ := del.Query("words", []string{"_id", "word"}, "", "_id")
	if rows.Data[0][1] != "mine" {
		t.Errorf("row 1 should show the volatile copy: %v", rows.Data[0])
	}
	if rows.Data[1][1] != "theirs" {
		t.Errorf("row 2 should show the initiator's update (U2): %v", rows.Data[1])
	}
}

func TestVolatileURIsAndDiscard(t *testing.T) {
	p := newWordsProxy(t, 2)
	del := p.For("appA")
	if _, err := del.Update("words", map[string]sqldb.Value{"word": "x"}, "_id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := del.Insert("words", map[string]sqldb.Value{"word": "y", "frequency": int64(0)}); err != nil {
		t.Fatal(err)
	}
	vol, err := p.QueryVolatile("words", "appA", "")
	if err != nil || len(vol.Data) != 2 {
		t.Fatalf("volatile rows = %v, %v", vol, err)
	}
	if err := p.DiscardVolatile("appA"); err != nil {
		t.Fatal(err)
	}
	vol, err = p.QueryVolatile("words", "appA", "")
	if err != nil || len(vol.Data) != 0 {
		t.Errorf("after discard: %v, %v", vol, err)
	}
	// Delegate view falls back to public rows.
	rows, _ := del.Query("words", []string{"word"}, "_id = 1", "")
	if rows.Data[0][0] == "x" {
		t.Error("volatile row survived discard")
	}
	// Discarding an initiator with no volatile state is a no-op.
	if err := p.DiscardVolatile("nobody"); err != nil {
		t.Errorf("empty discard: %v", err)
	}
}

// TestInsertVolatileByInitiator: an initiator writes its own volatile
// state through its delegates' connection, For(initiator).
func TestInsertVolatileByInitiator(t *testing.T) {
	p := newWordsProxy(t, 1)
	id, err := p.For("browser").Insert("words", map[string]sqldb.Value{"word": "incognito", "frequency": int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if id < DeltaKeyBase {
		t.Errorf("volatile insert id = %d", id)
	}
	// Public view does not include it.
	rows, _ := p.For("").Query("words", []string{"word"}, "", "")
	if len(rows.Data) != 1 {
		t.Errorf("public rows = %d, want 1", len(rows.Data))
	}
	// Browser's delegates see it.
	rows, _ = p.For("browser").Query("words", []string{"word"}, "word = 'incognito'", "")
	if len(rows.Data) != 1 {
		t.Error("delegate cannot see initiator's volatile record")
	}
}

func TestAdminView(t *testing.T) {
	p := newWordsProxy(t, 2)
	del := p.For("appA")
	if _, err := del.Update("words", map[string]sqldb.Value{"word": "volatile-row"}, "_id = 1"); err != nil {
		t.Fatal(err)
	}
	rows, err := p.QueryAdmin("words", "")
	if err != nil {
		t.Fatal(err)
	}
	var public, volatile int
	originIdx := indexOfFold(rows.Columns, "_origin")
	if originIdx < 0 {
		t.Fatalf("admin view columns: %v", rows.Columns)
	}
	for _, row := range rows.Data {
		if sqldb.AsString(row[originIdx]) == "" {
			public++
		} else if sqldb.AsString(row[originIdx]) == "appA" {
			volatile++
		}
	}
	if public != 2 || volatile != 1 {
		t.Errorf("admin view: public=%d volatile=%d", public, volatile)
	}
	// Admin view works with no deltas at all.
	p2 := newWordsProxy(t, 1)
	rows, err = p2.QueryAdmin("words", "")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("admin without deltas: %v, %v", rows, err)
	}
}

func TestUserDefinedViewHierarchy(t *testing.T) {
	// Media-style: files base table; images view; recent_images view on
	// top of images (a view over a view, Figure 5).
	db := sqldb.Open()
	if _, err := db.Exec("CREATE TABLE files (_id INTEGER PRIMARY KEY, media_type INTEGER, title TEXT, date_added INTEGER)"); err != nil {
		t.Fatal(err)
	}
	p := New(db)
	if err := p.RegisterTable("files"); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterUserView("images", "SELECT _id, title, date_added FROM files WHERE media_type = 1"); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterUserView("recent_images", "SELECT _id, title FROM images WHERE date_added > 100"); err != nil {
		t.Fatal(err)
	}
	pub := p.For("")
	for i, f := range []struct {
		mt    int64
		title string
		date  int64
	}{{1, "old.jpg", 50}, {1, "new.jpg", 200}, {2, "song.mp3", 300}} {
		if _, err := pub.Insert("files", map[string]sqldb.Value{
			"media_type": f.mt, "title": f.title, "date_added": f.date,
		}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// Public hierarchy works.
	rows, err := pub.Query("recent_images", []string{"title"}, "", "")
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != "new.jpg" {
		t.Fatalf("public recent_images: %v, %v", rows, err)
	}

	// Delegate inserts an image; it must appear through the COW views of
	// both levels of the hierarchy.
	del := p.For("camera")
	if _, err := del.Insert("files", map[string]sqldb.Value{
		"media_type": int64(1), "title": "private.jpg", "date_added": int64(500),
	}); err != nil {
		t.Fatal(err)
	}
	rows, err = del.Query("recent_images", []string{"title"}, "", "title")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 || rows.Data[0][0] != "new.jpg" || rows.Data[1][0] != "private.jpg" {
		t.Errorf("delegate recent_images: %v", rows.Data)
	}
	// Public view of the hierarchy is unaffected.
	rows, _ = pub.Query("recent_images", []string{"title"}, "", "")
	if len(rows.Data) != 1 {
		t.Errorf("public hierarchy polluted: %v", rows.Data)
	}
	// Discard removes the whole per-initiator view hierarchy.
	if err := p.DiscardVolatile("camera"); err != nil {
		t.Fatal(err)
	}
	rows, err = del.Query("recent_images", []string{"title"}, "", "")
	if err != nil || len(rows.Data) != 1 {
		t.Errorf("after discard: %v, %v", rows, err)
	}
}

func TestUnknownTableErrors(t *testing.T) {
	p := New(sqldb.Open())
	if _, err := p.For("").Query("nope", nil, "", ""); err == nil {
		t.Error("query unknown table should fail")
	}
	if _, err := p.For("x").Insert("nope", nil); err == nil {
		t.Error("insert unknown table should fail")
	}
	if err := p.RegisterTable("nope"); err == nil {
		t.Error("register unknown table should fail")
	}
	if err := p.RegisterUserView("v", "SELECT * FROM nope"); err == nil {
		t.Error("register view with unknown dep should fail")
	}
}

// TestFootnote5Workaround: querying a COW view with ORDER BY on a
// non-selected column still flattens because the proxy adds the ORDER BY
// column to the query columns and strips it from the result.
func TestFootnote5Workaround(t *testing.T) {
	p := newWordsProxy(t, 5)
	del := p.For("appA")
	// Force delta creation so the COW view exists.
	if _, err := del.Update("words", map[string]sqldb.Value{"word": "zz"}, "_id = 1"); err != nil {
		t.Fatal(err)
	}
	before := p.DB().Stats()
	rows, err := del.Query("words", []string{"word"}, "", "frequency DESC")
	if err != nil {
		t.Fatal(err)
	}
	after := p.DB().Stats()
	if len(rows.Columns) != 1 || rows.Columns[0] != "word" {
		t.Errorf("extra ORDER BY column leaked into result: %v", rows.Columns)
	}
	if after.FlattenedQueries != before.FlattenedQueries+1 {
		t.Errorf("workaround did not flatten: %+v -> %+v", before, after)
	}
	if len(rows.Data) != 5 {
		t.Errorf("rows = %d, want 5", len(rows.Data))
	}
}
