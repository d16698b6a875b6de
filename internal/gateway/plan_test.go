package gateway_test

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"testing"

	"maxoid/internal/intent"
	"maxoid/internal/sqldb"
	"maxoid/internal/testutil"
)

// TestRangeReadsUseProbes: the two range reads a syncing device sends —
// a 20-row _id range on words and a date_added window on the images
// user view — reach every base table through the primary key or the
// (media_type, date_added) index, never a scan or a materialized view,
// for an initiator (primary tables) and for its delegate (COW views,
// merged down to the primary and delta arms).
func TestRangeReadsUseProbes(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s := bootGateway(t)
	defer s.Shutdown()
	if _, err := s.Launch("appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LaunchAsDelegate("viewer", "appA", intent.Intent{}); err != nil {
		t.Fatal(err)
	}

	// 200 rows per table; every fourth file is audio, the rest images.
	const rows = 200
	var words, files strings.Builder
	words.WriteString("INSERT INTO words (_id, word, frequency, locale, appid) VALUES ")
	files.WriteString("INSERT INTO files (_id, _data, media_type, title, size, date_added) VALUES ")
	for id := 1; id <= rows; id++ {
		sep := ", "
		if id == rows {
			sep = ""
		}
		mtype := 1
		if id%4 == 0 {
			mtype = 2
		}
		fmt.Fprintf(&words, "(%d, 'w%d', %d, 'en', 0)%s", id, id, id%97, sep)
		fmt.Fprintf(&files, "(%d, '/sdcard/p%d.jpg', %d, 't%d', 1000, %d)%s", id, id, mtype, id, 1000+10*id, sep)
	}
	if _, err := s.UserDict.Proxy().DB().Exec(words.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Media.Proxy().DB().Exec(files.String()); err != nil {
		t.Fatal(err)
	}
	// The delegate's writes give appA's deltas 24 rows, as many as a
	// benchmark initiator's three delegates leave there.
	hot := make([]sqldb.Value, 24)
	for i := range hot {
		hot[i] = int64(1 + 8*i)
	}
	in := "_id IN (?" + strings.Repeat(", ?", len(hot)-1) + ")"
	if _, err := s.UserDict.Proxy().For("appA").Update("words", map[string]sqldb.Value{"word": "d"}, in, hot...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Media.Proxy().For("appA").Update("files", map[string]sqldb.Value{"title": "d"}, in, hot...); err != nil {
		t.Fatal(err)
	}

	reads := []struct {
		path   string
		query  url.Values
		search []string // tables that must be searched, by identity kind
	}{
		{"/v1/user_dictionary/words/_explain", url.Values{
			"columns": {"_id,word,frequency"}, "order": {"_id"},
			"where": {"_id >= ? AND _id < ?"}, "arg": {"41", "61"},
		}, []string{"words", "words_delta_appA"}},
		{"/v1/media/images/_explain", url.Values{
			"columns": {"_id,title,date_added"}, "order": {"date_added"},
			"where": {"date_added >= ? AND date_added < ?"}, "arg": {"1410", "1610"},
		}, []string{"files", "files_delta_appA"}},
	}
	for _, r := range reads {
		for _, who := range []string{"u0:appA", "u0:viewer^appA"} {
			resp, err := s.GatewayRequest(who, "GET", r.path+"?"+r.query.Encode(), nil)
			if err != nil || resp.Status != 200 {
				t.Fatalf("%s as %s: %v %d %s", r.path, who, err, resp.Status, resp.Body)
			}
			var plan struct {
				Rows [][]string `json:"rows"`
			}
			if err := json.Unmarshal(resp.Body, &plan); err != nil {
				t.Fatal(err)
			}
			searched := map[string]bool{}
			for _, row := range plan.Rows {
				table, detail := row[0], row[1]
				if strings.HasPrefix(detail, "SCAN") || strings.HasPrefix(detail, "MATERIALIZE") {
					t.Errorf("%s as %s: %s", r.path, who, detail)
				}
				if strings.HasPrefix(detail, "SEARCH "+table+" USING PRIMARY KEY (_id>=? AND _id<?)") ||
					strings.HasPrefix(detail, "SEARCH "+table+" USING ORDERED INDEX") && strings.Contains(detail, "(media_type=? AND date_added>=? AND date_added<?)") {
					searched[table] = true
				}
			}
			want := r.search[:1]
			if strings.Contains(who, "^") {
				want = r.search
			}
			for _, table := range want {
				if !searched[table] {
					t.Errorf("%s as %s: %s not searched by a probe: %v", r.path, who, table, plan.Rows)
				}
			}
		}
	}
}
