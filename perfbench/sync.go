package main

// The two remote workloads: provider traffic through
// core.System.GatewayRequest from a fleet of initiator and delegate
// identities, each checked against a row-level model of the primary
// tables and of every initiator's delta.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/cowproxy"
	"maxoid/internal/health"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/mount"
	"maxoid/internal/netstack"
	"maxoid/internal/sqldb"
	"maxoid/internal/unionfs"
	"maxoid/internal/wal"
)

// Operation kinds of the remote mixes.
const (
	opGetWord    = iota // GET /v1/user_dictionary/words/{pk}
	opGetFile           // GET /v1/media/files/{pk}
	opScanLit           // 20-row _id range on words, bounds as literals in where
	opScanArg           // the same range with the bounds as arg= placeholders
	opScanImages        // date_added window on the media/images user view
	opPutWord           // PUT /v1/user_dictionary/words/{pk}
	opPutFile           // PUT /v1/media/files/{pk}
	opChurn             // POST /v1/media/files, alternating with DELETE of the oldest
	numSyncOps
)

// syncParams sizes one remote workload.
type syncParams struct {
	initiators  int
	delegsPer   int // delegate identities per initiator
	rows        int // preloaded rows in words and in files
	hotPerDeleg int // rows per delegate copied into its initiator's delta at set-up
	durable     bool

	// mix is one deck of operation kinds: each client deals them in a
	// seeded shuffled order, so every window runs the exact proportions.
	mix [numSyncOps]int

	// checkpointEvery is the number of acknowledged writes after which
	// the acknowledging client calls System.Checkpoint (0: never).
	checkpointEvery int
	// churnQueue is how many POSTed rows each client keeps live; POST
	// and DELETE alternate around it, so row counts stay constant.
	churnQueue int
	warmupOps  int // operations per client before the window
}

// sync-read: 45% point GETs, 25% range scans (half literal, half
// arg=), 20% media/images windows, 10% PUTs of the caller's own rows.
var syncReadParams = syncParams{
	initiators: 16, delegsPer: 3, rows: 4096, hotPerDeleg: 8,
	mix:       [numSyncOps]int{opGetWord: 14, opGetFile: 4, opScanLit: 5, opScanArg: 5, opScanImages: 8, opPutWord: 4},
	warmupOps: 1500,
}

// sync-write: 20% point GETs, 10% range scans, 40% PUTs, 30% churn
// (POST and DELETE in equal parts).
var syncWriteParams = syncParams{
	initiators: 64, delegsPer: 3, rows: 4096, hotPerDeleg: 4, durable: true,
	mix:             [numSyncOps]int{opGetWord: 3, opGetFile: 1, opScanArg: 2, opPutWord: 4, opPutFile: 4, opChurn: 6},
	checkpointEvery: 1000, churnQueue: 16, warmupOps: 600,
}

// tinyScale shrinks a workload for the self-test.
func (p syncParams) tinyScale() syncParams {
	p.initiators, p.rows, p.hotPerDeleg, p.warmupOps = 4, 256, 2, 50
	if p.checkpointEvery > 0 {
		p.checkpointEvery = 40
	}
	if p.churnQueue > 0 {
		p.churnQueue = 2
	}
	return p
}

const (
	scanRows  = 20 // rows per range scan
	mediaBase = 1_000_000
	imageType = 1 // media.MediaTypeImage
	audioType = 2 // media.MediaTypeAudio
)

type wordRow struct {
	word string
	freq int64
}

type fileRow struct {
	title string
	date  int64
	mtype int64
}

// part is one initiator's share of the rows, with the model of the
// primary tables and of the initiator's delta. Only the owning client
// touches it while the window runs.
type part struct {
	init   string
	lo, hi int64 // row ids [lo, hi]
	words  map[int64]wordRow
	wdelta map[int64]wordRow
	files  map[int64]fileRow
	fdelta map[int64]fileRow
}

func (p *part) word(id int64, deleg bool) wordRow {
	if deleg {
		if r, ok := p.wdelta[id]; ok {
			return r
		}
	}
	return p.words[id]
}

func (p *part) file(id int64, deleg bool) fileRow {
	if deleg {
		if r, ok := p.fdelta[id]; ok {
			return r
		}
	}
	return p.files[id]
}

// ident is one remote identity: an initiator, or a delegate of one.
type ident struct {
	token string
	task  kernel.Task
	deleg bool
	part  *part
	hot   []int64 // a delegate's rows in its initiator's delta
	slot  *slot   // trace stamps, nil when untraced
}

// churnRow is a POSTed media row a client keeps live until it deletes it.
type churnRow struct {
	id  int64
	by  *ident
	row fileRow
}

// syncClient is one closed-loop client and the identities it owns.
type syncClient struct {
	idx    int
	rng    *rand.Rand
	ops    *deck // operation kinds
	who    *deck // indexes into idents
	idents []*ident
	inits  []*ident
	seq    int64
	fifo   []churnRow

	// Since the end of set-up:
	writes   int64 // acknowledged writes
	payload  int64 // bytes of acknowledged write requests
	ckptBusy int64 // checkpoints deferred with wal.ErrBusy
	ckpt     latencies
	spans    []reqSpan
}

// syncWorld is a booted device serving the gateway, plus the model.
type syncWorld struct {
	cfg     config
	p       syncParams
	dir     string // durable store directory ("" when volatile)
	sys     *core.System
	parts   []*part
	clients []*syncClient
	tr      *tracer
	gate    *traceGate
	wt      *walTrace
	baseDB  dbStats
}

func newSyncRead(cfg config) (world, error)  { return newSyncWorld(cfg, syncReadParams) }
func newSyncWrite(cfg config) (world, error) { return newSyncWorld(cfg, syncWriteParams) }

// benchApp is the minimal installed package an identity needs.
type benchApp struct{ pkg string }

func (a *benchApp) Package() string                           { return a.pkg }
func (a *benchApp) OnStart(*ams.Context, intent.Intent) error { return nil }

func newSyncWorld(cfg config, p syncParams) (w *syncWorld, err error) {
	if cfg.tiny {
		p = p.tinyScale()
	}
	w = &syncWorld{cfg: cfg, p: p}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if cfg.trace {
		w.tr = newTracer()
	}
	opts := core.Options{}
	if p.durable {
		if w.dir, err = os.MkdirTemp(cfg.outDir, "store-"); err != nil {
			return nil, err
		}
		st, err := wal.NewDirStorage(w.dir)
		if err != nil {
			return nil, err
		}
		opts.Storage = st
		if cfg.trace {
			w.wt = &walTrace{tr: w.tr}
			opts.Storage = &tracedStorage{Storage: st, t: w.wt}
		}
	}
	if w.sys, err = core.Boot(opts); err != nil {
		return nil, err
	}
	if err := w.populate(); err != nil {
		return nil, err
	}
	gw, err := w.sys.StartGateway(core.GatewayOptions{Workers: 2, AllowDetached: true})
	if err != nil {
		return nil, err
	}
	if w.tr != nil {
		w.gate = installTrace(w.tr, gw, w.sys.Router, w.allIdents())
	}
	if err := w.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if cfg.corrupt {
		w.corruptModel()
	}
	return w, nil
}

// populate installs the apps, preloads both tables, builds the model
// and copies every delegate's hot rows into its initiator's delta.
func (w *syncWorld) populate() error {
	p := w.p
	for k := 0; k < p.delegsPer; k++ {
		if err := w.sys.Install(&benchApp{pkg: delegApp(k)}, ams.Manifest{Package: delegApp(k)}); err != nil {
			return err
		}
	}
	per := int64(p.rows / p.initiators)
	for i := 0; i < p.initiators; i++ {
		pkg := fmt.Sprintf("i%03d", i)
		if err := w.sys.Install(&benchApp{pkg: pkg}, ams.Manifest{Package: pkg}); err != nil {
			return err
		}
		w.parts = append(w.parts, &part{
			init: pkg, lo: int64(i)*per + 1, hi: int64(i+1) * per,
			words: map[int64]wordRow{}, wdelta: map[int64]wordRow{},
			files: map[int64]fileRow{}, fdelta: map[int64]fileRow{},
		})
	}
	if err := w.preload(per); err != nil {
		return err
	}
	for c := 0; c < numClients; c++ {
		rng := rand.New(rand.NewSource(w.cfg.seed*1009 + int64(c)))
		w.clients = append(w.clients, &syncClient{idx: c, rng: rng, ops: newDeck(rng, p.mix[:])})
	}
	setupRng := rand.New(rand.NewSource(w.cfg.seed))
	for i, pt := range w.parts {
		cl := w.clients[i*numClients/len(w.parts)]
		in := &ident{token: "u0:" + pt.init, task: kernel.Task{App: pt.init}, part: pt}
		cl.idents = append(cl.idents, in)
		cl.inits = append(cl.inits, in)
		perm := setupRng.Perm(int(per))
		for k := 0; k < p.delegsPer; k++ {
			d := &ident{
				token: "u0:" + delegApp(k) + "^" + pt.init,
				task:  kernel.Task{App: delegApp(k), Initiator: pt.init},
				deleg: true, part: pt,
			}
			for j := 0; j < p.hotPerDeleg; j++ {
				d.hot = append(d.hot, pt.lo+int64(perm[k*p.hotPerDeleg+j]))
			}
			if err := w.precopy(d); err != nil {
				return err
			}
			cl.idents = append(cl.idents, d)
		}
	}
	for _, cl := range w.clients {
		cl.who = newDeck(cl.rng, ones(len(cl.idents)))
	}
	return nil
}

func delegApp(k int) string { return fmt.Sprintf("d%d", k) }

// preload inserts the initial rows in batches of multi-row INSERTs.
func (w *syncWorld) preload(per int64) error {
	const batch = 256
	ud, md := w.sys.UserDict.Proxy().DB(), w.sys.Media.Proxy().DB()
	var wsql, fsql strings.Builder
	flush := func() error {
		for _, s := range []*strings.Builder{&wsql, &fsql} {
			if s.Len() == 0 {
				continue
			}
			db := ud
			if s == &fsql {
				db = md
			}
			if _, err := db.Exec(s.String()); err != nil {
				return err
			}
			s.Reset()
		}
		return nil
	}
	for id := int64(1); id <= int64(len(w.parts))*per; id++ {
		pt := w.parts[(id-1)/per]
		wr := wordRow{word: "p" + strconv.FormatInt(id, 10), freq: id%97 + 1}
		fr := fileRow{title: "t" + strconv.FormatInt(id, 10), date: dateOf(id), mtype: imageType}
		if id%4 == 0 {
			fr.mtype = audioType
		}
		pt.words[id], pt.files[id] = wr, fr
		if wsql.Len() == 0 {
			wsql.WriteString("INSERT INTO words (_id, word, frequency, locale, appid) VALUES ")
			fsql.WriteString("INSERT INTO files (_id, _data, media_type, title, size, date_added) VALUES ")
		} else {
			wsql.WriteString(", ")
			fsql.WriteString(", ")
		}
		fmt.Fprintf(&wsql, "(%d, '%s', %d, 'en', 0)", id, wr.word, wr.freq)
		fmt.Fprintf(&fsql, "(%d, '/storage/sdcard/DCIM/p%d.jpg', %d, '%s', %d, %d)", id, id, fr.mtype, fr.title, 1000+id, fr.date)
		if id%batch == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func dateOf(id int64) int64 { return mediaBase + id*10 }

// precopy writes a delegate's hot rows through its COW views, the path
// a delegate PUT takes, so they live in the initiator's delta. One
// statement per table covers all of the delegate's hot rows.
func (w *syncWorld) precopy(d *ident) error {
	mark := fmt.Sprintf("d%d.0", d.hot[0])
	in := "_id IN (?" + strings.Repeat(", ?", len(d.hot)-1) + ")"
	args := make([]sqldb.Value, len(d.hot))
	for i, id := range d.hot {
		args[i] = id
	}
	uc := w.sys.UserDict.Proxy().For(d.part.init)
	if _, err := uc.Update("words", map[string]sqldb.Value{"word": mark, "frequency": int64(1)}, in, args...); err != nil {
		return err
	}
	mc := w.sys.Media.Proxy().For(d.part.init)
	if _, err := mc.Update("files", map[string]sqldb.Value{"title": mark}, in, args...); err != nil {
		return err
	}
	for _, id := range d.hot {
		d.part.wdelta[id] = wordRow{word: mark, freq: 1}
		fr := d.part.files[id]
		fr.title = mark
		d.part.fdelta[id] = fr
	}
	return nil
}

// warmUp fills each client's churn queue and runs warmupOps operations
// per client, then zeroes the counters the per-layer metrics use.
func (w *syncWorld) warmUp() error {
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rec recorder
			cl := w.clients[c]
			for len(cl.fifo) < w.p.churnQueue {
				if err := w.post(cl, &rec); err != nil {
					errs[c] = err
					return
				}
			}
			for i := 0; i < w.p.warmupOps; i++ {
				if err := w.step(c, &rec); err != nil {
					errs[c] = err
					return
				}
			}
			if rec.failed > 0 {
				errs[c] = fmt.Errorf("%d of %d warm-up operations failed", rec.failed, rec.attempted)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := w.drain(); err != nil {
		return err
	}
	for _, cl := range w.clients {
		cl.writes, cl.payload, cl.ckptBusy = 0, 0, 0
		cl.ckpt = latencies{}
		cl.spans = nil
	}
	w.baseDB = w.readDB()
	if w.wt != nil {
		w.wt.reset()
	}
	if w.gate != nil {
		w.gate.admits.Store(0)
	}
	return nil
}

// corruptModel makes the model expect wrong words (self-test hook).
func (w *syncWorld) corruptModel() {
	for _, pt := range w.parts {
		for id, r := range pt.words {
			r.word += "x"
			pt.words[id] = r
		}
		for id, r := range pt.wdelta {
			r.word += "x"
			pt.wdelta[id] = r
		}
	}
}

func (w *syncWorld) allIdents() []*ident {
	var out []*ident
	for _, cl := range w.clients {
		out = append(out, cl.idents...)
	}
	return out
}

func (w *syncWorld) flushPolicy() string {
	if !w.p.durable {
		return "volatile device, no write-ahead log"
	}
	return fmt.Sprintf("wal.DirStorage in a fresh directory, default group commit (one fsync per commit group), client checkpoint every %d acknowledged writes", w.p.checkpointEvery)
}

// step runs the next operation the client's deck deals.
func (w *syncWorld) step(c int, rec *recorder) error {
	cl := w.clients[c]
	switch cl.ops.next() {
	case opGetWord:
		return w.get(cl, cl.pick(), false, rec)
	case opGetFile:
		return w.get(cl, cl.pick(), true, rec)
	case opScanLit:
		return w.scan(cl, cl.pick(), true, rec)
	case opScanArg:
		return w.scan(cl, cl.pick(), false, rec)
	case opScanImages:
		return w.imagesScan(cl, cl.pick(), rec)
	case opPutWord:
		return w.update(cl, cl.pick(), false, rec)
	case opPutFile:
		return w.update(cl, cl.pick(), true, rec)
	default:
		if len(cl.fifo) > w.p.churnQueue {
			return w.remove(cl, rec)
		}
		return w.post(cl, rec)
	}
}

func (cl *syncClient) pick() *ident { return cl.idents[cl.who.next()] }

func (cl *syncClient) row(in *ident) int64 {
	return in.part.lo + cl.rng.Int63n(in.part.hi-in.part.lo+1)
}

// rowsBody is the gateway's query response encoding.
type rowsBody struct {
	Columns []string        `json:"columns"`
	Rows    [][]sqldb.Value `json:"rows"`
}

var (
	wordCols = []string{"_id", "word", "frequency"}
	fileCols = []string{"_id", "title", "date_added"}
)

func wordVals(id int64, r wordRow) []sqldb.Value { return []sqldb.Value{id, r.word, r.freq} }
func fileVals(id int64, r fileRow) []sqldb.Value { return []sqldb.Value{id, r.title, r.date} }

func (w *syncWorld) get(cl *syncClient, in *ident, file bool, rec *recorder) error {
	id := cl.row(in)
	if file {
		path := "/v1/media/files/" + strconv.FormatInt(id, 10) + "?columns=_id,title,date_added"
		want := rowsBody{fileCols, [][]sqldb.Value{fileVals(id, in.part.file(id, in.deleg))}}
		return w.query(cl, in, classGet, path, want, rec)
	}
	path := "/v1/user_dictionary/words/" + strconv.FormatInt(id, 10) + "?columns=_id,word,frequency"
	want := rowsBody{wordCols, [][]sqldb.Value{wordVals(id, in.part.word(id, in.deleg))}}
	return w.query(cl, in, classGet, path, want, rec)
}

// scan reads scanRows consecutive ids; literal puts the bounds in the
// statement text, otherwise they travel as arg= placeholders.
func (w *syncWorld) scan(cl *syncClient, in *ident, literal bool, rec *recorder) error {
	lo := in.part.lo + cl.rng.Int63n(in.part.hi-in.part.lo+2-scanRows)
	hi := lo + scanRows
	var path string
	if literal {
		where := fmt.Sprintf("_id >= %d AND _id < %d", lo, hi)
		path = "/v1/user_dictionary/words?columns=_id,word,frequency&order=_id&where=" + url.QueryEscape(where)
	} else {
		path = fmt.Sprintf("/v1/user_dictionary/words?columns=_id,word,frequency&order=_id&where=%s&arg=%d&arg=%d",
			url.QueryEscape("_id >= ? AND _id < ?"), lo, hi)
	}
	want := rowsBody{Columns: wordCols, Rows: [][]sqldb.Value{}}
	for id := lo; id < hi; id++ {
		want.Rows = append(want.Rows, wordVals(id, in.part.word(id, in.deleg)))
	}
	return w.query(cl, in, classScan, path, want, rec)
}

// imagesScan queries a date_added window on the media/images user view.
func (w *syncWorld) imagesScan(cl *syncClient, in *ident, rec *recorder) error {
	lo := in.part.lo + cl.rng.Int63n(in.part.hi-in.part.lo+2-scanRows)
	hi := lo + scanRows
	path := fmt.Sprintf("/v1/media/images?columns=_id,title,date_added&order=date_added&where=%s&arg=%d&arg=%d",
		url.QueryEscape("date_added >= ? AND date_added < ?"), dateOf(lo), dateOf(hi))
	want := rowsBody{Columns: fileCols, Rows: [][]sqldb.Value{}}
	for id := lo; id < hi; id++ {
		if r := in.part.file(id, in.deleg); r.mtype == imageType {
			want.Rows = append(want.Rows, fileVals(id, r))
		}
	}
	return w.query(cl, in, classScan, path, want, rec)
}

// query issues a GET and compares the body byte for byte with the
// model's encoding of the expected rows.
func (w *syncWorld) query(cl *syncClient, in *ident, class int, path string, want rowsBody, rec *recorder) error {
	resp, ok := w.do(cl, in, class, "GET", path, nil, 200, rec)
	if !ok {
		return nil
	}
	exp, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(resp.Body, exp) {
		return mismatch(in, "GET "+path, resp.Body, exp)
	}
	return nil
}

// update PUTs one row: an initiator any row of its share, a delegate
// one of its hot rows (landing in the delta via the COW view's
// INSTEAD OF trigger).
func (w *syncWorld) update(cl *syncClient, in *ident, file bool, rec *recorder) error {
	var id int64
	var mark byte = 'i'
	if in.deleg {
		id = in.hot[cl.rng.Intn(len(in.hot))]
		mark = 'd'
	} else {
		id = cl.row(in)
	}
	cl.seq++
	val := fmt.Sprintf("%c%d.%d", mark, id, cl.seq)
	pt := in.part
	if !file {
		wr := wordRow{word: val, freq: cl.seq % 1000}
		body := []byte(fmt.Sprintf(`{"word":%q,"frequency":%d}`, wr.word, wr.freq))
		if !w.write(cl, in, "PUT", "/v1/user_dictionary/words/"+strconv.FormatInt(id, 10), body, 200, `{"count":1}`, rec) {
			return nil
		}
		if in.deleg {
			pt.wdelta[id] = wr
		} else {
			pt.words[id] = wr
		}
	} else {
		body := []byte(fmt.Sprintf(`{"title":%q}`, val))
		if !w.write(cl, in, "PUT", "/v1/media/files/"+strconv.FormatInt(id, 10), body, 200, `{"count":1}`, rec) {
			return nil
		}
		if in.deleg {
			r := pt.fdelta[id]
			r.title = val
			pt.fdelta[id] = r
		} else {
			r := pt.files[id]
			r.title = val
			pt.files[id] = r
		}
	}
	return w.maybeCheckpoint(cl)
}

// post inserts a media row as one of the client's initiators.
func (w *syncWorld) post(cl *syncClient, rec *recorder) error {
	in := cl.inits[cl.rng.Intn(len(cl.inits))]
	cl.seq++
	row := fileRow{title: fmt.Sprintf("n%d.%d", cl.idx, cl.seq), date: 3*mediaBase + int64(cl.idx)*mediaBase*1000 + cl.seq, mtype: imageType}
	body := []byte(fmt.Sprintf(`{"_data":"/storage/sdcard/DCIM/c%d-%d.jpg","media_type":%d,"title":%q,"size":%d,"date_added":%d}`,
		cl.idx, cl.seq, row.mtype, row.title, cl.seq, row.date))
	resp, ok := w.do(cl, in, classPut, "POST", "/v1/media/files", body, 201, rec)
	if !ok {
		return nil
	}
	var out struct{ ID int64 }
	if err := json.Unmarshal(resp.Body, &out); err != nil || out.ID <= 0 {
		return fmt.Errorf("%w: POST /v1/media/files answered %s", errWrong, resp.Body)
	}
	cl.fifo = append(cl.fifo, churnRow{id: out.ID, by: in, row: row})
	cl.writes++
	cl.payload += int64(len(body) + len("POST/v1/media/files"))
	return w.maybeCheckpoint(cl)
}

// remove deletes the client's oldest POSTed row.
func (w *syncWorld) remove(cl *syncClient, rec *recorder) error {
	old := cl.fifo[0]
	if !w.write(cl, old.by, "DELETE", "/v1/media/files/"+strconv.FormatInt(old.id, 10), nil, 200, `{"count":1}`, rec) {
		return nil
	}
	cl.fifo = cl.fifo[1:]
	return w.maybeCheckpoint(cl)
}

// write issues one acknowledged write and checks its reply.
func (w *syncWorld) write(cl *syncClient, in *ident, method, path string, body []byte, status int, reply string, rec *recorder) bool {
	resp, ok := w.do(cl, in, classPut, method, path, body, status, rec)
	if !ok {
		return false
	}
	if string(resp.Body) != reply {
		// A write that reports touching no row or several is a failed
		// operation, not an acknowledged one.
		rec.failed++
		return false
	}
	cl.writes++
	cl.payload += int64(len(body) + len(method) + len(path))
	return true
}

func (w *syncWorld) maybeCheckpoint(cl *syncClient) error {
	if w.p.checkpointEvery == 0 || cl.writes%int64(w.p.checkpointEvery) != 0 {
		return nil
	}
	start := time.Now()
	err := w.sys.Checkpoint()
	cl.ckpt.add(time.Since(start))
	if errors.Is(err, wal.ErrBusy) {
		// Documented contract: the caller retries later and the WAL
		// alone keeps the writes durable.
		cl.ckptBusy++
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// do performs one gateway round trip, recording its latency and, when
// tracing, its span. ok is false when the operation failed: a typed
// error or a status other than want.
func (w *syncWorld) do(cl *syncClient, in *ident, class int, method, path string, body []byte, want int, rec *recorder) (resp netstack.Response, ok bool) {
	traced := w.tr != nil && w.tr.on.Load()
	var sp reqSpan
	if traced {
		in.slot.reset()
		sp.send = w.tr.now()
	}
	start := time.Now()
	resp, err := w.sys.GatewayRequest(in.token, method, path, body)
	d := time.Since(start)
	rec.attempted++
	if err != nil || resp.Status != want {
		rec.failed++
		return resp, false
	}
	rec.observe(class, in.deleg, d)
	if traced {
		sp.recv = w.tr.now()
		sp.class, sp.deleg = uint8(class), in.deleg
		in.slot.fill(&sp)
		cl.spans = append(cl.spans, sp)
	}
	return resp, true
}

// mismatch classifies a wrong body: a row showing a delegate-written
// value where the caller's view holds none is a confinement violation.
func mismatch(in *ident, what string, got, want []byte) error {
	if leaked := delegateLeaks(got, want); len(leaked) > 0 {
		return fmt.Errorf("%w: %s as %s sees delegate writes %v outside its view", errConfinement, what, in.task, leaked)
	}
	return fmt.Errorf("%w: %s as %s: got %s, want %s", errWrong, what, in.task, got, want)
}

// delegateLeaks returns the delegate-written values ("d<id>.<seq>") in
// got on rows whose expected value in want carries no such mark.
func delegateLeaks(got, want []byte) []string {
	rows := func(b []byte) map[string]string {
		var body struct{ Rows [][]any }
		out := map[string]string{}
		if json.Unmarshal(b, &body) != nil {
			return out
		}
		for _, r := range body.Rows {
			if len(r) == 0 {
				continue
			}
			key := fmt.Sprint(r[0])
			out[key] = ""
			for _, v := range r[1:] {
				if s, ok := v.(string); ok && len(s) > 1 && s[0] == 'd' && s[1] >= '0' && s[1] <= '9' {
					out[key] = s
				}
			}
		}
		return out
	}
	w := rows(want)
	var leaked []string
	for id, mark := range rows(got) {
		if mark != "" && w[id] == "" {
			leaked = append(leaked, mark)
		}
	}
	sort.Strings(leaked)
	return leaked
}

// steady reads the counters that must not drift over the window.
func (w *syncWorld) steady() (map[string]int64, error) {
	m := map[string]int64{}
	ud, md := w.sys.UserDict.Proxy().DB(), w.sys.Media.Proxy().DB()
	for _, q := range []struct {
		name string
		db   *sqldb.DB
		sql  string
	}{
		{"rows.words", ud, "SELECT COUNT(*) FROM words"},
		{"rows.files", md, "SELECT COUNT(*) FROM files"},
	} {
		n, err := countRows(q.db, q.sql)
		if err != nil {
			return nil, err
		}
		m[q.name] = n
	}
	for _, pt := range w.parts {
		for _, t := range []struct {
			name  string
			proxy *cowproxy.Proxy
		}{{"words", w.sys.UserDict.Proxy()}, {"files", w.sys.Media.Proxy()}} {
			if !t.proxy.HasDelta(t.name, pt.init) {
				continue
			}
			n, err := countRows(t.proxy.DB(), "SELECT COUNT(*) FROM "+cowproxy.DeltaTableName(t.name, pt.init))
			if err != nil {
				return nil, err
			}
			m["rows.delta."+t.name] += n
		}
	}
	for _, p := range w.proxies() {
		st := p.Stats()
		m["cowproxy.delta_tables"] += int64(st.DeltaTables)
		m["cowproxy.cow_views"] += int64(st.COWViews)
	}
	commonSteady(w.sys, m)
	return m, nil
}

// commonSteady adds the process and mount leak counters.
func commonSteady(sys *core.System, m map[string]int64) {
	m["mount.live"] = mount.Live()
	m["unionfs.live"] = unionfs.Live()
	m["unionfs.live_branches"] = unionfs.LiveBranches()
	m["kernel.live_processes"] = int64(sys.Kernel.LiveProcesses())
	m["ams.running"] = int64(sys.AM.NumRunning())
}

func countRows(db *sqldb.DB, sql string) (int64, error) {
	v, err := db.QueryScalar(sql)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("%s returned %v", sql, v)
	}
	return n, nil
}

func (w *syncWorld) proxies() []*cowproxy.Proxy {
	return []*cowproxy.Proxy{w.sys.UserDict.Proxy(), w.sys.Downloads.Proxy(), w.sys.Media.Proxy()}
}

// drain deletes the one extra churn row a client may hold when the
// window ends mid-pair, restoring the steady row count.
func (w *syncWorld) drain() error {
	for _, cl := range w.clients {
		var rec recorder
		for len(cl.fifo) > w.p.churnQueue {
			if err := w.remove(cl, &rec); err != nil {
				return err
			}
			if rec.failed > 0 {
				return fmt.Errorf("drain: DELETE of churn row failed")
			}
		}
	}
	return nil
}

// leak launches an instance nobody stops (self-test hook).
func (w *syncWorld) leak() error {
	_, err := w.sys.Launch(w.parts[0].init, intent.Intent{})
	return err
}

func (w *syncWorld) health() health.State { return w.sys.Health() }

// finish reboots a durable device on the same directory and checks
// that every acknowledged write survived, then removes the store.
func (w *syncWorld) finish() error {
	defer w.close()
	if !w.p.durable {
		return nil
	}
	w.sys.Shutdown()
	w.sys = nil
	st, err := wal.NewDirStorage(w.dir)
	if err != nil {
		return err
	}
	sys, err := core.Boot(core.Options{Storage: st})
	if err != nil {
		return fmt.Errorf("reboot after the run: %w", err)
	}
	w.sys = sys
	return w.verifyAll()
}

// verifyAll compares the whole model with the rebooted device: every
// initiator's share as the initiator and as its delegates see it, and
// every live POSTed row.
func (w *syncWorld) verifyAll() error {
	uc, mc := w.sys.UserDict.Proxy(), w.sys.Media.Proxy()
	for _, pt := range w.parts {
		for _, deleg := range []bool{false, true} {
			initiator := ""
			if deleg {
				initiator = pt.init
			}
			want := rowsBody{Columns: wordCols, Rows: [][]sqldb.Value{}}
			fwant := rowsBody{Columns: fileCols, Rows: [][]sqldb.Value{}}
			for id := pt.lo; id <= pt.hi; id++ {
				want.Rows = append(want.Rows, wordVals(id, pt.word(id, deleg)))
				fwant.Rows = append(fwant.Rows, fileVals(id, pt.file(id, deleg)))
			}
			rows, err := uc.For(initiator).Query("words", wordCols, "_id >= ? AND _id <= ?", "_id", pt.lo, pt.hi)
			if err != nil {
				return err
			}
			if err := sameRows("words of "+pt.init, deleg, rows, want); err != nil {
				return err
			}
			rows, err = mc.For(initiator).Query("files", fileCols, "_id >= ? AND _id <= ?", "_id", pt.lo, pt.hi)
			if err != nil {
				return err
			}
			if err := sameRows("files of "+pt.init, deleg, rows, fwant); err != nil {
				return err
			}
		}
	}
	for _, cl := range w.clients {
		for _, cr := range cl.fifo {
			rows, err := mc.For("").Query("files", fileCols, "_id = ?", "", cr.id)
			if err != nil {
				return err
			}
			if err := sameRows(fmt.Sprintf("POSTed file %d", cr.id), false, rows, rowsBody{fileCols, [][]sqldb.Value{fileVals(cr.id, cr.row)}}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sameRows(what string, deleg bool, rows *sqldb.Rows, want rowsBody) error {
	got, err := json.Marshal(rowsBody{Columns: rows.Columns, Rows: rows.Data})
	if err != nil {
		return err
	}
	exp, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("%w after reboot: %s (delegate view %v): got %s, want %s", errLost, what, deleg, got, exp)
	}
	return nil
}

func (w *syncWorld) close() {
	if w.sys != nil {
		w.sys.Shutdown()
		w.sys = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// --- tracing ---

func (w *syncWorld) setTracing(on bool) {
	if w.tr != nil {
		w.tr.on.Store(on)
	}
}

// dbStats sums the provider databases' counters.
type dbStats struct {
	s sqldb.Stats
	l sqldb.LockStats
}

func (w *syncWorld) readDB() dbStats {
	var out dbStats
	for _, p := range w.proxies() {
		s, l := p.DB().Stats(), p.DB().LockStats()
		out.s.FlattenedQueries += s.FlattenedQueries
		out.s.MaterializedViews += s.MaterializedViews
		out.s.SeqScans += s.SeqScans
		out.s.PKProbes += s.PKProbes
		out.s.IndexProbes += s.IndexProbes
		out.s.PlanCacheHits += s.PlanCacheHits
		out.s.PlanCacheMisses += s.PlanCacheMisses
		out.l.TableAcquisitions += l.TableAcquisitions
		out.l.TableBlocked += l.TableBlocked
		out.l.ExclusiveBatches += l.ExclusiveBatches
	}
	return out
}

func (w *syncWorld) layers(lm *layerMetrics, ops int64, elapsed time.Duration) {
	var spans []reqSpan
	var writes, payload, busy int64
	var ckpt latencies
	for _, cl := range w.clients {
		spans = append(spans, cl.spans...)
		writes += cl.writes
		payload += cl.payload
		busy += cl.ckptBusy
		ckpt.merge(&cl.ckpt)
	}
	gatewayLayers(lm, spans)
	fops := float64(ops)
	now := w.readDB()
	s, l := now.s, now.l
	b := w.baseDB
	lm.set("binder.calls_per_op", float64(w.gate.admits.Load())/fops)
	var deltas int
	for _, p := range w.proxies() {
		deltas += p.Stats().DeltaTables
	}
	lm.set("cowproxy.delta_tables", float64(deltas))
	lm.set("sqldb.seq_scans_per_op", float64(s.SeqScans-b.s.SeqScans)/fops)
	lm.set("sqldb.pk_probes_per_op", float64(s.PKProbes-b.s.PKProbes)/fops)
	lm.set("sqldb.index_probes_per_op", float64(s.IndexProbes-b.s.IndexProbes)/fops)
	lm.set("sqldb.flattened_per_op", float64(s.FlattenedQueries-b.s.FlattenedQueries)/fops)
	lm.set("sqldb.materialized_per_op", float64(s.MaterializedViews-b.s.MaterializedViews)/fops)
	hits, misses := s.PlanCacheHits-b.s.PlanCacheHits, s.PlanCacheMisses-b.s.PlanCacheMisses
	lm.set("sqldb.plan_hit_ratio", ratio(hits, hits+misses))
	lm.set("sqldb.lock_blocked_ratio", ratio(l.TableBlocked-b.l.TableBlocked, l.TableAcquisitions-b.l.TableAcquisitions))
	lm.set("sqldb.exclusive_per_op", float64(l.ExclusiveBatches-b.l.ExclusiveBatches)/fops)
	if w.wt != nil {
		w.wt.layers(lm, writes, payload, elapsed)
		lm.set("wal.checkpoint_ms", ckpt.quantile(0.5)/1e3)
		lm.n["wal.checkpoint_ms"] = fmt.Sprintf("n=%d", ckpt.count())
		lm.set("wal.checkpoint_busy_ratio", ratio(busy, int64(ckpt.count())))
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (w *syncWorld) writeSpans(out io.Writer) error {
	fmt.Fprintln(out, "client,identity,class,send_ns,pre_ns,admit_ns,release_ns,post_ns,recv_ns")
	for _, cl := range w.clients {
		for _, sp := range cl.spans {
			kind := "init"
			if sp.deleg {
				kind = "deleg"
			}
			if _, err := fmt.Fprintf(out, "%d,%s,%s,%d,%d,%d,%d,%d,%d\n", cl.idx, kind, classNames[sp.class],
				sp.send, sp.pre, sp.admit, sp.release, sp.post, sp.recv); err != nil {
				return err
			}
		}
	}
	return nil
}
