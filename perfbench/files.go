package main

// The local workload: confined app instances doing file I/O through
// ams.Context.FS(). Initiators read and overwrite their own files;
// viewers run as delegates of an initiator, read their lower-branch
// files, copy them up on first write, write public external files that
// land in Vol(initiator), list merged directories, and are cleared
// with ClearVol and ClearPriv after every cycle.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/health"
	"maxoid/internal/intent"
	"maxoid/internal/layout"
	"maxoid/internal/vfs"
)

// filesParams sizes the app-files workload (per client).
type filesParams struct {
	inits, viewers int
	small, big     int // file sizes in bytes
	patch          int // bytes of a viewer's first, copy-up write
	pubFiles       int // public external files in the client's shared dir
	initOps        int // initiator operations per round
	warmupRounds   int
}

var appFilesParams = filesParams{
	inits: 4, viewers: 4, small: 4 << 10, big: 64 << 10, patch: 256,
	pubFiles: 8, initOps: 15, warmupRounds: 256,
}

func (p filesParams) tinyScale() filesParams {
	p.inits, p.viewers, p.warmupRounds = 2, 2, 4
	return p
}

// File span kinds, recorded in traced phases.
const (
	kGetInitSmall = iota
	kGetInitBig
	kGetDelegSmall
	kGetDelegBig
	kPutInit
	kPutCopyup
	kPutDelegExt
	kPutDelegRewrite
	kScanInitPriv
	kScanInitExt
	kScanDelegPriv
	kScanDelegExt
	kSpawn
	kClear
	kDirectGet
	kDirectPut
	numKinds
)

var kindNames = [numKinds]string{
	"get_init_small", "get_init_big", "get_deleg_small", "get_deleg_big",
	"put_init", "put_copyup", "put_deleg_ext", "put_deleg_rewrite",
	"scan_init_priv", "scan_init_ext", "scan_deleg_priv", "scan_deleg_ext",
	"spawn", "clear", "direct_get", "direct_put",
}

type initApp struct {
	pkg  string
	ctx  *ams.Context
	a, b []byte // model of its private a.bin (small) and b.bin (big)
}

type viewerApp struct {
	pkg        string
	small, big []byte // its lower-branch files, never modified
}

type fileSpan struct {
	kind uint8
	ns   int64
}

type filesClient struct {
	idx     int
	rng     *rand.Rand
	ops     *deck // initiator operation kinds
	who     *deck // indexes into inits
	inits   []*initApp
	viewers []*viewerApp
	pairs   [][2]int // (viewer, initiator) cycle order
	pubDir  string   // client-visible shared public dir
	pub     []string // sorted names of its public files
	round   int
	seq     int64
	spawns  int64 // since the end of set-up
	spans   []fileSpan
}

type filesWorld struct {
	cfg       config
	p         filesParams
	sys       *core.System
	clients   []*filesClient
	block     []byte // content pattern
	tr        *tracer
	baseKills int
	baseLocks vfs.LockStats
}

func newAppFiles(cfg config) (world, error) {
	p := appFilesParams
	if cfg.tiny {
		p = p.tinyScale()
	}
	sys, err := core.Boot(core.Options{})
	if err != nil {
		return nil, err
	}
	w := &filesWorld{cfg: cfg, p: p, sys: sys}
	if cfg.trace {
		w.tr = newTracer()
	}
	if err := w.populate(); err != nil {
		w.close()
		return nil, err
	}
	if err := w.warmUp(); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if cfg.corrupt {
		for _, cl := range w.clients {
			for _, in := range cl.inits {
				in.a = append([]byte("x"), in.a[1:]...)
			}
		}
	}
	return w, nil
}

// content returns size bytes that differ for every tag.
func (w *filesWorld) content(tag string, size int) []byte {
	out := make([]byte, size)
	copy(out, w.block)
	for i := len(w.block); i < size; i *= 2 {
		copy(out[i:], out[:i])
	}
	copy(out, tag+"|")
	return out
}

// populate installs and seeds every client's apps: initiators stay
// running; viewers write their private files as themselves and are then
// stopped, so those files form the lower branch of every later
// delegate view.
func (w *filesWorld) populate() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.block = make([]byte, 512)
	rng.Read(w.block)
	for c := 0; c < numClients; c++ {
		cl := &filesClient{
			idx:    c,
			rng:    rand.New(rand.NewSource(w.cfg.seed*7919 + int64(c))),
			pubDir: fmt.Sprintf("%s/shared/c%d", layout.ExtDir, c),
		}
		for i := 0; i < w.p.inits; i++ {
			in := &initApp{pkg: fmt.Sprintf("c%di%d", c, i)}
			if err := w.sys.Install(&benchApp{pkg: in.pkg}, ams.Manifest{Package: in.pkg}); err != nil {
				return err
			}
			ctx, err := w.sys.Launch(in.pkg, intent.Intent{})
			if err != nil {
				return err
			}
			in.ctx = ctx
			in.a, in.b = w.content(in.pkg+"/a", w.p.small), w.content(in.pkg+"/b", w.p.big)
			for name, data := range map[string][]byte{"a.bin": in.a, "b.bin": in.b} {
				if err := vfs.WriteFile(ctx.FS(), ctx.Cred(), ctx.DataDir()+"/"+name, data, 0o600); err != nil {
					return err
				}
			}
			cl.inits = append(cl.inits, in)
		}
		first := cl.inits[0].ctx
		if err := first.FS().MkdirAll(first.Cred(), cl.pubDir, 0o777); err != nil {
			return err
		}
		for k := 0; k < w.p.pubFiles; k++ {
			name := fmt.Sprintf("pub%d.txt", k)
			if err := vfs.WriteFile(first.FS(), first.Cred(), cl.pubDir+"/"+name, w.content(cl.pubDir+name, 1024), 0o666); err != nil {
				return err
			}
			cl.pub = append(cl.pub, name)
		}
		sort.Strings(cl.pub)
		for v := 0; v < w.p.viewers; v++ {
			va := &viewerApp{pkg: fmt.Sprintf("c%dv%d", c, v)}
			if err := w.sys.Install(&benchApp{pkg: va.pkg}, ams.Manifest{Package: va.pkg}); err != nil {
				return err
			}
			ctx, err := w.sys.Launch(va.pkg, intent.Intent{})
			if err != nil {
				return err
			}
			va.small, va.big = w.content(va.pkg+"/small", w.p.small), w.content(va.pkg+"/big", w.p.big)
			for name, data := range map[string][]byte{"small.bin": va.small, "big.bin": va.big} {
				if err := vfs.WriteFile(ctx.FS(), ctx.Cred(), ctx.DataDir()+"/"+name, data, 0o600); err != nil {
					return err
				}
			}
			if err := w.sys.Kernel.Kill(ctx.PID()); err != nil {
				return err
			}
			cl.viewers = append(cl.viewers, va)
		}
		cl.ops = newDeck(cl.rng, initOpMix[:])
		cl.who = newDeck(cl.rng, ones(len(cl.inits)))
		for _, k := range rng.Perm(w.p.viewers * w.p.inits) {
			cl.pairs = append(cl.pairs, [2]int{k % w.p.viewers, k / w.p.viewers})
		}
		w.clients = append(w.clients, cl)
	}
	return nil
}

// warmUp runs every (viewer, initiator) pair at least once per client,
// so every branch directory and marker the steady state holds exists.
func (w *filesWorld) warmUp() error {
	rounds := w.p.warmupRounds
	if n := w.p.viewers * w.p.inits; rounds < n {
		rounds = n
	}
	var rec recorder
	for r := 0; r < rounds; r++ {
		for c := range w.clients {
			if err := w.step(c, &rec); err != nil {
				return err
			}
		}
	}
	if rec.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed", rec.failed, rec.attempted)
	}
	for _, cl := range w.clients {
		cl.spawns = 0
		cl.spans = nil
	}
	w.baseKills = w.sys.AM.KilledForConflict()
	w.baseLocks = w.sys.Disk.LockStats()
	return nil
}

func (w *filesWorld) traced() bool { return w.tr != nil && w.tr.on.Load() }

func (cl *filesClient) span(w *filesWorld, kind int, d time.Duration) {
	if w.traced() {
		cl.spans = append(cl.spans, fileSpan{kind: uint8(kind), ns: int64(d)})
	}
}

// step runs one round: a viewer cycle and initOps initiator operations.
func (w *filesWorld) step(c int, rec *recorder) error {
	cl := w.clients[c]
	pair := cl.pairs[cl.round%len(cl.pairs)]
	cl.round++
	if err := w.cycle(cl, cl.viewers[pair[0]], cl.inits[pair[1]], rec); err != nil {
		return err
	}
	for k := 0; k < w.p.initOps; k++ {
		if err := w.initOp(cl, cl.inits[cl.who.next()], rec); err != nil {
			return err
		}
	}
	return nil
}

// fileOp times one file operation and records it; ok is false when the
// operation failed.
func (w *filesWorld) fileOp(cl *filesClient, rec *recorder, class int, deleg bool, kind int, op func() error) bool {
	start := time.Now()
	err := op()
	d := time.Since(start)
	rec.attempted++
	if err != nil {
		rec.failed++
		return false
	}
	rec.observe(class, deleg, d)
	cl.span(w, kind, d)
	return true
}

// cycle launches viewer as a delegate of in, runs its file operations
// and clears the initiator's volatile and delegate-private state.
func (w *filesWorld) cycle(cl *filesClient, v *viewerApp, in *initApp, rec *recorder) error {
	var ctx *ams.Context
	if !w.fileOp(cl, rec, classSpawn, true, kSpawn, func() (err error) {
		ctx, err = w.sys.LaunchAsDelegate(v.pkg, in.pkg, intent.Intent{})
		return err
	}) {
		return w.clear(cl, in)
	}
	cl.spawns++
	err := w.delegateOps(cl, ctx, v, in, rec)
	if cerr := w.clear(cl, in); err == nil {
		err = cerr
	}
	return err
}

func (w *filesWorld) delegateOps(cl *filesClient, ctx *ams.Context, v *viewerApp, in *initApp, rec *recorder) error {
	fsys, cred := ctx.FS(), ctx.Cred()
	small, big := ctx.DataDir()+"/small.bin", ctx.DataDir()+"/big.bin"
	who := ctx.Task().String()

	var got []byte
	read := func(name string, kind int) bool {
		return w.fileOp(cl, rec, classGet, true, kind, func() (err error) {
			got, err = vfs.ReadFile(fsys, cred, name)
			return err
		})
	}
	if !read(small, kGetDelegSmall) {
		return nil
	}
	if !bytes.Equal(got, v.small) {
		return fileMismatch(who, small, got, v.small)
	}
	if !read(big, kGetDelegBig) {
		return nil
	}
	if !bytes.Equal(got, v.big) {
		return fileMismatch(who, big, got, v.big)
	}

	// First write after Clear-Priv: copies small.bin up from the lower
	// branch, then patches its head.
	cl.seq++
	patch := w.content(fmt.Sprintf("%s/patch%d", who, cl.seq), w.p.patch)
	if !w.fileOp(cl, rec, classPut, true, kPutCopyup, func() error { return patchFile(fsys, cred, small, patch) }) {
		return nil
	}
	want := append(append([]byte{}, patch...), v.small[len(patch):]...)
	if !read(small, kGetDelegSmall) {
		return nil
	}
	if !bytes.Equal(got, want) {
		return fileMismatch(who, small, got, want)
	}

	// A write to public external storage lands in Vol(initiator).
	ext := cl.pubDir + "/" + v.pkg + ".txt"
	extData := w.content(fmt.Sprintf("%s/ext%d", who, cl.seq), w.p.small)
	if !w.fileOp(cl, rec, classPut, true, kPutDelegExt, func() error { return vfs.WriteFile(fsys, cred, ext, extData, 0o666) }) {
		return nil
	}

	var names []string
	list := func(dir string, kind int) bool {
		return w.fileOp(cl, rec, classScan, true, kind, func() (err error) {
			names, err = listDir(fsys, cred, dir)
			return err
		})
	}
	if !list(ctx.DataDir(), kScanDelegPriv) {
		return nil
	}
	if err := sameNames(who, ctx.DataDir(), names, []string{"big.bin", "small.bin"}); err != nil {
		return err
	}
	wantPub := append(append([]string{}, cl.pub...), v.pkg+".txt")
	sort.Strings(wantPub)
	listPub := func() error {
		if !list(cl.pubDir, kScanDelegExt) {
			return errSkip
		}
		return sameNames(who, cl.pubDir, names, wantPub)
	}
	if err := listPub(); err != nil {
		return skipped(err)
	}

	// The initiator's private file, exposed read-only to its delegates.
	ia := layout.AppData(in.pkg) + "/a.bin"
	if !read(ia, kGetDelegSmall) {
		return nil
	}
	if !bytes.Equal(got, in.a) {
		return fileMismatch(who, ia, got, in.a)
	}

	rewrite := w.content(fmt.Sprintf("%s/rewrite%d", who, cl.seq), w.p.small)
	if !w.fileOp(cl, rec, classPut, true, kPutDelegRewrite, func() error { return vfs.WriteFile(fsys, cred, small, rewrite, 0o600) }) {
		return nil
	}
	// Listing the merged public directory again keeps the shared union
	// listing the majority of scans, as it is for initiators, so the
	// class median does not sit between two kinds of listing.
	return skipped(listPub())
}

// errSkip ends a cycle after a failed operation, which fileOp already
// counted.
var errSkip = errors.New("operation failed")

func skipped(err error) error {
	if errors.Is(err, errSkip) {
		return nil
	}
	return err
}

func (w *filesWorld) clear(cl *filesClient, in *initApp) error {
	start := time.Now()
	if err := w.sys.ClearVol(in.pkg); err != nil {
		return fmt.Errorf("ClearVol(%s): %w", in.pkg, err)
	}
	if err := w.sys.ClearPriv(in.pkg); err != nil {
		return fmt.Errorf("ClearPriv(%s): %w", in.pkg, err)
	}
	cl.span(w, kClear, time.Since(start))
	return nil
}

// Initiator operation kinds and their share of one deck: reads of the
// small and big private file, overwrites of the small one, and
// listings of the private and the shared public directory.
const (
	initGetSmall = iota
	initGetBig
	initPut
	initListPriv
	initListPub
	numInitOps
)

var initOpMix = [numInitOps]int{initGetSmall: 6, initGetBig: 2, initPut: 4, initListPriv: 1, initListPub: 2}

// initOp is one initiator operation on its own files or the shared
// public directory.
func (w *filesWorld) initOp(cl *filesClient, in *initApp, rec *recorder) error {
	fsys, cred := in.ctx.FS(), in.ctx.Cred()
	dir := in.ctx.DataDir()
	backing := layout.BackAppData(in.pkg)
	var got []byte
	switch op := cl.ops.next(); op {
	case initGetSmall, initGetBig:
		name, want, kind := "a.bin", in.a, kGetInitSmall
		if op == initGetBig {
			name, want, kind = "b.bin", in.b, kGetInitBig
		}
		if !w.fileOp(cl, rec, classGet, false, kind, func() (err error) {
			got, err = vfs.ReadFile(fsys, cred, dir+"/"+name)
			return err
		}) {
			return nil
		}
		if !bytes.Equal(got, want) {
			return fileMismatch(in.pkg, dir+"/"+name, got, want)
		}
		if kind == kGetInitSmall && w.traced() {
			// The same read on the global disk at the backing path: the
			// stock baseline without a mount namespace.
			start := time.Now()
			direct, err := vfs.ReadFile(w.sys.Disk, cred, backing+"/a.bin")
			cl.span(w, kDirectGet, time.Since(start))
			if err != nil {
				return fmt.Errorf("direct read: %w", err)
			}
			if !bytes.Equal(direct, want) {
				return fileMismatch("disk", backing+"/a.bin", direct, want)
			}
		}
	case initPut:
		cl.seq++
		data := w.content(fmt.Sprintf("%s/a%d", in.pkg, cl.seq), w.p.small)
		if !w.fileOp(cl, rec, classPut, false, kPutInit, func() error { return vfs.WriteFile(fsys, cred, dir+"/a.bin", data, 0o600) }) {
			return nil
		}
		in.a = data
		if w.traced() {
			start := time.Now()
			err := vfs.WriteFile(w.sys.Disk, cred, backing+"/a.bin", data, 0o600)
			cl.span(w, kDirectPut, time.Since(start))
			if err != nil {
				return fmt.Errorf("direct write: %w", err)
			}
		}
	default:
		name, want, kind := dir, []string{"a.bin", "b.bin"}, kScanInitPriv
		if op == initListPub {
			// Delegates write into this directory during their cycles;
			// their files live in Vol(initiator) and must stay invisible.
			name, want, kind = cl.pubDir, cl.pub, kScanInitExt
		}
		var names []string
		if !w.fileOp(cl, rec, classScan, false, kind, func() (err error) {
			names, err = listDir(fsys, cred, name)
			return err
		}) {
			return nil
		}
		if err := sameNames(in.pkg, name, names, want); err != nil {
			return err
		}
	}
	return nil
}

// patchFile overwrites the head of an existing file in place.
func patchFile(fsys vfs.FileSystem, cred vfs.Cred, name string, data []byte) error {
	h, err := fsys.Open(cred, name, vfs.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, werr := h.WriteAt(data, 0)
	cerr := h.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func listDir(fsys vfs.FileSystem, cred vfs.Cred, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(cred, dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names, nil
}

// sameNames compares a listing; a name the view must not hold is a
// confinement violation.
func sameNames(who, dir string, got, want []string) error {
	if strings.Join(got, "/") == strings.Join(want, "/") {
		return nil
	}
	allowed := map[string]bool{}
	for _, n := range want {
		allowed[n] = true
	}
	for _, n := range got {
		if !allowed[n] {
			return fmt.Errorf("%w: %s lists %s in %s: got %v, want %v", errConfinement, who, n, dir, got, want)
		}
	}
	return fmt.Errorf("%w: %s lists %s: got %v, want %v", errWrong, who, dir, got, want)
}

func fileMismatch(who, name string, got, want []byte) error {
	head := func(b []byte) string {
		if len(b) > 24 {
			b = b[:24]
		}
		return strconv.Quote(string(b))
	}
	return fmt.Errorf("%w: %s reads %s: got %d bytes %s..., want %d bytes %s...",
		errWrong, who, name, len(got), head(got), len(want), head(want))
}

// steady reads the counters that must not drift over the window.
func (w *filesWorld) steady() (map[string]int64, error) {
	m := map[string]int64{}
	err := vfs.Walk(w.sys.Disk, vfs.Root, "/", func(name string, info vfs.FileInfo) error {
		if info.IsDir() {
			m["disk.dirs"]++
		} else {
			m["disk.files"]++
			m["disk.bytes"] += info.Size
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	commonSteady(w.sys, m)
	return m, nil
}

func (w *filesWorld) drain() error { return nil }

// leak launches a viewer as itself and leaves it running (self-test hook).
func (w *filesWorld) leak() error {
	_, err := w.sys.Launch(w.clients[0].viewers[0].pkg, intent.Intent{})
	return err
}

func (w *filesWorld) health() health.State { return w.sys.Health() }

func (w *filesWorld) setTracing(on bool) {
	if w.tr != nil {
		w.tr.on.Store(on)
	}
}

func (w *filesWorld) layers(lm *layerMetrics, ops int64, elapsed time.Duration) {
	var k [numKinds]latencies
	var spawns int64
	for _, cl := range w.clients {
		for _, s := range cl.spans {
			k[s.kind].add(time.Duration(s.ns))
		}
		spawns += cl.spawns
	}
	var delegScan, initScan latencies
	delegScan.merge(&k[kScanDelegPriv])
	delegScan.merge(&k[kScanDelegExt])
	initScan.merge(&k[kScanInitPriv])
	initScan.merge(&k[kScanInitExt])
	lm.pct("vfs.direct_get_us", 0.5, &k[kDirectGet])
	lm.pct("vfs.direct_put_us", 0.5, &k[kDirectPut])
	lm.extra("mount.self_get_us", &k[kGetInitSmall], &k[kDirectGet])
	lm.n["mount.self_get_us"] = fmt.Sprintf("n=%d initiator, %d direct", k[kGetInitSmall].count(), k[kDirectGet].count())
	lm.extra("unionfs.deleg_extra_get_us", &k[kGetDelegSmall], &k[kGetInitSmall])
	lm.extra("unionfs.deleg_extra_scan_us", &delegScan, &initScan)
	lm.extra("unionfs.deleg_extra_put_us", &k[kPutDelegRewrite], &k[kPutInit])
	lm.pct("unionfs.copyup_us", 0.5, &k[kPutCopyup])
	locks := w.sys.Disk.LockStats()
	lm.set("vfs.lock_blocked_ratio", ratio(locks.NodeBlocked-w.baseLocks.NodeBlocked, locks.NodeAcquisitions-w.baseLocks.NodeAcquisitions))
	lm.pct("zygote.spawn_p50_us", 0.5, &k[kSpawn])
	lm.pct("zygote.spawn_p99_us", 0.99, &k[kSpawn])
	lm.pct("ams.clear_us", 0.5, &k[kClear])
	lm.set("ams.kills_per_spawn", ratio(int64(w.sys.AM.KilledForConflict()-w.baseKills), spawns))
}

func (w *filesWorld) writeSpans(out io.Writer) error {
	fmt.Fprintln(out, "client,kind,ns")
	for _, cl := range w.clients {
		for _, s := range cl.spans {
			if _, err := fmt.Fprintf(out, "%d,%s,%d\n", cl.idx, kindNames[s.kind], s.ns); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *filesWorld) finish() error {
	w.close()
	return nil
}

func (w *filesWorld) close() {
	if w.sys != nil {
		w.sys.Shutdown()
		w.sys = nil
	}
}
