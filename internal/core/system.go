// Package core assembles the full Maxoid system (paper Figure 3): the
// simulated device — disk, kernel, network, Binder — plus Zygote with
// the Aufs branch manager, the Maxoid-modified Activity Manager, the
// three ported system content providers, and the gated system services
// (Clipboard, Bluetooth, Telephony).
//
// It is the public entry point of the reproduction: boot a device with
// Boot, install apps (ams.App implementations) with Install, start them
// with Launch / the launcher drop targets, and manage volatile state
// with ListVolatileFiles / CommitVolatileFile / ClearVol / ClearPriv.
package core

import (
	"path"
	"sort"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/binder"
	"maxoid/internal/cowproxy"
	"maxoid/internal/gateway"
	"maxoid/internal/health"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/layout"
	"maxoid/internal/metrics"
	"maxoid/internal/netstack"
	"maxoid/internal/provider"
	"maxoid/internal/provider/downloads"
	"maxoid/internal/provider/media"
	"maxoid/internal/provider/userdict"
	"maxoid/internal/sqldb"
	"maxoid/internal/unionfs"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
	"maxoid/internal/zygote"
)

// Context is the app-instance context type; re-exported so facade users
// need not import the ams package.
type Context = ams.Context

// Options configure the simulated device.
type Options struct {
	// NetworkBaseRTT and NetworkPerKB set simulated network latency;
	// zero disables delays (tests). Benchmarks set realistic values.
	NetworkBaseRTT time.Duration
	NetworkPerKB   time.Duration
	// TrustedCloudHosts lists hosts delegates may reach despite the
	// network cut — the paper's §2.4 trusted-cloud extension. Leave
	// empty for the paper's base design.
	TrustedCloudHosts []string
	// Storage, when non-nil, makes device state durable: every mutation
	// of the global disk and of the system providers' databases is
	// journaled to a write-ahead log on this storage, and Boot first
	// recovers whatever state the storage already holds (see
	// internal/wal). nil boots a volatile device, the previous behavior.
	Storage wal.Storage
	// Metrics, when non-nil, receives the Binder router's instruments
	// (binder.call, binder.rejected), the durable store's (wal.*
	// histograms, the wal.health gauge, retry/reject counters) and, once
	// started, the gateway's.
	Metrics *metrics.Registry
	// ScrubInterval, when positive on a durable boot, starts the store's
	// background maintenance loop: periodic integrity scrubs while
	// serving, automatic heal attempts while read-only. Zero leaves
	// maintenance to the caller (tests and the chaos engines drive
	// ScrubOnce/Heal deterministically).
	ScrubInterval time.Duration
	// StoreTuning, when set, adjusts the wal.Config before a durable
	// open — retry budgets, backoff, the retry sleep.
	StoreTuning func(*wal.Config)
}

// Names of the provider databases inside the durable store's WAL
// streams and snapshots.
const (
	DBUserDict  = "userdict"
	DBDownloads = "downloads"
	DBMedia     = "media"
)

// System is a booted Maxoid device.
type System struct {
	Disk      *vfs.FS
	Net       *netstack.Network
	Kernel    *kernel.Kernel
	Router    *binder.Router
	Zygote    *zygote.Zygote
	AM        *ams.Manager
	Providers *provider.Registry

	UserDict  *userdict.Provider
	Downloads *downloads.Provider
	Media     *media.Provider

	Clipboard *ams.Clipboard
	Bluetooth *ams.Bluetooth
	Telephony *ams.Telephony

	// Store is the durable WAL+snapshot store, nil on volatile boots.
	Store *wal.Store

	// stopMaint halts the store's maintenance loop, nil when not started.
	stopMaint func()

	// metrics is the boot-time registry, handed to the gateway.
	metrics *metrics.Registry
	// gw is the running remote gateway, nil until StartGateway.
	gw *gateway.Gateway
}

// Boot builds a device: global disk, kernel with network, Binder
// router, Zygote, Activity Manager, the three system content providers
// wired onto the COW proxy, and the system services.
func Boot(opts Options) (*System, error) {
	disk := vfs.New()
	net := netstack.New(opts.NetworkBaseRTT, opts.NetworkPerKB)
	kern := kernel.New(net)
	router := binder.NewRouter()
	router.SetMetrics(opts.Metrics)
	zyg := zygote.New(disk, kern)

	// Durable boot: open the databases empty, then let WAL recovery
	// replay disk and database state into them BEFORE the device is
	// initialized and the providers lay down their schemas — both of
	// which are idempotent against recovered state (MkdirAll, CREATE
	// ... IF NOT EXISTS). After that the store journals everything.
	udDB, dlDB, mdDB := sqldb.Open(), sqldb.Open(), sqldb.Open()
	var store *wal.Store
	if opts.Storage != nil {
		cfg := wal.Config{
			Storage: opts.Storage,
			FS:      disk,
			DBs: map[string]*sqldb.DB{
				DBUserDict:  udDB,
				DBDownloads: dlDB,
				DBMedia:     mdDB,
			},
			Metrics: opts.Metrics,
		}
		if opts.StoreTuning != nil {
			opts.StoreTuning(&cfg)
		}
		var err error
		store, err = wal.Open(cfg)
		if err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*System, error) {
		if store != nil {
			_ = store.Close()
		}
		return nil, err
	}

	if err := zyg.InitDevice(); err != nil {
		return fail(err)
	}
	for _, h := range opts.TrustedCloudHosts {
		kern.TrustHost(h)
	}
	am := ams.New(kern, zyg, router)
	if store != nil {
		// Degraded write shedding: admission control (when enabled)
		// rejects write-class transactions with the store's typed gate
		// error while the store cannot accept durable writes.
		am.SetStoreGate(store.WriteGate)
	}
	registry := provider.NewRegistry(router)

	ud, err := userdict.NewWithDB(udDB)
	if err != nil {
		return fail(err)
	}
	dl, err := downloads.NewWithDB(dlDB, disk, net)
	if err != nil {
		return fail(err)
	}
	md, err := media.NewWithDB(mdDB, disk)
	if err != nil {
		return fail(err)
	}
	if store != nil {
		// Registration above restored the proxies' table and view
		// catalogs; adoption rebuilds their per-initiator COW machinery
		// maps from the durable _cow_registry.
		for _, p := range []*cowproxy.Proxy{ud.Proxy(), dl.Proxy(), md.Proxy()} {
			if err := p.AdoptRecovered(); err != nil {
				return fail(err)
			}
		}
	}
	registry.Register(ud)
	registry.Register(dl)
	registry.Register(md)

	clipboard := ams.NewClipboard()

	// Everything holding volatile state participates in Clear-Vol.
	am.AddVolatileStore(ud.Proxy())
	am.AddVolatileStore(dl.Proxy())
	am.AddVolatileStore(md.Proxy())
	am.AddVolatileStore(clipboard)

	sys := &System{
		Disk:      disk,
		Net:       net,
		Kernel:    kern,
		Router:    router,
		Zygote:    zyg,
		AM:        am,
		Providers: registry,
		UserDict:  ud,
		Downloads: dl,
		Media:     md,
		Clipboard: clipboard,
		Bluetooth: &ams.Bluetooth{},
		Telephony: &ams.Telephony{},
		Store:     store,
		metrics:   opts.Metrics,
	}
	if store != nil && opts.ScrubInterval > 0 {
		sys.stopMaint = store.StartMaintenance(opts.ScrubInterval)
	}
	return sys, nil
}

// Durable reports whether the system journals state to storage.
func (s *System) Durable() bool { return s.Store != nil }

// Health reports the durable store's position in the health state
// machine. Volatile systems have nothing that can degrade and are
// always Healthy.
func (s *System) Health() health.State {
	if s.Store == nil {
		return health.Healthy
	}
	return s.Store.Health()
}

// Checkpoint compacts the durable state into a fresh snapshot and
// resets the WAL (no-op on volatile systems). Recovery after a crash
// replays snapshot + WAL tail; checkpointing bounds the tail.
func (s *System) Checkpoint() error {
	if s.Store == nil {
		return nil
	}
	return s.Store.Snapshot()
}

// Install installs an app with its manifest (including the Maxoid
// manifest, typically parsed from XML with ParseMaxoidManifest).
// Shutdown stops background work: it joins the download worker pool so
// no provider goroutine outlives the system (tests assert leak-freedom),
// then syncs and closes the durable store, if any.
func (s *System) Shutdown() {
	if s.gw != nil {
		s.gw.Close()
		s.gw = nil
	}
	s.Downloads.Close()
	if s.stopMaint != nil {
		s.stopMaint()
		s.stopMaint = nil
	}
	if s.Store != nil {
		_ = s.Store.Close()
	}
}

func (s *System) Install(app ams.App, manifest ams.Manifest) error {
	return s.AM.Install(app, manifest)
}

// Launch starts an app from the launcher, running as itself.
func (s *System) Launch(pkg string, in intent.Intent) (*ams.Context, error) {
	in.Component = pkg
	return s.AM.StartActivity(nil, in)
}

// LaunchAsDelegate starts app as a delegate of initiator via the
// launcher's "Initiator" drop target (§6.3), without the initiator's
// explicit invocation.
func (s *System) LaunchAsDelegate(app, initiator string, in intent.Intent) (*ams.Context, error) {
	return s.AM.StartDelegateFromLauncher(app, initiator, in)
}

// ClearVol discards Vol(A): the launcher's Clear-Vol drop target.
func (s *System) ClearVol(initiator string) error {
	return s.AM.ClearVol(initiator)
}

// ClearPriv discards Priv(x^A) for all x: the launcher's Clear-Priv
// drop target.
func (s *System) ClearPriv(initiator string) error {
	return s.AM.ClearPriv(initiator)
}

// ListVolatileFiles returns the client-visible EXTDIR/tmp paths of all
// files in initiator A's volatile state, sorted — what A (or the user)
// inspects before committing or discarding (§3.3).
func (s *System) ListVolatileFiles(initiator string) ([]string, error) {
	branch := layout.ExtTmpBranch(initiator)
	if !vfs.Exists(s.Disk, vfs.Root, branch) {
		return nil, nil
	}
	var out []string
	err := vfs.Walk(s.Disk, vfs.Root, branch, func(name string, info vfs.FileInfo) error {
		if info.IsDir() || unionfs.IsWhiteout(name) {
			return nil
		}
		rel := name[len(branch):]
		out = append(out, path.Join(layout.ExtTmpDir, rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// CommitVolatileFile copies one file from Vol(A) to a public location —
// the commit operation of §3.3 ("A can selectively commit the desired
// change by copying it from Vol(A) to a non-volatile place"). volPath is
// the initiator-visible EXTDIR/tmp path; destPath is an EXTDIR path.
func (s *System) CommitVolatileFile(initiator, volPath, destPath string) error {
	rel := volPath
	if len(volPath) >= len(layout.ExtTmpDir) && volPath[:len(layout.ExtTmpDir)] == layout.ExtTmpDir {
		rel = volPath[len(layout.ExtTmpDir):]
	}
	src := path.Join(layout.ExtTmpBranch(initiator), rel)
	dst := layout.PublicBacking(destPath)
	return vfs.CopyFile(s.Disk, s.Disk, vfs.Root, src, dst, 0o666)
}

// VolatileRecords returns initiator A's volatile records in a system
// content provider table, via the provider's tmp-URI path.
func (s *System) VolatileRecords(authority, table, initiator string) (int, error) {
	if _, ok := s.Providers.Provider(authority); !ok {
		return 0, provider.ErrNotFound
	}
	// Count through the provider's volatile URI as the initiator.
	res := provider.NewResolver(s.Router, binder.Caller{Task: kernel.Task{App: initiator}})
	rows, err := res.Query("content://"+authority+"/tmp/"+table, nil, "", "")
	if err != nil {
		return 0, err
	}
	return len(rows.Data), nil
}
