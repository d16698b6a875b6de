// Package ams implements the Activity Manager Service with Maxoid's
// modifications (paper §3.4, §6.2): it tracks which context every app
// instance runs in (normal or on behalf of an initiator), decides for
// each intent whether the invoked app becomes a delegate (explicit
// intent flag, Maxoid-manifest invoker filters, or invocation-
// transitivity), rejects nested delegation, kills conflicting
// instances, and restricts broadcasts from delegates to the initiator's
// confinement domain.
package ams

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"maxoid/internal/binder"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/zygote"
)

// Errors returned by StartActivity.
var (
	// ErrNoActivity means no installed app matches the intent.
	ErrNoActivity = errors.New("ams: no activity found to handle intent")
	// ErrNestedDelegation is returned when a delegate asks to invoke
	// another app as its own delegate (unsupported, §3.4).
	ErrNestedDelegation = errors.New("ams: nested delegation is not supported")
	// ErrNotInstalled is returned for unknown packages.
	ErrNotInstalled = errors.New("ams: package not installed")
)

// App is the code of an installed application. OnStart is the app's
// entry component; it runs synchronously in the new instance's context.
type App interface {
	Package() string
	OnStart(ctx *Context, in intent.Intent) error
}

// BroadcastReceiver is implemented by apps that receive broadcasts.
type BroadcastReceiver interface {
	OnBroadcast(ctx *Context, in intent.Intent)
}

// Transactor is implemented by apps that accept direct Binder IPC.
type Transactor interface {
	OnTransact(ctx *Context, from binder.Caller, code string, data binder.Parcel) (binder.Parcel, error)
}

// MaxoidManifest is the per-app Maxoid manifest (§6.1): private
// directories on external storage and the invoker intent filters.
type MaxoidManifest struct {
	PrivateExtDirs []string
	Invoker        intent.InvokerPolicy
}

// Manifest describes an installed app.
type Manifest struct {
	Package string
	// Filters describe the intents the app's components handle.
	Filters []intent.Filter
	// Maxoid is the optional Maxoid manifest.
	Maxoid MaxoidManifest
}

// installedApp couples code, manifest, and install-time identity.
type installedApp struct {
	app      App
	manifest Manifest
	uid      int
}

func (ia *installedApp) zygoteInfo() zygote.AppInfo {
	return zygote.AppInfo{
		Package:        ia.manifest.Package,
		UID:            ia.uid,
		PrivateExtDirs: ia.manifest.Maxoid.PrivateExtDirs,
	}
}

// instanceKey identifies a running instance: app package + initiator
// ("" when running as itself).
type instanceKey struct {
	app       string
	initiator string
}

// instance is one running app instance.
type instance struct {
	proc *kernel.Process
	ctx  *Context
}

// VolatileStore is anything holding per-initiator volatile state that
// Clear-Vol must wipe (the providers' COW proxies, the clipboard).
type VolatileStore interface {
	DiscardVolatile(initiator string) error
}

// Manager is the Activity Manager Service.
type Manager struct {
	kern   *kernel.Kernel
	zyg    *zygote.Zygote
	router *binder.Router

	mu        sync.Mutex
	apps      map[string]*installedApp
	running   map[instanceKey]*instance
	volStores []VolatileStore
	grants    grantTable

	// storeGate is the durable store's health gate (core wires it on
	// durable boots); EnableAdmissionControl hands it to the admission
	// controller so degraded stores shed writes at the boundary.
	storeGate func() error
	admission *Admission

	// reclaimDomainOnExit makes the reaper discard an initiator's
	// volatile state (COW deltas, Vol files) once its whole confinement
	// domain has exited. Off by default: the paper keeps Vol(A) until
	// an explicit Clear-Vol (§3.2). The kill-chaos engine turns it on
	// to prove death reclaims everything.
	reclaimDomainOnExit bool

	// Stats observable by tests and the demo tool.
	killedForConflict int
	reaped            int
}

// New creates the Activity Manager, registers its Binder endpoint, and
// wires the supervision chain: binder link-to-death first, then the
// AMS reaper, both as synchronous kernel death watchers.
func New(kern *kernel.Kernel, zyg *zygote.Zygote, router *binder.Router) *Manager {
	m := &Manager{
		kern:    kern,
		zyg:     zyg,
		router:  router,
		apps:    make(map[string]*installedApp),
		running: make(map[instanceKey]*instance),
	}
	router.RegisterSystem("activity", binder.HandlerFunc(
		func(from binder.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
			return nil, fmt.Errorf("ams: unsupported transaction %s", code)
		}))
	router.WatchKernel(kern)
	kern.WatchDeaths(m.onDeath)
	return m
}

// SetReclaimDomainOnExit toggles volatile-domain reclamation on death
// (see the field comment). Call before instances start.
func (m *Manager) SetReclaimDomainOnExit(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reclaimDomainOnExit = on
}

// Router returns the system Binder router.
func (m *Manager) Router() *binder.Router { return m.router }

// Kernel returns the kernel.
func (m *Manager) Kernel() *kernel.Kernel { return m.kern }

// AddVolatileStore registers a store for Clear-Vol.
func (m *Manager) AddVolatileStore(vs VolatileStore) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.volStores = append(m.volStores, vs)
}

// Install installs an app: assigns its UID, prepares its backing
// directories, and records its manifest.
func (m *Manager) Install(app App, manifest Manifest) error {
	if manifest.Package == "" {
		manifest.Package = app.Package()
	}
	if manifest.Package != app.Package() {
		return fmt.Errorf("ams: manifest package %q != app package %q", manifest.Package, app.Package())
	}
	uid := m.kern.AssignUID(manifest.Package)
	ia := &installedApp{app: app, manifest: manifest, uid: uid}
	if err := m.zyg.InstallApp(ia.zygoteInfo()); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.apps[manifest.Package] = ia
	return nil
}

// Installed returns the installed package names, sorted.
func (m *Manager) Installed() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.apps))
	for pkg := range m.apps {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}

// resolveTarget finds the app that handles an intent. An explicit
// component wins; otherwise manifests' filters are matched, excluding
// the sender's own package, with the ResolverActivity's choice modeled
// as the lexicographically first match.
func (m *Manager) resolveTarget(senderPkg string, in intent.Intent) (*installedApp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if in.Component != "" {
		ia, ok := m.apps[in.Component]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotInstalled, in.Component)
		}
		return ia, nil
	}
	var names []string
	for pkg, ia := range m.apps {
		if pkg == senderPkg {
			continue
		}
		for _, f := range ia.manifest.Filters {
			if f.Matches(in) {
				names = append(names, pkg)
				break
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: action %s data %s", ErrNoActivity, in.Action, in.Data)
	}
	sort.Strings(names)
	return m.apps[names[0]], nil
}

// ResolveCandidates returns every installed package whose filters match
// the intent, sorted — what Android's ResolverActivity would present to
// the user. The ResolverActivity itself is "considered an intent
// channel rather than an app instance" (§6.2): the delegate decision is
// made for the app the user finally picks, not for the chooser.
func (m *Manager) ResolveCandidates(senderPkg string, in intent.Intent) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for pkg, ia := range m.apps {
		if pkg == senderPkg {
			continue
		}
		for _, f := range ia.manifest.Filters {
			if f.Matches(in) {
				names = append(names, pkg)
				break
			}
		}
	}
	sort.Strings(names)
	return names
}

// decideInitiator determines the invoked instance's initiator context.
// sender is nil for launcher-originated starts.
func decideInitiator(sender *Context, target string, in intent.Intent) (string, error) {
	if sender == nil {
		// Launcher start: normal unless the user chose an initiator via
		// the drop target (handled by StartDelegateFromLauncher).
		return "", nil
	}
	senderTask := sender.proc.Task
	if senderTask.IsDelegate() {
		// Invocation-transitivity (§3.4): the invoked instance is
		// forced to be a delegate of the same initiator. Asking for a
		// fresh delegation is nested delegation and fails.
		if in.HasFlag(intent.FlagDelegate) {
			return "", ErrNestedDelegation
		}
		if target == senderTask.Initiator {
			// Invoking the initiator itself: it runs as itself.
			return "", nil
		}
		return senderTask.Initiator, nil
	}
	// Sender is an initiator: explicit flag or manifest filters decide.
	if in.HasFlag(intent.FlagDelegate) {
		return senderTask.App, nil
	}
	if sender.invokerPolicy().Private(in) {
		return senderTask.App, nil
	}
	return "", nil
}

// StartActivity resolves and starts the app handling the intent on
// behalf of the sender. It returns the started instance's context. The
// target's OnStart runs synchronously before StartActivity returns,
// modeling the foreground activity switch.
func (m *Manager) StartActivity(sender *Context, in intent.Intent) (*Context, error) {
	senderPkg := ""
	if sender != nil {
		if err := sender.checkAlive("start activity"); err != nil {
			return nil, err
		}
		senderPkg = sender.proc.Task.App
	}
	target, err := m.resolveTarget(senderPkg, in)
	if err != nil {
		return nil, err
	}
	initiator, err := decideInitiator(sender, target.manifest.Package, in)
	if err != nil {
		return nil, err
	}
	// Android's per-URI permission: grant the receiver one-time read
	// access to the intent's data file, opened through the sender.
	if sender != nil && in.HasFlag(intent.FlagGrantReadURIPermission) && in.Data != "" {
		m.grants.add(sender.proc.PID, target.manifest.Package, in.Data)
	}
	return m.startInstance(target, initiator, in)
}

// StartDelegateFromLauncher starts app as a delegate of initiator
// without the initiator's explicit invocation — the Launcher's
// "Initiator" drop target (§6.3).
func (m *Manager) StartDelegateFromLauncher(app, initiator string, in intent.Intent) (*Context, error) {
	m.mu.Lock()
	target, ok := m.apps[app]
	_, initiatorInstalled := m.apps[initiator]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotInstalled, app)
	}
	if !initiatorInstalled {
		return nil, fmt.Errorf("%w: %s", ErrNotInstalled, initiator)
	}
	return m.startInstance(target, initiator, in)
}

// startInstance gets or creates the instance for (app, initiator),
// killing conflicting instances, and delivers the intent.
func (m *Manager) startInstance(target *installedApp, initiator string, in intent.Intent) (*Context, error) {
	pkg := target.manifest.Package
	if initiator == pkg {
		initiator = "" // running on behalf of itself is normal execution
	}

	m.mu.Lock()
	// Collect instances of this app running in a different context
	// (§6.2: "that instance will be killed"), including the normal
	// instance when a delegate starts (§4.2 consistency). The kills
	// happen after m.mu is released: the kernel notifies death watchers
	// synchronously and the reaper (onDeath) retakes m.mu.
	var conflicting []int
	for key, inst := range m.running {
		if key.app == pkg && key.initiator != initiator {
			conflicting = append(conflicting, inst.proc.PID)
		}
	}
	key := instanceKey{app: pkg, initiator: initiator}
	inst, alreadyRunning := m.running[key]
	m.mu.Unlock()
	for _, pid := range conflicting {
		// A concurrent death of the same PID is fine: kill is idempotent.
		_ = m.kern.KillReason(pid, kernel.ReasonConflict)
	}

	if !alreadyRunning {
		var proc *kernel.Process
		var err error
		if initiator == "" {
			proc, err = m.zyg.ForkInitiator(target.zygoteInfo())
		} else {
			m.mu.Lock()
			initApp, ok := m.apps[initiator]
			m.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("%w: %s", ErrNotInstalled, initiator)
			}
			// nPriv lifecycle (§3.2): discard if diverged, then mark.
			diverged, derr := m.zyg.NPrivDiverged(pkg, initiator)
			if derr != nil {
				return nil, derr
			}
			if diverged {
				if err := m.zyg.DiscardNPriv(pkg, initiator); err != nil {
					return nil, err
				}
			}
			if err := m.zyg.MarkNPrivForked(pkg, initiator); err != nil {
				return nil, err
			}
			proc, err = m.zyg.ForkDelegate(target.zygoteInfo(), initApp.zygoteInfo())
		}
		if err != nil {
			return nil, err
		}
		ctx := &Context{mgr: m, proc: proc, app: target}
		inst = &instance{proc: proc, ctx: ctx}
		m.mu.Lock()
		m.running[key] = inst
		m.mu.Unlock()
		// Owned registration: link-to-death tears the endpoint down with
		// the process.
		m.router.RegisterOwned(endpointFor(proc.Task), proc.Task, proc.PID, &appEndpoint{inst: inst})
	}

	if err := target.app.OnStart(inst.ctx, in); err != nil {
		return inst.ctx, err
	}
	return inst.ctx, nil
}

// endpointFor names an instance's Binder endpoint.
func endpointFor(task kernel.Task) string {
	return "app:" + task.String()
}

// appEndpoint adapts an app's optional Transactor to Binder.
type appEndpoint struct {
	inst *instance
}

func (e *appEndpoint) OnTransact(from binder.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
	if tr, ok := e.inst.ctx.app.app.(Transactor); ok {
		return tr.OnTransact(e.inst.ctx, from, code, data)
	}
	return nil, fmt.Errorf("ams: app %s does not accept transactions", e.inst.ctx.app.manifest.Package)
}

// onDeath is the AMS reaper, registered as a kernel death watcher. It
// runs synchronously on the killing goroutine for every process exit —
// whatever the path (stop, conflict kill, crash, chaos) — and tears
// down everything the Activity Manager holds for the instance: the
// running-table entry, the Binder endpoint, and the URI grants the
// process issued. Crashes are charged to the app's restart budget.
// When reclaimDomainOnExit is set and the death empties a confinement
// domain, the domain's volatile state is discarded too.
//
// Lock ordering: onDeath takes m.mu, so no AMS path may call into
// kernel Kill while holding m.mu (see DESIGN.md).
func (m *Manager) onDeath(ev kernel.DeathEvent) {
	key := instanceKey{app: ev.Task.App, initiator: ev.Task.Initiator}
	if !ev.Task.IsDelegate() {
		key.initiator = ""
	}
	domain := ev.Task.Initiator
	if !ev.Task.IsDelegate() {
		domain = ev.Task.App
	}

	m.mu.Lock()
	if inst, ok := m.running[key]; ok && inst.proc.PID == ev.PID {
		delete(m.running, key)
		m.reaped++
		if ev.Reason == kernel.ReasonConflict {
			m.killedForConflict++
		}
	}
	reclaim := m.reclaimDomainOnExit && m.domainEmptyLocked(domain)
	var stores []VolatileStore
	if reclaim {
		stores = append(stores, m.volStores...)
	}
	m.mu.Unlock()

	m.router.Unregister(endpointFor(ev.Task))
	m.grants.revokeGrantor(ev.PID)
	if ev.Reason == kernel.ReasonCrash {
		m.zyg.Budget().RecordCrash(ev.Task.App)
	}
	if reclaim {
		for _, vs := range stores {
			_ = vs.DiscardVolatile(domain)
		}
		_ = m.zyg.DiscardVolFiles(domain)
	}
}

// domainEmptyLocked reports whether initiator's confinement domain has
// no live instance: neither the initiator itself nor any delegate of
// it. Caller holds m.mu.
func (m *Manager) domainEmptyLocked(initiator string) bool {
	for key := range m.running {
		if key.initiator == initiator || (key.app == initiator && key.initiator == "") {
			return false
		}
	}
	return true
}

// StopInstance kills a running instance (back button / task swipe).
// Teardown happens in the reaper.
func (m *Manager) StopInstance(app, initiator string) {
	m.mu.Lock()
	key := instanceKey{app: app, initiator: initiator}
	var pid int
	inst, ok := m.running[key]
	if ok {
		pid = inst.proc.PID
	}
	m.mu.Unlock()
	if ok {
		_ = m.kern.Kill(pid)
	}
}

// Reaped reports how many instance deaths the reaper has processed.
func (m *Manager) Reaped() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reaped
}

// NumRunning returns the live instance count (leak counter).
func (m *Manager) NumRunning() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.running)
}

// OutstandingGrants returns the live URI-grant count (leak counter).
func (m *Manager) OutstandingGrants() int { return m.grants.count() }

// RunningContext returns the live Context for a task — the seam remote
// boundaries (the gateway) use to bind an identity token to the same
// AMS-managed instance a local caller holds. Returns false when no
// instance of that (app, initiator) is running, so callers can turn a
// dead or never-started identity into a typed authorization failure.
func (m *Manager) RunningContext(task kernel.Task) (*Context, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.running[instanceKey{app: task.App, initiator: task.Initiator}]
	if !ok {
		return nil, false
	}
	return inst.ctx, true
}

// IsInstalled reports whether a package is installed — the gateway uses
// it to distinguish an unknown principal (403) from a known-but-dead
// one (401).
func (m *Manager) IsInstalled(pkg string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.apps[pkg]
	return ok
}

// Running returns the tasks of all running instances, sorted by
// notation string.
func (m *Manager) Running() []kernel.Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]kernel.Task, 0, len(m.running))
	for _, inst := range m.running {
		out = append(out, inst.proc.Task)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// KilledForConflict reports how many instances were killed because an
// instance with a different initiator context started.
func (m *Manager) KilledForConflict() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killedForConflict
}

// SendBroadcast delivers the intent to all installed apps with matching
// filters. Broadcasts from delegates of A are delivered only to A and
// delegates of A (§3.4); matching apps not yet running in that context
// are started as delegates of A.
func (m *Manager) SendBroadcast(sender *Context, in intent.Intent) error {
	if err := sender.checkAlive("send broadcast"); err != nil {
		return err
	}
	senderTask := sender.proc.Task
	m.mu.Lock()
	var targets []*installedApp
	for pkg, ia := range m.apps {
		if pkg == senderTask.App {
			continue
		}
		for _, f := range ia.manifest.Filters {
			if f.Matches(in) {
				targets = append(targets, ia)
				break
			}
		}
	}
	m.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool {
		return targets[i].manifest.Package < targets[j].manifest.Package
	})

	for _, target := range targets {
		initiator := ""
		if senderTask.IsDelegate() {
			initiator = senderTask.Initiator
			if target.manifest.Package == initiator {
				initiator = ""
			}
		}
		ctx, err := m.contextFor(target, initiator)
		if err != nil {
			return err
		}
		if br, ok := target.app.(BroadcastReceiver); ok {
			br.OnBroadcast(ctx, in)
		}
	}
	return nil
}

// restartInstance brings (task.App, task.Initiator) back up without
// delivering a start intent — the supervised-restart path behind
// Context.CallAppRetry. The fork is subject to the restart budget.
func (m *Manager) restartInstance(task kernel.Task) error {
	m.mu.Lock()
	target, ok := m.apps[task.App]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotInstalled, task.App)
	}
	initiator := ""
	if task.IsDelegate() {
		initiator = task.Initiator
	}
	_, err := m.contextFor(target, initiator)
	return err
}

// contextFor returns the running context for (app, initiator), spawning
// the instance (without an OnStart intent) if needed.
func (m *Manager) contextFor(target *installedApp, initiator string) (*Context, error) {
	pkg := target.manifest.Package
	m.mu.Lock()
	inst, ok := m.running[instanceKey{app: pkg, initiator: initiator}]
	m.mu.Unlock()
	if ok {
		return inst.ctx, nil
	}
	// Spawn without delivering a start intent: mimic a broadcast-only
	// process start.
	noStart := &installedApp{app: silentApp{pkg: pkg, inner: target.app}, manifest: target.manifest, uid: target.uid}
	return m.startInstance(noStart, initiator, intent.Intent{})
}

// silentApp suppresses OnStart for broadcast-only process spawns while
// keeping the receiver behavior of the wrapped app.
type silentApp struct {
	pkg   string
	inner App
}

func (s silentApp) Package() string                       { return s.pkg }
func (s silentApp) OnStart(*Context, intent.Intent) error { return nil }
func (s silentApp) OnBroadcast(ctx *Context, in intent.Intent) {
	if br, ok := s.inner.(BroadcastReceiver); ok {
		br.OnBroadcast(ctx, in)
	}
}
func (s silentApp) OnTransact(ctx *Context, from binder.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
	if tr, ok := s.inner.(Transactor); ok {
		return tr.OnTransact(ctx, from, code, data)
	}
	return nil, fmt.Errorf("ams: app %s does not accept transactions", s.pkg)
}

// ClearVol discards initiator A's entire volatile state: volatile files
// (Zygote branches) and volatile records in every registered store —
// the Launcher's Clear-Vol drop target (§6.3).
func (m *Manager) ClearVol(initiator string) error {
	// Kill A's delegates first so they do not write concurrently. Kills
	// run outside m.mu (the reaper retakes it).
	m.mu.Lock()
	var victims []int
	for key, inst := range m.running {
		if key.initiator == initiator {
			victims = append(victims, inst.proc.PID)
		}
	}
	stores := append([]VolatileStore{}, m.volStores...)
	m.mu.Unlock()
	for _, pid := range victims {
		_ = m.kern.Kill(pid)
	}
	if err := m.zyg.DiscardVolFiles(initiator); err != nil {
		return err
	}
	for _, vs := range stores {
		if err := vs.DiscardVolatile(initiator); err != nil {
			return err
		}
	}
	return nil
}

// ClearPriv discards Priv(x^A) for all x: every app's normal and
// persistent private state forked for initiator A — the Launcher's
// Clear-Priv drop target (§6.3).
func (m *Manager) ClearPriv(initiator string) error {
	m.mu.Lock()
	var pkgs []string
	for pkg := range m.apps {
		pkgs = append(pkgs, pkg)
	}
	var victims []int
	for key, inst := range m.running {
		if key.initiator == initiator {
			victims = append(victims, inst.proc.PID)
		}
	}
	m.mu.Unlock()
	for _, pid := range victims {
		_ = m.kern.Kill(pid)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		if pkg == initiator {
			continue
		}
		if err := m.zyg.DiscardNPriv(pkg, initiator); err != nil {
			return err
		}
		if err := m.zyg.DiscardPPriv(pkg, initiator); err != nil {
			return err
		}
	}
	return nil
}
