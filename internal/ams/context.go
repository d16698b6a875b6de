package ams

import (
	"errors"
	"fmt"

	"maxoid/internal/binder"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/layout"
	"maxoid/internal/provider"
	"maxoid/internal/vfs"
)

// Context is the app-facing API of a running instance: what an Android
// Context plus the Maxoid additions (§6.1 "APIs for delegates") give
// app code. All storage access goes through the instance's mount
// namespace, so the Maxoid views apply transparently.
type Context struct {
	mgr  *Manager
	proc *kernel.Process
	app  *installedApp
}

// Package returns the app's package name.
func (c *Context) Package() string { return c.proc.Task.App }

// Task returns the kernel task identity (app + initiator).
func (c *Context) Task() kernel.Task { return c.proc.Task }

// PID returns the instance's process ID.
func (c *Context) PID() int { return c.proc.PID }

// IsDelegate reports whether this instance runs on behalf of another
// app — the Maxoid delegate query API.
func (c *Context) IsDelegate() bool { return c.proc.Task.IsDelegate() }

// Initiator returns the initiator this instance runs on behalf of
// ("" when running as itself) — the Maxoid delegate query API.
func (c *Context) Initiator() string {
	if c.proc.Task.IsDelegate() {
		return c.proc.Task.Initiator
	}
	return ""
}

// FS returns the instance's view of the filesystem (its mount
// namespace). Paths are the client-visible ones from package layout.
func (c *Context) FS() vfs.FileSystem { return c.proc.NS }

// Cred returns the instance's filesystem credential.
func (c *Context) Cred() vfs.Cred { return vfs.Cred{UID: c.proc.UID} }

// DataDir returns the app's internal private directory path.
func (c *Context) DataDir() string { return layout.AppData(c.Package()) }

// PPrivDir returns the persistent private directory path, usable only
// when running as a delegate (§3.2).
func (c *Context) PPrivDir() string { return layout.AppPPriv(c.Package()) }

// ExtDir returns the external storage path.
func (c *Context) ExtDir() string { return layout.ExtDir }

// VolDir returns the initiator-visible directory of its volatile files.
func (c *Context) VolDir() string { return layout.ExtTmpDir }

// caller builds the Binder caller identity of this instance.
func (c *Context) caller() binder.Caller {
	return binder.Caller{PID: c.proc.PID, UID: c.proc.UID, Task: c.proc.Task}
}

// Resolver returns the ContentResolver bound to this instance.
func (c *Context) Resolver() *provider.Resolver {
	return provider.NewResolver(c.mgr.router, c.caller())
}

// CallProvider performs a provider-specific Binder transaction (e.g.
// the Media scanner's "scan").
func (c *Context) CallProvider(authority, code string, data binder.Parcel) (binder.Parcel, error) {
	return c.mgr.router.Call(c.caller(), "provider:"+authority, code, data)
}

// CallApp performs direct Binder IPC to another app instance, subject
// to the kernel's Maxoid Binder policy. The target is named by task
// notation ("pkg" or "pkg^initiator").
func (c *Context) CallApp(task kernel.Task, code string, data binder.Parcel) (binder.Parcel, error) {
	return c.mgr.router.Call(c.caller(), endpointFor(task), code, data)
}

// CallAppRetry is CallApp for idempotent transactions, with
// supervision: dead-target and timeout failures are retried with
// backoff, and if the target stays gone the Activity Manager restarts
// it (subject to Zygote's restart budget) and tries once more. A
// restart refused by the budget surfaces the typed
// zygote.ErrRestartBudgetExhausted.
func (c *Context) CallAppRetry(task kernel.Task, code string, data binder.Parcel) (binder.Parcel, error) {
	name := endpointFor(task)
	reply, err := c.mgr.router.CallIdempotent(c.caller(), name, code, data)
	if err == nil ||
		!(errors.Is(err, kernel.ErrDeadProcess) || errors.Is(err, binder.ErrNoEndpoint)) {
		return reply, err
	}
	if rerr := c.mgr.restartInstance(task); rerr != nil {
		return nil, fmt.Errorf("ams: restart of %s for retry: %w", task, rerr)
	}
	return c.mgr.router.CallIdempotent(c.caller(), name, code, data)
}

// Connect opens a network connection; delegates get ENETUNREACH.
func (c *Context) Connect(host string) (*kernel.Conn, error) {
	return c.proc.Connect(host)
}

// StartActivity invokes another app with the intent; Maxoid decides the
// invoked instance's context (§3.4).
func (c *Context) StartActivity(in intent.Intent) (*Context, error) {
	return c.mgr.StartActivity(c, in)
}

// SendBroadcast sends a broadcast intent, restricted for delegates.
func (c *Context) SendBroadcast(in intent.Intent) error {
	return c.mgr.SendBroadcast(c, in)
}

// invokerPolicy returns the app's Maxoid-manifest invoker policy.
func (c *Context) invokerPolicy() intent.InvokerPolicy {
	return c.app.manifest.Maxoid.Invoker
}

// Alive reports whether the instance's process is still running.
func (c *Context) Alive() bool { return c.proc.Alive() }

// checkAlive fails an operation sent from a dead instance: it must not
// start instances or record grants the reaper has already swept.
func (c *Context) checkAlive(op string) error {
	if !c.proc.Alive() {
		return fmt.Errorf("ams: %s from pid %d: %w", op, c.proc.PID, kernel.ErrDeadProcess)
	}
	return nil
}
