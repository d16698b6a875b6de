package gateway

// Identity resolution: the remote analogue of the kernel knowing who
// opened the binder fd. A token names a (user, app, initiator) triple;
// the gateway binds it to the live AMS instance with that identity so
// the request runs with exactly the caller a local transaction from
// that process would carry. The binding — not handler code — is what
// confines the request: everything downstream (binder policy, COW view
// selection, grants) keys off the resolved binder.Caller.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"maxoid/internal/ams"
	"maxoid/internal/binder"
	"maxoid/internal/kernel"
)

// Typed identity failures; statusFor maps them to 401/403.
var (
	// ErrNoIdentity: the X-Maxoid-Identity header is absent (401).
	ErrNoIdentity = errors.New("gateway: missing identity token")
	// ErrBadIdentity: the token is syntactically malformed (401).
	ErrBadIdentity = errors.New("gateway: malformed identity token")
	// ErrDeadIdentity: the token names an installed app with no live
	// instance — the remote analogue of a dead process (401).
	ErrDeadIdentity = errors.New("gateway: identity has no live instance")
	// ErrUnknownPrincipal: the token names an app that is not installed
	// on this system (403).
	ErrUnknownPrincipal = errors.New("gateway: unknown principal")
	// ErrWrongUser: the token names a user other than the device owner;
	// the system is single-user (paper's model), so this is a probe (403).
	ErrWrongUser = errors.New("gateway: foreign user")
)

// identity is a resolved token: the binder caller every downstream
// layer keys off, plus the AMS context when the instance is live (nil
// for detached identities, which cannot use _fs or _grant routes).
type identity struct {
	task   kernel.Task
	caller binder.Caller
	ctx    *ams.Context
}

// parseToken parses "u<user>:<app>[^<initiator>]" without consulting
// any system state (so it is fuzzable in isolation).
func parseToken(tok string) (user int, task kernel.Task, err error) {
	if tok == "" {
		return 0, kernel.Task{}, ErrNoIdentity
	}
	rest, ok := strings.CutPrefix(tok, "u")
	if !ok {
		return 0, kernel.Task{}, fmt.Errorf("%w: %q", ErrBadIdentity, tok)
	}
	userStr, ident, ok := strings.Cut(rest, ":")
	if !ok {
		return 0, kernel.Task{}, fmt.Errorf("%w: %q", ErrBadIdentity, tok)
	}
	user, perr := strconv.Atoi(userStr)
	if perr != nil || user < 0 {
		return 0, kernel.Task{}, fmt.Errorf("%w: bad user in %q", ErrBadIdentity, tok)
	}
	app, initiator, _ := strings.Cut(ident, "^")
	if app == "" || strings.ContainsAny(app, " /\t\n") || strings.ContainsAny(initiator, " /\t\n^") {
		return 0, kernel.Task{}, fmt.Errorf("%w: %q", ErrBadIdentity, tok)
	}
	return user, kernel.Task{App: app, Initiator: initiator}, nil
}

// resolveIdentity binds a token to a caller. Strict mode (default)
// requires a live AMS instance of exactly that (app, initiator) — the
// caller *is* that instance, PID and all. Detached mode synthesizes a
// kernel-less caller for installed apps, used by perfbench's sync
// workloads.
func (g *Gateway) resolveIdentity(tok string) (identity, error) {
	user, task, err := parseToken(tok)
	if err != nil {
		return identity{}, err
	}
	if user != 0 {
		return identity{}, fmt.Errorf("%w: u%d", ErrWrongUser, user)
	}
	if !g.opts.AMS.IsInstalled(task.App) {
		return identity{}, fmt.Errorf("%w: %s", ErrUnknownPrincipal, task.App)
	}
	if task.IsDelegate() && !g.opts.AMS.IsInstalled(task.Initiator) {
		return identity{}, fmt.Errorf("%w: initiator %s", ErrUnknownPrincipal, task.Initiator)
	}
	ctx, ok := g.opts.AMS.RunningContext(task)
	if !ok || !ctx.Alive() {
		if g.opts.AllowDetached {
			return identity{
				task:   task,
				caller: binder.Caller{PID: 0, UID: 0, Task: task},
			}, nil
		}
		return identity{}, fmt.Errorf("%w: %s", ErrDeadIdentity, task)
	}
	return identity{
		task:   task,
		caller: binder.Caller{PID: ctx.PID(), UID: ctx.Cred().UID, Task: task},
		ctx:    ctx,
	}, nil
}

// Token renders the identity header value for a task — the helper
// clients (the demo, the gateway chaos engine, tests) use.
func Token(task kernel.Task) string {
	if task.Initiator != "" {
		return "u0:" + task.App + "^" + task.Initiator
	}
	return "u0:" + task.App
}
