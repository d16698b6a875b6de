// Package kernel simulates the kernel-level mechanisms Maxoid adds to
// Linux/Android (paper §6.2 item 3):
//
//  1. Task tagging: every process's task struct carries the app it
//     belongs to and, if it is a delegate, the initiator it runs on
//     behalf of. Zygote sets these through a sysfs-like interface at
//     fork time; they are immutable afterwards.
//  2. Network gate: connect() returns ENETUNREACH for delegates,
//     emulating loss of network connection (as in AppFence).
//  3. Binder policy: direct IPC for a delegate is restricted to trusted
//     system services, its initiator, and delegates of the same
//     initiator. The policy function is consumed by package binder.
//
// The kernel also owns the process table and the assignment of per-app
// UIDs (Android's app sandboxing primitive).
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"maxoid/internal/mount"
	"maxoid/internal/netstack"
	"maxoid/internal/shard"
)

// ErrNetUnreachable is the ENETUNREACH the connect syscall returns for
// delegates.
var ErrNetUnreachable = errors.New("connect: network is unreachable (ENETUNREACH)")

// ErrPermissionDenied is the EPERM for disallowed Binder transactions.
var ErrPermissionDenied = errors.New("binder: permission denied (EPERM)")

// FirstAppUID is the base of the per-app UID range, matching Android's
// convention of app UIDs starting at 10000.
const FirstAppUID = 10000

// firstPID is the first PID Spawn hands out. PIDs count up from it and
// are never reused.
const firstPID = 100

// Task identifies an app execution context: which app, and which
// initiator it runs on behalf of ("" when running as itself).
type Task struct {
	App       string
	Initiator string
}

// IsDelegate reports whether the task runs on behalf of another app.
func (t Task) IsDelegate() bool { return t.Initiator != "" && t.Initiator != t.App }

// String renders B^A notation for delegates.
func (t Task) String() string {
	if t.IsDelegate() {
		return t.App + "^" + t.Initiator
	}
	return t.App
}

// Process is a running app instance.
type Process struct {
	PID  int
	UID  int
	Task Task
	// NS is the process's private mount namespace, set up by Zygote.
	NS *mount.Namespace

	kern  *Kernel
	alive atomic.Bool
}

// Alive reports whether the process still exists.
func (p *Process) Alive() bool {
	return p.alive.Load()
}

// Connect opens a connection to host, enforcing the Maxoid network gate:
// delegates get ENETUNREACH (paper §2.4 "Network" and §6.2), except for
// hosts on the trusted-cloud whitelist — the πBox-style extension the
// paper sketches ("preventing apps from accessing network resources
// other than the trusted cloud").
func (p *Process) Connect(host string) (*Conn, error) {
	p.kern.trustMu.RLock()
	trusted := p.kern.trustedHosts[host]
	p.kern.trustMu.RUnlock()
	if !p.alive.Load() {
		return nil, ErrDeadProcess
	}
	if p.Task.IsDelegate() && !trusted {
		return nil, ErrNetUnreachable
	}
	return &Conn{net: p.kern.net, host: host}, nil
}

// Conn is an open connection to a host.
type Conn struct {
	net  *netstack.Network
	host string
}

// Do performs one request/response exchange on the connection.
func (c *Conn) Do(path string, body []byte) (netstack.Response, error) {
	return c.net.RoundTrip(netstack.Request{Host: c.host, Path: path, Body: body})
}

// Kernel owns the process table and security policy. The process table
// is sharded by PID so hot-path lookups and policy checks from
// independent instances do not serialize; UID assignment and the
// trusted-host set sit behind their own small locks.
type Kernel struct {
	procs   *shard.Map[int, *Process]
	nextPID atomic.Int64

	uidMu   sync.Mutex
	nextUID int
	uids    map[string]int // app package -> UID

	net *netstack.Network

	// trustedHosts is the πBox-style trusted cloud: hosts delegates may
	// still reach. Empty by default (the paper's base design).
	trustMu      sync.RWMutex
	trustedHosts map[string]bool

	// deaths holds the death watchers (death.go).
	deaths deathState
}

// New creates a kernel attached to a (possibly nil) network.
func New(net *netstack.Network) *Kernel {
	if net == nil {
		net = netstack.New(0, 0)
	}
	k := &Kernel{
		procs:        shard.NewMap[int, *Process](shard.IntHash),
		nextUID:      FirstAppUID,
		uids:         make(map[string]int),
		net:          net,
		trustedHosts: make(map[string]bool),
	}
	k.nextPID.Store(firstPID)
	return k
}

// TrustHost adds a host to the trusted cloud: delegates may connect to
// it despite the network gate. Use only for infrastructure that itself
// enforces confinement (the paper's πBox reference [18]).
func (k *Kernel) TrustHost(host string) {
	k.trustMu.Lock()
	defer k.trustMu.Unlock()
	k.trustedHosts[host] = true
}

// Network returns the attached network (for trusted system services,
// which are not subject to the delegate gate).
func (k *Kernel) Network() *netstack.Network { return k.net }

// AssignUID returns the stable UID for an app package, allocating one on
// first use (Android assigns each app a dedicated Unix UID at install).
func (k *Kernel) AssignUID(app string) int {
	k.uidMu.Lock()
	defer k.uidMu.Unlock()
	if uid, ok := k.uids[app]; ok {
		return uid
	}
	uid := k.nextUID
	k.nextUID++
	k.uids[app] = uid
	return uid
}

// Spawn creates a process for task with its own mount namespace. In the
// real system Zygote forks and then writes the task context through
// sysfs; here Spawn is that combined operation, and the context is
// immutable afterwards, which is what the security argument needs.
func (k *Kernel) Spawn(task Task, uid int, ns *mount.Namespace) *Process {
	p := &Process{
		PID:  int(k.nextPID.Add(1) - 1),
		UID:  uid,
		Task: task,
		NS:   ns,
		kern: k,
	}
	p.alive.Store(true)
	k.procs.Store(p.PID, p)
	return p
}

// Process looks up a live process by PID.
func (k *Kernel) Process(pid int) (*Process, bool) {
	return k.procs.Get(pid)
}

// Processes returns a snapshot of all live processes.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, k.procs.Len())
	k.procs.Range(func(_ int, p *Process) bool {
		out = append(out, p)
		return true
	})
	return out
}

// CheckBinder implements the Maxoid Binder restriction: a delegate of A
// may transact only with trusted system services, with A itself (running
// as initiator), and with other delegates of A. Everyone else follows
// stock Android rules (allowed; higher layers do their own checks).
func CheckBinder(from Task, toSystem bool, to Task) error {
	if !from.IsDelegate() {
		return nil
	}
	if toSystem {
		return nil
	}
	a := from.Initiator
	// A running on behalf of itself.
	if to.App == a && !to.IsDelegate() {
		return nil
	}
	// Delegates of the same initiator (including other instances of the
	// same app confined to A).
	if to.Initiator == a {
		return nil
	}
	return fmt.Errorf("%w: %s -> %s", ErrPermissionDenied, from, to)
}
