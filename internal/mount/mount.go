// Package mount implements per-process mount namespaces.
//
// A Namespace maps mount points (absolute paths) to filesystems
// (vfs.FileSystem implementations: plain disk sub-trees or unionfs
// unions). Path resolution picks the longest-prefix mount, mimicking how
// the Linux VFS dispatches across mounts. Zygote gives every app process
// its own namespace (the paper's unshare() call) and the Aufs branch
// manager populates it; this is what makes Maxoid views per-app-instance
// rather than global.
//
// A Namespace itself implements vfs.FileSystem, so app code is written
// against one interface regardless of what is mounted where.
package mount

import (
	"errors"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"maxoid/internal/vfs"
)

// ErrNoMount is returned when a path resolves to no mounted filesystem.
// A closed namespace resolves nothing, so its file operations fail fast
// with this error, or with the death cause CloseWith handed over.
var ErrNoMount = errors.New("mount: no filesystem mounted for path")

// liveNamespaces counts namespaces created and not yet closed — the
// leak counter the lifecycle chaos engine compares against baseline.
var liveNamespaces atomic.Int64

// Live returns the number of open namespaces in the process.
func Live() int64 { return liveNamespaces.Load() }

// ErrCrossDevice is returned for renames spanning two mounts.
var ErrCrossDevice = errors.New("mount: cross-device rename")

// Entry is one row of the mount table.
type Entry struct {
	Point string
	FS    vfs.FileSystem
}

// Namespace is a mount table. The zero value is an empty namespace.
// Namespaces are safe for concurrent use.
//
// The table itself is an immutable snapshot behind an atomic pointer:
// Mount and Unmount build a fresh sorted slice and publish it, so path
// resolution — the per-syscall hot path — never takes a lock. A nil
// snapshot reads as the empty table, preserving the zero-value contract.
type Namespace struct {
	writeMu sync.Mutex              // serializes mutators only
	closed  bool                    // guarded by writeMu
	mounts  atomic.Pointer[[]Entry] // sorted by descending point length
	cause   atomic.Pointer[error]   // set by CloseWith; nil reads as ErrNoMount
}

// New returns an empty namespace.
func New() *Namespace {
	liveNamespaces.Add(1)
	return &Namespace{}
}

// snapshot returns the current immutable mount table (possibly nil).
func (ns *Namespace) snapshot() []Entry {
	if p := ns.mounts.Load(); p != nil {
		return *p
	}
	return nil
}

// publish installs a new snapshot, sorted longest point first.
func (ns *Namespace) publish(mounts []Entry) {
	sort.Slice(mounts, func(i, j int) bool {
		return len(mounts[i].Point) > len(mounts[j].Point)
	})
	ns.mounts.Store(&mounts)
}

// Mount attaches fsys at point, replacing any existing mount at exactly
// that point (mount shadowing within a point is not needed by Maxoid).
func (ns *Namespace) Mount(point string, fsys vfs.FileSystem) {
	cleaned := vfs.Clean(point)
	ns.writeMu.Lock()
	defer ns.writeMu.Unlock()
	if ns.closed {
		return // mounting into a dead process's namespace is a no-op
	}
	old := ns.snapshot()
	mounts := make([]Entry, 0, len(old)+1)
	replaced := false
	for _, e := range old {
		if e.Point == cleaned {
			e.FS = fsys
			replaced = true
		}
		mounts = append(mounts, e)
	}
	if !replaced {
		mounts = append(mounts, Entry{Point: cleaned, FS: fsys})
	}
	ns.publish(mounts)
}

// Unmount removes the mount at exactly point. It is not an error if no
// such mount exists.
func (ns *Namespace) Unmount(point string) {
	cleaned := vfs.Clean(point)
	ns.writeMu.Lock()
	defer ns.writeMu.Unlock()
	old := ns.snapshot()
	mounts := make([]Entry, 0, len(old))
	for _, e := range old {
		if e.Point != cleaned {
			mounts = append(mounts, e)
		}
	}
	ns.publish(mounts)
}

// Clone returns a copy of the namespace sharing the mounted filesystems
// but with an independent mount table — the semantics of unshare(2) with
// CLONE_NEWNS. Because snapshots are immutable, the clone simply shares
// the current one; the tables diverge on the first mutation of either.
func (ns *Namespace) Clone() *Namespace {
	out := New()
	if p := ns.mounts.Load(); p != nil {
		out.mounts.Store(p)
	}
	return out
}

// Close releases the namespace: the mount table is emptied
// (subsequent resolutions fail with ErrNoMount) and every mounted
// filesystem that itself has a lifecycle — union mounts with their
// branches — is closed. Close is idempotent; it returns the first
// error from a mounted filesystem's Close.
func (ns *Namespace) Close() error { return ns.CloseWith(nil) }

// CloseWith is Close for a namespace whose process died: resolutions
// after it fail with cause rather than ErrNoMount, so file operations
// through a dead process report why. The kernel passes its typed death
// error; package mount cannot name it.
func (ns *Namespace) CloseWith(cause error) error {
	ns.writeMu.Lock()
	defer ns.writeMu.Unlock()
	if ns.closed {
		return nil
	}
	ns.closed = true
	if cause != nil {
		ns.cause.Store(&cause) // before the empty table is published
	}
	liveNamespaces.Add(-1)
	snap := ns.snapshot()
	ns.publish(nil)
	var firstErr error
	for _, e := range snap {
		if c, ok := e.FS.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Table returns the mount table sorted by mount point, for display
// (the Table 2 dump in the paper).
func (ns *Namespace) Table() []Entry {
	snap := ns.snapshot()
	out := make([]Entry, len(snap))
	copy(out, snap)
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// Resolve maps an absolute path to (filesystem, path-within-filesystem)
// using longest-prefix matching. It is lock-free: resolution walks the
// immutable snapshot current at the time of the call.
func (ns *Namespace) Resolve(name string) (vfs.FileSystem, string, error) {
	cleaned := vfs.Clean(name)
	for _, e := range ns.snapshot() { // sorted longest first
		if cleaned == e.Point {
			return e.FS, "/", nil
		}
		if e.Point == "/" {
			return e.FS, cleaned, nil
		}
		if strings.HasPrefix(cleaned, e.Point) && cleaned[len(e.Point)] == '/' {
			// The suffix starting at the point's trailing slash is the
			// path within the mount — a substring, no allocation.
			return e.FS, cleaned[len(e.Point):], nil
		}
	}
	err := ErrNoMount
	if cause := ns.cause.Load(); cause != nil {
		err = *cause
	}
	return nil, "", &fs.PathError{Op: "resolve", Path: cleaned, Err: err}
}

// --- vfs.FileSystem implementation, dispatching through Resolve ---

// Open opens the named file in whatever filesystem is mounted there.
func (ns *Namespace) Open(c vfs.Cred, name string, flags int, perm fs.FileMode) (vfs.Handle, error) {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return nil, err
	}
	return fsys.Open(c, rel, flags, perm)
}

// Stat stats the named file.
func (ns *Namespace) Stat(c vfs.Cred, name string) (vfs.FileInfo, error) {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fsys.Stat(c, rel)
}

// ReadDir lists the named directory.
func (ns *Namespace) ReadDir(c vfs.Cred, name string) ([]vfs.DirEntry, error) {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return nil, err
	}
	return fsys.ReadDir(c, rel)
}

// Mkdir creates the named directory.
func (ns *Namespace) Mkdir(c vfs.Cred, name string, perm fs.FileMode) error {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return err
	}
	return fsys.Mkdir(c, rel, perm)
}

// MkdirAll creates the named directory and missing parents.
func (ns *Namespace) MkdirAll(c vfs.Cred, name string, perm fs.FileMode) error {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return err
	}
	return fsys.MkdirAll(c, rel, perm)
}

// Remove deletes the named file or empty directory.
func (ns *Namespace) Remove(c vfs.Cred, name string) error {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return err
	}
	return fsys.Remove(c, rel)
}

// RemoveAll deletes the named tree.
func (ns *Namespace) RemoveAll(c vfs.Cred, name string) error {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return err
	}
	return fsys.RemoveAll(c, rel)
}

// Rename moves oldname to newname. Renames within a single mount
// delegate to it; cross-mount renames fall back to copy + delete, like
// a userspace mv across devices.
func (ns *Namespace) Rename(c vfs.Cred, oldname, newname string) error {
	srcFS, srcRel, err := ns.Resolve(oldname)
	if err != nil {
		return err
	}
	dstFS, dstRel, err := ns.Resolve(newname)
	if err != nil {
		return err
	}
	if srcFS == dstFS {
		return srcFS.Rename(c, srcRel, dstRel)
	}
	info, err := srcFS.Stat(c, srcRel)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return ErrCrossDevice
	}
	if err := vfs.CopyFile(srcFS, dstFS, c, srcRel, dstRel, info.Mode.Perm()); err != nil {
		return err
	}
	return srcFS.Remove(c, srcRel)
}

// Chown changes ownership of the named file.
func (ns *Namespace) Chown(c vfs.Cred, name string, uid int) error {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return err
	}
	return fsys.Chown(c, rel, uid)
}

// Chmod changes the mode of the named file.
func (ns *Namespace) Chmod(c vfs.Cred, name string, perm fs.FileMode) error {
	fsys, rel, err := ns.Resolve(name)
	if err != nil {
		return err
	}
	return fsys.Chmod(c, rel, perm)
}
