package wal

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Storage is the byte store beneath the WAL: a flat namespace of files
// with explicit sync, written sequentially from a handle's offset. Two
// implementations ship: DirStorage over a real directory (production
// durability) and MemStorage with an explicit crash model (tests and
// the recover chaos engine).
type Storage interface {
	// ReadFile returns the full durable content of a file, or an error
	// satisfying fs.ErrNotExist.
	ReadFile(name string) ([]byte, error)
	// ReadPrefix returns the first n bytes of a file's content, fewer
	// when the file is shorter, or an error satisfying fs.ErrNotExist.
	ReadPrefix(name string, n int64) ([]byte, error)
	// Create truncates-or-creates a file and opens it for writing at
	// offset 0.
	Create(name string) (File, error)
	// Append opens a file for writing at offset validLen after
	// truncating it to validLen bytes (torn-tail removal). The file is
	// created empty if missing.
	Append(name string, validLen int64) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file; removing a missing file is not an error.
	Remove(name string) error
}

// File is an open WAL or snapshot file. Write writes at the handle's
// offset and advances it, overwriting any bytes already there.
type File interface {
	Write(p []byte) (int, error)
	// ReadAt reads len(p) bytes at offset off; fewer come back with a
	// non-nil error.
	ReadAt(p []byte, off int64) (int, error)
	// Seek moves the offset the next Write starts at (io.Seeker).
	Seek(offset int64, whence int) (int64, error)
	// Sync makes everything written so far durable.
	Sync() error
	Close() error
}

// --- Directory-backed storage ---

// DirStorage stores files in a real directory with fsync durability.
type DirStorage struct {
	dir string
}

// NewDirStorage returns storage rooted at dir, creating it if needed.
func NewDirStorage(dir string) (*DirStorage, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &DirStorage{dir: dir}, nil
}

func (s *DirStorage) path(name string) string { return filepath.Join(s.dir, name) }

func (s *DirStorage) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(s.path(name))
}

func (s *DirStorage) ReadPrefix(name string, n int64) ([]byte, error) {
	f, err := os.Open(s.path(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	m, err := io.ReadFull(f, buf)
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		err = nil
	}
	return buf[:m], err
}

func (s *DirStorage) Create(name string) (File, error) {
	return os.OpenFile(s.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}

func (s *DirStorage) Append(name string, validLen int64) (File, error) {
	f, err := os.OpenFile(s.path(name), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (s *DirStorage) Rename(oldname, newname string) error {
	if err := os.Rename(s.path(oldname), s.path(newname)); err != nil {
		return err
	}
	// Make the rename itself durable: fsync the directory.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func (s *DirStorage) Remove(name string) error {
	err := os.Remove(s.path(name))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// --- In-memory storage with a crash model ---

// MemStorage is an in-memory Storage with an explicit crash model:
// every file tracks its durable image (what Sync has pinned) apart
// from its written image (what the "page cache" holds). A handle
// writes at its offset and overwrites bytes in place, so a file's
// unsynced bytes run from the lowest offset written since its last
// sync to its end. Crash keeps an arbitrary, caller-chosen prefix of
// them, and every byte past that prefix reverts to its durable value,
// or vanishes past the durable image's end: a rewound log can come
// back from a crash with stale frames after a torn new pass. Metadata
// operations (Create/Remove/Rename) are modeled as immediately durable
// and atomic, matching DirStorage's directory-fsync discipline.
type MemStorage struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile holds a file's two images. They never share a backing array,
// as written is overwritten in place. [lo, hi) spans every byte written
// since the last sync (hi is 0 when there is none): all that Sync must
// copy, and where the unsynced bytes start.
type memFile struct {
	durable []byte
	written []byte
	lo, hi  int
}

// writeAt writes p at offset off, zero-filling any gap past the end.
func (f *memFile) writeAt(p []byte, off int) {
	if len(p) == 0 {
		return
	}
	start, end := min(off, len(f.written)), off+len(p)
	if end > len(f.written) {
		f.written = append(f.written, make([]byte, end-len(f.written))...)
	}
	copy(f.written[off:], p)
	if f.hi == 0 {
		f.lo, f.hi = start, end
		return
	}
	f.lo, f.hi = min(f.lo, start), max(f.hi, end)
}

// sync pins the bytes written since the last sync.
func (f *memFile) sync() {
	if f.hi == 0 {
		return
	}
	if len(f.durable) < f.hi {
		f.durable = append(f.durable, make([]byte, f.hi-len(f.durable))...)
	}
	copy(f.durable[f.lo:f.hi], f.written[f.lo:f.hi])
	f.lo, f.hi = 0, 0
}

// truncate cuts both images to n bytes.
func (f *memFile) truncate(n int) {
	f.written = f.written[:min(n, len(f.written))]
	f.durable = f.durable[:min(n, len(f.durable))]
	if f.hi = min(f.hi, n); f.lo >= f.hi {
		f.lo, f.hi = 0, 0
	}
}

// NewMemStorage returns an empty in-memory storage.
func NewMemStorage() *MemStorage {
	return &MemStorage{files: make(map[string]*memFile)}
}

func (s *MemStorage) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	out := make([]byte, len(f.written))
	copy(out, f.written)
	return out, nil
}

func (s *MemStorage) ReadPrefix(name string, n int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return bytes.Clone(f.written[:min(n, int64(len(f.written)))]), nil
}

// Create truncates an existing file in place, as DirStorage's O_TRUNC
// does: handles already open on it see the truncated file.
func (s *MemStorage) Create(name string) (File, error) { return s.Append(name, 0) }

func (s *MemStorage) Append(name string, validLen int64) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		f = &memFile{}
		s.files[name] = f
	}
	f.truncate(int(validLen))
	return &memHandle{s: s, f: f, off: validLen}, nil
}

func (s *MemStorage) Rename(oldname, newname string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(s.files, oldname)
	s.files[newname] = f
	// The rename is durable: pin the written image.
	f.durable = append(f.durable[:0], f.written...)
	f.lo, f.hi = 0, 0
	return nil
}

func (s *MemStorage) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

// Crash simulates a machine crash. For every file, keep decides how
// many of its unsynced bytes survive, counted from the lowest offset
// written since its last sync (0 ≤ kept ≤ unsynced, chosen per file: a
// seeded caller explores torn tails deterministically); every byte past
// them reverts to its durable value. A nil keep drops all unsynced
// bytes. Open handles become useless; reopen with Append.
func (s *MemStorage) Crash(keep func(name string, unsynced int) int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic keep() order
	for _, name := range names {
		f := s.files[name]
		lo := len(f.written)
		if f.hi != 0 {
			lo = f.lo
		}
		unsynced := len(f.written) - lo
		k := 0
		if keep != nil && unsynced > 0 {
			k = min(max(keep(name, unsynced), 0), unsynced)
		}
		f.written = f.written[:lo+k]
		if len(f.durable) > lo+k {
			f.written = append(f.written, f.durable[lo+k:]...)
		}
		f.durable = append(f.durable[:0], f.written...)
		f.lo, f.hi = 0, 0
	}
}

type memHandle struct {
	s      *MemStorage
	f      *memFile
	off    int64
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.f.writeAt(p, int(h.off))
	h.off += int64(len(p))
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if off >= int64(len(h.f.written)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.written[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Seek supports only io.SeekStart, the one whence the log uses.
func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if whence != io.SeekStart || offset < 0 {
		return 0, errors.New("wal: MemStorage seeks only to an offset from the start")
	}
	h.off = offset
	return offset, nil
}

func (h *memHandle) Sync() error {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.f.sync()
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}
