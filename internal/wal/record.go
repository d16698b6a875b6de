package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"

	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
)

// Logical record payloads. The FS stream ("fs") carries one tagged
// operation per record; a DB stream ("db:<name>") carries either a
// statement unit ('U') or an ID-counter snapshot ('C'). All integers
// little-endian; strings and byte slices are length-prefixed.

// ErrCorrupt reports a record whose frame checksummed correctly but
// whose payload does not decode — this is never expected from our own
// encoder and recovery treats it as fatal corruption (unlike a torn
// tail, which is a normal crash artifact).
var ErrCorrupt = errors.New("wal: corrupt record payload")

// --- primitive codec ---

func appendUint32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendBytes(b, p []byte) []byte {
	b = appendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

func (r *reader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

// --- FS records ---

// FS operation tags.
const (
	fsCreate    = 'c'
	fsWriteAt   = 'w'
	fsTruncate  = 't'
	fsMkdir     = 'd'
	fsRemove    = 'r'
	fsRemoveAll = 'R'
	fsRename    = 'n'
	fsChmod     = 'm'
	fsChown     = 'o'
)

func encodeFSCreate(path string, mode fs.FileMode, uid int) []byte {
	b := []byte{fsCreate}
	b = appendString(b, path)
	b = appendUint32(b, uint32(mode))
	return appendUint64(b, uint64(int64(uid)))
}

func encodeFSWriteAt(path string, off int64, data []byte) []byte {
	b := []byte{fsWriteAt}
	b = appendString(b, path)
	b = appendUint64(b, uint64(off))
	return appendBytes(b, data)
}

func encodeFSTruncate(path string, size int64) []byte {
	b := []byte{fsTruncate}
	b = appendString(b, path)
	return appendUint64(b, uint64(size))
}

func encodeFSMkdir(path string, mode fs.FileMode, uid int) []byte {
	b := []byte{fsMkdir}
	b = appendString(b, path)
	b = appendUint32(b, uint32(mode))
	return appendUint64(b, uint64(int64(uid)))
}

func encodeFSPath(tag byte, path string) []byte {
	return appendString([]byte{tag}, path)
}

func encodeFSRename(oldpath, newpath string) []byte {
	b := []byte{fsRename}
	b = appendString(b, oldpath)
	return appendString(b, newpath)
}

func encodeFSChmod(path string, mode fs.FileMode) []byte {
	b := []byte{fsChmod}
	b = appendString(b, path)
	return appendUint32(b, uint32(mode))
}

func encodeFSChown(path string, uid int) []byte {
	b := []byte{fsChown}
	b = appendString(b, path)
	return appendUint64(b, uint64(int64(uid)))
}

// applyFS replays one FS record against fsys as root. Replay is
// idempotent at the operation level (create-on-existing and
// remove-missing are no-ops), which keeps recovery insensitive to a
// snapshot that already contains a WAL record's effect.
func applyFS(fsys *vfs.FS, payload []byte) error {
	if len(payload) == 0 {
		return ErrCorrupt
	}
	r := &reader{b: payload[1:]}
	switch payload[0] {
	case fsCreate:
		path := r.str()
		mode := fs.FileMode(r.u32())
		uid := int(int64(r.u64()))
		if r.err != nil {
			return r.err
		}
		h, err := fsys.Open(vfs.Root, path, vfs.O_WRONLY|vfs.O_CREATE, mode)
		if err != nil {
			return err
		}
		h.Close()
		if uid != 0 {
			return fsys.Chown(vfs.Root, path, uid)
		}
		return nil
	case fsWriteAt:
		path := r.str()
		off := int64(r.u64())
		data := r.bytes()
		if r.err != nil {
			return r.err
		}
		h, err := fsys.Open(vfs.Root, path, vfs.O_WRONLY|vfs.O_CREATE, 0o666)
		if err != nil {
			return err
		}
		_, werr := h.WriteAt(data, off)
		h.Close()
		return werr
	case fsTruncate:
		path := r.str()
		size := int64(r.u64())
		if r.err != nil {
			return r.err
		}
		h, err := fsys.Open(vfs.Root, path, vfs.O_WRONLY, 0)
		if err != nil {
			return err
		}
		terr := h.Truncate(size)
		h.Close()
		return terr
	case fsMkdir:
		path := r.str()
		mode := fs.FileMode(r.u32())
		uid := int(int64(r.u64()))
		if r.err != nil {
			return r.err
		}
		if err := fsys.Mkdir(vfs.Root, path, mode); err != nil {
			if errors.Is(err, vfs.ErrExist) {
				return nil
			}
			return err
		}
		if uid != 0 {
			return fsys.Chown(vfs.Root, path, uid)
		}
		return nil
	case fsRemove:
		path := r.str()
		if r.err != nil {
			return r.err
		}
		if err := fsys.Remove(vfs.Root, path); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return err
		}
		return nil
	case fsRemoveAll:
		path := r.str()
		if r.err != nil {
			return r.err
		}
		return fsys.RemoveAll(vfs.Root, path)
	case fsRename:
		oldpath := r.str()
		newpath := r.str()
		if r.err != nil {
			return r.err
		}
		if err := fsys.Rename(vfs.Root, oldpath, newpath); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return err
		}
		return nil
	case fsChmod:
		path := r.str()
		mode := fs.FileMode(r.u32())
		if r.err != nil {
			return r.err
		}
		return fsys.Chmod(vfs.Root, path, mode)
	case fsChown:
		path := r.str()
		uid := int(int64(r.u64()))
		if r.err != nil {
			return r.err
		}
		return fsys.Chown(vfs.Root, path, uid)
	}
	return fmt.Errorf("%w: unknown fs op %q", ErrCorrupt, payload[0])
}

// --- DB records ---

const (
	dbUnit     = 'U'
	dbCounters = 'C'

	unitFlagErrored = 1 << 0
	unitFlagSync    = 1 << 1
)

// Value tags.
const (
	valNull  = 'n'
	valInt   = 'i'
	valFloat = 'f'
	valText  = 's'
	valBlob  = 'b'
	valTrue  = 'T'
	valFalse = 'F'
)

func appendValue(b []byte, v sqldb.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, valNull), nil
	case int64:
		return appendUint64(append(b, valInt), uint64(x)), nil
	case float64:
		return appendUint64(append(b, valFloat), math.Float64bits(x)), nil
	case string:
		return appendString(append(b, valText), x), nil
	case []byte:
		return appendBytes(append(b, valBlob), x), nil
	case bool:
		if x {
			return append(b, valTrue), nil
		}
		return append(b, valFalse), nil
	}
	return b, fmt.Errorf("wal: unencodable value type %T", v)
}

func (r *reader) value() sqldb.Value {
	switch r.u8() {
	case valNull:
		return nil
	case valInt:
		return int64(r.u64())
	case valFloat:
		return math.Float64frombits(r.u64())
	case valText:
		return r.str()
	case valBlob:
		return append([]byte(nil), r.bytes()...)
	case valTrue:
		return true
	case valFalse:
		return false
	}
	r.fail()
	return nil
}

// encodeDBUnit serializes a statement unit, sized for its fixed-width
// fields and short values so the encoding seldom regrows.
func encodeDBUnit(u sqldb.JournalUnit) ([]byte, error) {
	return appendDBUnit(make([]byte, 0, 14+len(u.SQL)+16*len(u.Args)), u)
}

// appendDBUnit appends a statement unit's encoding to b.
func appendDBUnit(b []byte, u sqldb.JournalUnit) ([]byte, error) {
	var flags byte
	if u.Errored {
		flags |= unitFlagErrored
	}
	if u.Sync {
		flags |= unitFlagSync
	}
	b = append(b, dbUnit, flags)
	b = appendUint32(b, uint32(u.N))
	b = appendString(b, u.SQL)
	b = appendUint32(b, uint32(len(u.Args)))
	var err error
	for _, v := range u.Args {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func encodeDBCounters(cs sqldb.Counters) []byte {
	b := []byte{dbCounters}
	b = appendUint64(b, uint64(cs.LastInsertID))
	b = appendUint32(b, uint32(len(cs.NextIDs)))
	names := make([]string, 0, len(cs.NextIDs))
	for k := range cs.NextIDs {
		names = append(names, k)
	}
	// Deterministic encoding order (snapshot bytes are seed-stable).
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, k := range names {
		b = appendString(b, k)
		b = appendUint64(b, uint64(cs.NextIDs[k]))
	}
	return b
}

// applyDB replays one DB record against db.
func applyDB(db *sqldb.DB, payload []byte) error {
	if len(payload) == 0 {
		return ErrCorrupt
	}
	r := &reader{b: payload[1:]}
	switch payload[0] {
	case dbUnit:
		flags := r.u8()
		n := int(r.u32())
		sql := r.str()
		argc := int(r.u32())
		if r.err != nil || argc < 0 || argc > len(r.b) {
			r.fail()
			return r.err
		}
		var args []sqldb.Value
		if argc > 0 {
			args = make([]sqldb.Value, argc)
			for i := range args {
				args[i] = r.value()
			}
		}
		if r.err != nil {
			return r.err
		}
		return db.ReplayUnit(sql, args, n, flags&unitFlagErrored != 0)
	case dbCounters:
		cs := sqldb.Counters{LastInsertID: int64(r.u64()), NextIDs: map[string]int64{}}
		count := int(r.u32())
		for i := 0; i < count && r.err == nil; i++ {
			name := r.str()
			cs.NextIDs[name] = int64(r.u64())
		}
		if r.err != nil {
			return r.err
		}
		db.RestoreCounters(cs)
		return nil
	}
	return fmt.Errorf("%w: unknown db record %q", ErrCorrupt, payload[0])
}
