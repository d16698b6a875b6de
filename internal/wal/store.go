package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"time"

	"maxoid/internal/fault"
	"maxoid/internal/health"
	"maxoid/internal/metrics"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
)

// On-disk layout, inside one Storage namespace:
//
//	wal           frame log (log.go), rewound to offset 0 at each
//	              checkpoint and overwritten in place; the live log is
//	              the chain of frames from offset 0 whose LSNs run
//	              consecutively, and may be followed by a torn frame or
//	              by stale frames of an earlier pass
//	snapshot      compacted state: a "snap" header frame carrying the
//	              image's cut LSN, the full state at that cut as framed
//	              fs/db records, then the WAL frames appended after the
//	              cut, carried over unchanged
//	snapshot.tmp  in-flight snapshot; removed at open, renamed on success
//
// Recovery applies the snapshot (if any), then every record of the
// live log with LSN greater than the highest LSN the snapshot holds,
// then truncates the file to the live log's end — or to 0 when the live
// log holds nothing past the snapshot.
const (
	walFile     = "wal"
	snapFile    = "snapshot"
	snapTmpFile = "snapshot.tmp"

	snapStream = "snap"
	fsStream   = "fs"
	dbPrefix   = "db:"
)

// ErrBusy reports a snapshot that could not get a consistent cut: a
// transaction was open, or file-system writes kept racing the walk of
// the tree. The caller retries later; the WAL alone still provides
// durability.
var ErrBusy = errors.New("wal: snapshot deferred: state is busy")

// snapshotRetries bounds how many cuts a snapshot takes when
// file-system writes race its walk of the tree, before giving up with
// ErrBusy.
const snapshotRetries = 8

// Config wires a Store to the state it makes durable.
type Config struct {
	// Storage holds the WAL and snapshot files.
	Storage Storage
	// FS is the journaled filesystem; nil if only databases persist.
	FS *vfs.FS
	// DBs maps a stable name (the WAL stream suffix) to each journaled
	// database. Names must not change across restarts.
	DBs map[string]*sqldb.DB
	// Metrics, when non-nil, receives wal.append / wal.fsync /
	// wal.recover / wal.snapshot / wal.snapshot.frozen histograms, the
	// wal.health gauge, and the wal.retries / wal.degraded.rejects /
	// wal.snapshot.busy counters.
	Metrics *metrics.Registry
	// MaxRetries bounds transient-fault retries on appends and fsyncs
	// before the store drops to read-only. 0 = default (3).
	MaxRetries int
	// RetryBackoff is the initial backoff between transient-fault
	// retries (doubles per attempt). 0 = default (1ms).
	RetryBackoff time.Duration
	// RetrySleep replaces time.Sleep for retry backoff; the chaos
	// engine substitutes a no-op to stay fast.
	RetrySleep func(time.Duration)
}

// Store is the durability layer: it owns the WAL and snapshot files,
// implements the vfs and sqldb journal interfaces, and recovers state
// on Open.
type Store struct {
	cfg       Config
	names     []string // cfg.DBs keys, sorted
	log       *Log
	tr        *health.Tracker
	recovered uint64 // LSN recovered state corresponds to at Open

	snapMu    sync.Mutex // one snapshot/heal/scrub at a time; guards walBase, imageSize
	walBase   uint64     // LSN the live log starts after (the snapshot's cut)
	imageSize int        // bytes of the last snapshot image, to size the next

	histSnapshot *metrics.Histogram // successful Snapshot calls
	histFrozen   *metrics.Histogram // how long each cut held the writers off
	ctrBusy      *metrics.Counter   // Snapshot calls that returned ErrBusy
}

// Open recovers state from the snapshot and WAL in cfg.Storage into
// cfg.FS / cfg.DBs — which must be freshly constructed and empty —
// truncates the WAL file to its live log, and attaches journals so
// subsequent mutations are logged. Fault injection is suspended for the whole
// recovery: replay re-executes statements whose faults already
// happened (or didn't) in the previous life.
func Open(cfg Config) (*Store, error) {
	start := time.Now()
	fault.Suspend()
	defer fault.Resume()

	// A crash mid-snapshot leaves snapshot.tmp behind; it was never
	// renamed, so it is garbage.
	if err := cfg.Storage.Remove(snapTmpFile); err != nil {
		return nil, err
	}

	cut, err := recoverSnapshot(&cfg)
	if err != nil {
		return nil, err
	}
	last, validLen, err := recoverWAL(&cfg, cut)
	if err != nil {
		return nil, err
	}

	// Truncate what follows the live log, open the log for appending, and
	// pin the recovered prefix: records replayed from unsynced-but-surviving
	// bytes are now part of the recovered state, so a second crash must
	// not be able to lose them (recovered LSNs never regress).
	f, err := cfg.Storage.Append(walFile, int64(validLen))
	if err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	names := make([]string, 0, len(cfg.DBs))
	for name := range cfg.DBs {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &Store{cfg: cfg, names: names, recovered: last, walBase: cut}
	topts := health.Options{
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: cfg.RetryBackoff,
		Sleep:        cfg.RetrySleep,
	}
	if cfg.Metrics != nil {
		gauge := cfg.Metrics.Gauge("wal.health")
		gauge.Set(int64(health.Healthy))
		topts.OnTransition = func(_, to health.State) { gauge.Set(int64(to)) }
		retries := cfg.Metrics.Counter("wal.retries")
		topts.OnRetry = func(int, error) { retries.Inc() }
		s.histSnapshot = cfg.Metrics.Histogram("wal.snapshot")
		s.histFrozen = cfg.Metrics.Histogram("wal.snapshot.frozen")
		s.ctrBusy = cfg.Metrics.Counter("wal.snapshot.busy")
	}
	s.tr = health.NewTracker(topts)
	s.log = newLog(f, last, int64(validLen), cfg.Metrics, s.tr)

	// A transaction the WAL left open never committed: roll it back —
	// and journal the rollback, so the next recovery's replay closes
	// the transaction at the same point instead of folding whatever
	// comes after the orphaned BEGIN into it. Without this record the
	// WAL is not a replayable history.
	for _, name := range names {
		if !cfg.DBs[name].AbortOpenTxn() {
			continue
		}
		payload, err := encodeDBUnit(sqldb.JournalUnit{SQL: "ROLLBACK", N: 1, Sync: true})
		if err != nil {
			return nil, err
		}
		lsn, err := s.log.Append(dbPrefix+name, payload)
		if err != nil {
			return nil, err
		}
		if err := s.log.Sync(lsn); err != nil {
			return nil, err
		}
	}

	// Attach journals last: nothing that happened during replay is
	// re-logged.
	if cfg.FS != nil {
		cfg.FS.SetJournal(&fsJournal{s: s})
	}
	for name, db := range cfg.DBs {
		db.SetJournal(&dbJournal{s: s, stream: dbPrefix + name})
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Histogram("wal.recover").Observe(time.Since(start))
	}
	return s, nil
}

// recoverSnapshot applies the snapshot file if present and returns
// its cut: the highest LSN among its frames, so WAL replay skips the
// records the snapshot carries. Unlike the WAL, a snapshot is
// published by atomic rename and must be perfect: any decode failure
// is corruption, not a torn tail.
func recoverSnapshot(cfg *Config) (uint64, error) {
	data, err := cfg.Storage.ReadFile(snapFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	return scanSnapshot(data, func(rec Record) error { return applyRecord(cfg, rec) })
}

// recoverWAL replays every record past cut from the live log
// (scanChain), returning the highest LSN seen (or cut) and the byte
// length to keep: the live log's, or 0 when it ends at or below the
// cut. That restart at offset 0 matters after a crash between a
// checkpoint's rename and its rewind that lost the last carried frames
// from the log (unsynced there, synced inside the snapshot): a frame
// appended after the shorter chain would not follow its last LSN, and
// the next recovery would stop in front of it.
func recoverWAL(cfg *Config, cut uint64) (last uint64, validLen int, err error) {
	data, err := cfg.Storage.ReadFile(walFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return cut, 0, nil
		}
		return 0, 0, err
	}
	validLen, last, err = scanChain(data, cut, func(rec Record) error {
		if rec.LSN <= cut {
			// Already folded into the snapshot (replay idempotence is
			// LSN filtering, not operation semantics).
			return nil
		}
		return applyRecord(cfg, rec)
	})
	if err != nil {
		return 0, 0, err
	}
	if last <= cut {
		return cut, 0, nil
	}
	return last, validLen, nil
}

// LiveTail returns the byte range [from, to) of the WAL in st that
// holds the live records past the snapshot's cut: the records the next
// recovery would replay. from == to when there are none.
func LiveTail(st Storage) (from, to int, err error) {
	var cut uint64
	snap, err := st.ReadFile(snapFile)
	switch {
	case err == nil:
		if cut, err = verifySnapshot(snap); err != nil {
			return 0, 0, err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return 0, 0, err
	}
	data, err := st.ReadFile(walFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	to, _, err = scanChain(data, cut, func(rec Record) error {
		if rec.LSN <= cut {
			from += frameHeaderSize + recHeaderSize + len(rec.Stream) + len(rec.Payload)
		}
		return nil
	})
	return from, to, err
}

// applyRecord routes one logical record to its target state.
func applyRecord(cfg *Config, rec Record) error {
	if rec.Stream == fsStream {
		if cfg.FS == nil {
			return fmt.Errorf("wal: fs record but no filesystem configured")
		}
		return applyFS(cfg.FS, rec.Payload)
	}
	if name, ok := strings.CutPrefix(rec.Stream, dbPrefix); ok {
		db := cfg.DBs[name]
		if db == nil {
			return fmt.Errorf("wal: record for unknown database %q", name)
		}
		return applyDB(db, rec.Payload)
	}
	return fmt.Errorf("wal: record on unknown stream %q", rec.Stream)
}

// RecoveredLSN returns the LSN the recovered state corresponded to
// when Open returned.
func (s *Store) RecoveredLSN() uint64 { return s.recovered }

// LastLSN returns the last appended LSN.
func (s *Store) LastLSN() uint64 { return s.log.LastAppended() }

// LastSynced returns the highest LSN known durable.
func (s *Store) LastSynced() uint64 { return s.log.LastSynced() }

// Broken returns the log's poison error, nil while healthy.
func (s *Store) Broken() error { return s.log.Broken() }

// Health returns the store's position in the health state machine.
func (s *Store) Health() health.State { return s.tr.State() }

// Writable reports whether durable writes are currently accepted.
func (s *Store) Writable() bool { return s.tr.Writable() }

// WriteGate is the pre-mutation gate for durable writes: nil while the
// store accepts them, ErrBroken when poisoned, health.ErrReadOnly when
// degraded. The vfs and sqldb layers consult it before mutating any
// in-memory state, so an ErrReadOnly rejection is always clean — no
// memory changed, the caller can retry after the store heals.
func (s *Store) WriteGate() error {
	if err := s.log.Broken(); err != nil {
		return err
	}
	if !s.tr.Writable() {
		s.log.noteReject()
		return health.ErrReadOnly
	}
	return nil
}

// Close detaches the journals and closes the log (syncing it first
// when healthy).
func (s *Store) Close() error {
	if s.cfg.FS != nil {
		s.cfg.FS.SetJournal(nil)
	}
	for _, db := range s.cfg.DBs {
		db.SetJournal(nil)
	}
	return s.log.close()
}

// Snapshot checkpoints the store: it publishes a snapshot of the full
// state and rewinds the WAL, without stopping writers for longer than
// a copy. One cut serves every stream:
//
//   - Every database is frozen (writers wait, readers run) while the
//     cut LSN is read from the log and the rows are copied; no
//     database batch can append while all are frozen, so every
//     database is cut at the same LSN.
//   - The file system is walked optimistically after the thaw. The
//     walk is valid iff no file-system record past the cut was
//     appended before it finished; otherwise the cut is retaken.
//   - The image is encoded with writers running and written to
//     snapshot.tmp, then published with the WAL frames appended since
//     the cut carried inside it (Log.carry), so the WAL is rewound on
//     every successful checkpoint.
//
// Snapshot returns ErrBusy while a transaction is open, or when
// file-system writes raced snapshotRetries walks in a row; the WAL
// alone still provides durability then. It is durable on return.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// A poisoned log returns ErrBroken immediately — never attempt a
	// snapshot publish over a corrupt tail. A read-only store rejects
	// too: publishing is a durable write; Heal is the way out.
	if err := s.WriteGate(); err != nil {
		return err
	}
	start := time.Now()
	err := s.checkpoint()
	switch {
	case err == nil && s.histSnapshot != nil:
		s.histSnapshot.Observe(time.Since(start))
	case errors.Is(err, ErrBusy) && s.ctrBusy != nil:
		s.ctrBusy.Inc()
	}
	return err
}

// checkpoint takes a consistent cut, encodes it and publishes it.
// Caller holds snapMu.
func (s *Store) checkpoint() error {
	for attempt := 0; attempt < snapshotRetries; attempt++ {
		cut, from, images, err := s.cutImages()
		if err != nil {
			return err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], cut)
		buf := make([]byte, 0, s.imageSize+s.imageSize/8)
		buf = appendFrame(buf, Record{LSN: cut, Stream: snapStream, Payload: hdr[:]})
		if s.cfg.FS != nil {
			if buf, err = dumpFS(buf, s.cfg.FS, cut); err != nil {
				return err
			}
			if s.log.lastFSLSN() > cut {
				continue // a file-system write raced the walk
			}
		}
		for i, name := range s.names {
			if buf, err = appendDBImage(buf, dbPrefix+name, cut, images[i]); err != nil {
				return err
			}
		}
		s.imageSize = len(buf)
		return s.publish(buf, from)
	}
	return ErrBusy
}

// cutImages freezes every database in name order, reads the cut LSN
// and the byte offset where its frame ends from the log, then copies
// each database's image and thaws it. An open transaction makes it
// ErrBusy.
func (s *Store) cutImages() (uint64, int64, []*sqldb.Image, error) {
	start := time.Now()
	for i, name := range s.names {
		if err := s.cfg.DBs[name].Freeze(); err != nil {
			for _, frozen := range s.names[:i] {
				s.cfg.DBs[frozen].Thaw()
			}
			if errors.Is(err, sqldb.ErrTxnOpen) {
				return 0, 0, nil, ErrBusy
			}
			return 0, 0, nil, err
		}
	}
	cut, from := s.log.end()
	images := make([]*sqldb.Image, len(s.names))
	for i, name := range s.names {
		db := s.cfg.DBs[name]
		images[i] = db.Image()
		db.Thaw()
	}
	if s.histFrozen != nil {
		s.histFrozen.Observe(time.Since(start))
	}
	return cut, from, images, nil
}

// appendDBImage frames one database image: its units, then its ID
// allocators, which row replay rebuilds except for high-water marks
// left by deleted rows.
func appendDBImage(buf []byte, stream string, cut uint64, im *sqldb.Image) ([]byte, error) {
	err := im.Units(func(u sqldb.JournalUnit) error {
		var start int
		var err error
		buf, start = beginFrame(buf, cut, stream)
		if buf, err = appendDBUnit(buf, u); err != nil {
			return err
		}
		buf = endFrame(buf, start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return appendFrame(buf, Record{LSN: cut, Stream: stream, Payload: encodeDBCounters(im.Counters())}), nil
}

// dumpFS walks the tree in lexical order (parents before children)
// emitting mkdir/create/write records that rebuild it.
func dumpFS(buf []byte, fsys *vfs.FS, cut uint64) ([]byte, error) {
	err := vfs.Walk(fsys, vfs.Root, "/", func(name string, info vfs.FileInfo) error {
		if name == "/" {
			return nil
		}
		if info.IsDir() {
			buf = appendFrame(buf, Record{LSN: cut, Stream: fsStream,
				Payload: encodeFSMkdir(name, info.Mode.Perm(), info.UID)})
			return nil
		}
		buf = appendFrame(buf, Record{LSN: cut, Stream: fsStream,
			Payload: encodeFSCreate(name, info.Mode.Perm(), info.UID)})
		if info.Size > 0 {
			data, err := vfs.ReadFile(fsys, vfs.Root, name)
			if err != nil {
				return err
			}
			buf = appendFrame(buf, Record{LSN: cut, Stream: fsStream,
				Payload: encodeFSWriteAt(name, 0, data)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// publish writes the snapshot image, cut at byte offset from of the
// WAL, to snapshot.tmp and syncs it while writers run, then hands it
// to Log.carry, which appends the WAL tail, renames it over the
// previous snapshot and rewinds the WAL. A failure before the rename
// (the wal.snapshot fault point fires before the bytes are written)
// leaves the old snapshot intact; the orphan tmp file is removed at
// next Open.
func (s *Store) publish(img []byte, from int64) error {
	f, err := s.cfg.Storage.Create(snapTmpFile)
	if err != nil {
		return err
	}
	if err := fault.Hit(faultSnapshot); err != nil {
		f.Close()
		s.cfg.Storage.Remove(snapTmpFile)
		return err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	base, err := s.log.carry(s.cfg.Storage, from, f)
	if err != nil {
		return err
	}
	s.walBase = base
	return nil
}

// --- journal adapters ---

// fsJournal implements vfs.Journal: one WAL record per mutation,
// synced before the vfs operation returns. File-system callers get no
// transaction boundary, so every acknowledged operation is durable.
type fsJournal struct{ s *Store }

// WriteGate implements vfs.WriteGate: vfs consults it before mutating
// in-memory state, so degraded rejections never leave memory ahead of
// the log.
func (j *fsJournal) WriteGate() error { return j.s.WriteGate() }

func (j *fsJournal) commit(payload []byte) error {
	lsn, err := j.s.log.Append(fsStream, payload)
	if err != nil {
		return err
	}
	return j.s.log.Sync(lsn)
}

func (j *fsJournal) Create(path string, mode fs.FileMode, uid int) error {
	return j.commit(encodeFSCreate(path, mode, uid))
}

func (j *fsJournal) WriteAt(path string, off int64, data []byte) error {
	return j.commit(encodeFSWriteAt(path, off, data))
}

func (j *fsJournal) Truncate(path string, size int64) error {
	return j.commit(encodeFSTruncate(path, size))
}

func (j *fsJournal) Mkdir(path string, mode fs.FileMode, uid int) error {
	return j.commit(encodeFSMkdir(path, mode, uid))
}

func (j *fsJournal) Remove(path string) error {
	return j.commit(encodeFSPath(fsRemove, path))
}

func (j *fsJournal) RemoveAll(path string) error {
	return j.commit(encodeFSPath(fsRemoveAll, path))
}

func (j *fsJournal) Rename(oldpath, newpath string) error {
	return j.commit(encodeFSRename(oldpath, newpath))
}

func (j *fsJournal) Chmod(path string, mode fs.FileMode) error {
	return j.commit(encodeFSChmod(path, mode))
}

func (j *fsJournal) Chown(path string, uid int) error {
	return j.commit(encodeFSChown(path, uid))
}

// dbJournal implements sqldb.DeferredJournal for one database: a unit
// becomes one WAL record appended under the batch locks, and the fsync
// wait — when the unit demands durability — is handed back to run
// after the locks release, so concurrent committers coalesce into one
// fsync (group commit).
type dbJournal struct {
	s      *Store
	stream string
}

// WriteGate implements sqldb.WriteGate: sqldb consults it before
// executing a mutating batch, so degraded rejections happen before any
// in-memory table changes.
func (j *dbJournal) WriteGate() error { return j.s.WriteGate() }

func (j *dbJournal) CommitAppend(u sqldb.JournalUnit) (func() error, error) {
	// Transaction aborts are permitted while read-only — a degraded
	// store must still let applications back out of open transactions.
	// Skipping the WAL record is sound: if the open BEGIN reached the
	// log without its ROLLBACK, recovery replays the orphaned prefix
	// and Open's AbortOpenTxn closes it at the same point, journaling
	// the rollback then. The log stays a replayable history.
	if u.SQL == "ROLLBACK" && !j.s.Writable() {
		return nil, nil
	}
	payload, err := encodeDBUnit(u)
	if err != nil {
		return nil, err
	}
	lsn, err := j.s.log.Append(j.stream, payload)
	if err != nil {
		return nil, err
	}
	if !u.Sync {
		return nil, nil
	}
	return func() error { return j.s.log.Sync(lsn) }, nil
}

func (j *dbJournal) Commit(u sqldb.JournalUnit) error {
	wait, err := j.CommitAppend(u)
	if err != nil || wait == nil {
		return err
	}
	return wait()
}
