package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"maxoid/internal/fault"
	"maxoid/internal/health"
	"maxoid/internal/metrics"
)

// Fault points on the durability-critical paths (see internal/fault).
// The permanent points model corruption: an append fault tears a frame
// mid-write, an fsync fault loses the acknowledgment, a truncate fault
// strikes between publishing a snapshot and rewinding the log — all
// of which poison the log (fail-stop) so no acknowledged write can
// ever land after a hole. A snapshot fault aborts a checkpoint before
// anything is published, leaving the old snapshot and the log intact.
// The *.transient points model EIO/ENOSPC-style faults that may clear:
// they perform no work and are absorbed by bounded retry; only
// exhaustion drops the store to read-only (never poisons).
var (
	faultAppend          = fault.Declare("wal.append", "WAL frame append: tear the frame with a partial write")
	faultFsync           = fault.Declare("wal.fsync", "WAL group-commit fsync: fail before acknowledging")
	faultSnapshot        = fault.Declare("wal.snapshot", "snapshot write: fail before the atomic rename publishes it")
	faultTruncate        = fault.Declare("wal.truncate", "checkpoint: fail after the snapshot rename, before the WAL rewind")
	faultAppendTransient = fault.Declare("wal.append.transient", "WAL frame append: transient EIO-style fault before any byte is written")
	faultFsyncTransient  = fault.Declare("wal.fsync.transient", "WAL fsync: transient EIO-style fault; the fsync may be retried")
)

// ErrBroken reports an operation on a poisoned log: a previous append
// or fsync failed with permanent corruption, so the on-disk tail is
// suspect and the only safe continuation is a crash-and-recover cycle.
var ErrBroken = errors.New("wal: log poisoned by an earlier write failure")

// Log is the record log with group commit.
//
// Append assigns the next LSN and buffers the frame into the OS file
// without syncing; Sync(lsn) makes everything up to lsn durable. Many
// goroutines calling Sync concurrently coalesce into one fsync: the
// leader syncs the current tail, and every follower whose target LSN
// that covered returns without touching the disk (group commit).
//
// Failure handling is classified (internal/health). Transient faults
// are retried with bounded exponential backoff; exhaustion drops the
// store to read-only, where appends are rejected with
// health.ErrReadOnly until the store heals. Permanent faults —
// injected corruption or an unclassifiable write error — poison the
// log: every subsequent Append fails with ErrBroken. Both disciplines
// keep the durable prefix property: the set of records that survive a
// crash is always a prefix of the append order, so torn-tail
// truncation at recovery cannot discard an acknowledged record.
type Log struct {
	mu       sync.Mutex // appends, LSN assignment, poison state
	f        File
	appended uint64 // last LSN appended
	synced   uint64 // last LSN known durable
	size     int64  // bytes of whole frames in f since the last rewind: where the next frame starts
	lastFS   uint64 // LSN of the last record on the file-system stream
	broken   error
	buf      []byte

	syncMu sync.Mutex // serializes fsync; the group-commit leader lock

	tr *health.Tracker

	histAppend *metrics.Histogram
	histFsync  *metrics.Histogram
	ctrRejects *metrics.Counter
}

// newLog wraps an open file whose valid content, size bytes long, ends
// at LSN last.
func newLog(f File, last uint64, size int64, reg *metrics.Registry, tr *health.Tracker) *Log {
	l := &Log{f: f, appended: last, synced: last, size: size, tr: tr}
	if reg != nil {
		l.histAppend = reg.Histogram("wal.append")
		l.histFsync = reg.Histogram("wal.fsync")
		l.ctrRejects = reg.Counter("wal.degraded.rejects")
	}
	return l
}

// poisonLocked marks permanent corruption. Caller holds l.mu.
func (l *Log) poisonLocked(err error) {
	l.broken = fmt.Errorf("%w: %v", ErrBroken, err)
	l.tr.Poison(l.broken)
}

// gateLocked rejects appends on an unwritable log: ErrBroken when
// poisoned, health.ErrReadOnly when degraded past the retry budget.
// ErrReadOnly is strictly pre-mutation here — the gate fires before
// any byte of the frame is written. Caller holds l.mu.
func (l *Log) gateLocked() error {
	if l.broken != nil {
		return l.broken
	}
	if !l.tr.Writable() {
		l.noteReject()
		return health.ErrReadOnly
	}
	return nil
}

// noteReject counts one degraded-mode write rejection.
func (l *Log) noteReject() {
	if l.ctrRejects != nil {
		l.ctrRejects.Inc()
	}
}

// Append frames a record on stream and writes it to the log file,
// returning its LSN. The record is not durable until a Sync covering
// the LSN returns nil. Transient faults are retried under the health
// tracker's budget before anything is written; on exhaustion the
// store is read-only and the last transient error comes back (the
// caller's in-memory state may already be ahead of the log, so this is
// not a clean gate rejection — see health.Tracker.Run).
func (l *Log) Append(stream string, payload []byte) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.gateLocked(); err != nil {
		return 0, err
	}
	// Transient-fault window: nothing has been written yet, so each
	// retry is a clean re-attempt. Exhaustion marked the store
	// read-only inside Run.
	if err := l.tr.Run(func() error { return fault.Hit(faultAppendTransient) }); err != nil {
		return 0, err
	}
	lsn := l.appended + 1
	l.buf = appendFrame(l.buf[:0], Record{LSN: lsn, Stream: stream, Payload: payload})
	frame := l.buf
	if k, err := fault.PartialWrite(faultAppend, len(frame)); err != nil {
		// Model the torn write: the prefix reaches the file, the tail
		// never does, and the log is poisoned.
		if k > 0 {
			l.f.Write(frame[:k])
		}
		l.poisonLocked(err)
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		// A failed real write may have persisted an unknown prefix;
		// appending after it could strand later frames behind garbage.
		// Transient causes park the store read-only (heal rebuilds the
		// file); anything else is corruption.
		if health.Classify(err) == health.ClassTransient {
			l.tr.MarkReadOnly()
			return 0, err
		}
		l.poisonLocked(err)
		return 0, err
	}
	l.appended = lsn
	l.size += int64(len(frame))
	if stream == fsStream {
		l.lastFS = lsn
	}
	if l.histAppend != nil {
		l.histAppend.Observe(time.Since(start))
	}
	return lsn, nil
}

// Sync makes every record with LSN ≤ target durable. Concurrent
// callers coalesce: one leader fsyncs the tail and followers whose
// target was covered return immediately. Sync is allowed while the
// store is read-only — it only makes already-appended records durable;
// rejection of new work happens at append time.
func (l *Log) Sync(target uint64) error {
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	if l.synced >= target {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	l.syncMu.Lock()
	defer l.syncMu.Unlock()

	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	if l.synced >= target {
		// The previous leader's fsync covered us: group commit.
		l.mu.Unlock()
		return nil
	}
	tail := l.appended
	l.mu.Unlock()

	start := time.Now()
	err := fault.Hit(faultFsync)
	if err == nil {
		// fsync is idempotent, so the real sync sits inside the retry
		// loop alongside the injected transient point.
		err = l.tr.Run(func() error {
			if e := fault.Hit(faultFsyncTransient); e != nil {
				return e
			}
			return l.f.Sync()
		})
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if health.Classify(err) == health.ClassTransient {
			// Retries exhausted: the record is in the file but not
			// durable. The store is read-only (Run marked it); the
			// record stays un-acked and either becomes durable with a
			// later sync/heal or is truncated by crash recovery.
			return err
		}
		l.poisonLocked(err)
		return err
	}
	if tail > l.synced {
		l.synced = tail
	}
	if l.histFsync != nil {
		l.histFsync.Observe(time.Since(start))
	}
	return nil
}

// LastAppended returns the LSN of the last appended record.
func (l *Log) LastAppended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// LastSynced returns the highest LSN known durable.
func (l *Log) LastSynced() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Broken returns the poison error, nil if the log is healthy.
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// end returns the last appended LSN and the byte offset where its
// frame ends: a checkpoint's cut.
func (l *Log) end() (uint64, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended, l.size
}

// lastFSLSN returns the LSN of the last file-system record appended.
func (l *Log) lastFSLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastFS
}

// carry ends a checkpoint whose image, cut at byte offset from of the
// log file, sits written and synced in snap (snapshot.tmp). Holding
// syncMu, then mu — the order Sync takes them in, so no fsync runs on
// a file being rewound — it appends to snap the frames the log gained
// past from, read back through the log's own handle, syncs snap and
// renames it over the snapshot. Every appended record is then durable
// in the snapshot, so the log rewinds its handle to offset 0 and synced
// moves up to the last appended LSN, which carry returns. The file
// keeps its size: the next pass overwrites it in place, so a commit's
// fsync does not grow it, and the frames left past the new pass carry
// LSNs at or below the cut, which end the live log (scanChain). LSNs
// keep counting from there: they are never reused, which is what lets
// recovery skip the records a snapshot carries. A failure before the
// rename leaves the log as it was; a failure after it poisons the log
// (fail-stop), as the state of its file is then unknown.
func (l *Log) carry(st Storage, from int64, snap File) (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		snap.Close()
		return 0, l.broken
	}
	if l.size > from {
		tail := make([]byte, l.size-from)
		n, err := l.f.ReadAt(tail, from)
		if n == len(tail) {
			err = nil
		} else if err == nil || errors.Is(err, io.EOF) {
			err = fmt.Errorf("%w: log file holds %d bytes, %d were appended", ErrCorrupt, from+int64(n), l.size)
		}
		if err == nil {
			_, err = snap.Write(tail)
		}
		if err == nil {
			err = snap.Sync()
		}
		if err != nil {
			snap.Close()
			return 0, err
		}
	}
	if err := snap.Close(); err != nil {
		return 0, err
	}
	if err := st.Rename(snapTmpFile, snapFile); err != nil {
		return 0, err
	}
	if err := fault.Hit(faultTruncate); err != nil {
		l.poisonLocked(err)
		return 0, err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.poisonLocked(err)
		return 0, err
	}
	l.size = 0
	l.synced = l.appended
	return l.appended, nil
}

// close releases the log file. A poisoned log returns its poison error
// (wrapping ErrBroken) after closing: callers must not mistake closing
// a corrupt log for a clean shutdown, and nothing is synced — the tail
// is suspect.
func (l *Log) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		l.f.Close()
		return l.broken
	}
	l.f.Sync()
	return l.f.Close()
}
