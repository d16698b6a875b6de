package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"maxoid/internal/fault"
	"maxoid/internal/health"
)

// faultScrub injects scrub outcomes: OpTransient models a read fault
// during verification (degrades, retried next cycle), anything else
// models detected corruption (poisons).
var faultScrub = fault.Declare("wal.scrub", "background scrub: transient read fault or detected corruption")

// poison marks the log permanently corrupt from outside the
// append/sync paths (the scrubber). First error wins.
func (l *Log) poison(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken == nil {
		l.poisonLocked(err)
	}
}

// scanSnapshot decodes a snapshot image, handing apply (when non-nil)
// every frame after the header, and returns the snapshot's cut: the
// highest LSN among its frames — the header's for a snapshot that
// carries no WAL tail. Every frame's length and CRC must check out,
// the first frame must be the "snap" header, and the frames must cover
// the whole file (a snapshot is published by atomic rename, so unlike
// the WAL it has no legitimate torn tail).
func scanSnapshot(data []byte, apply func(Record) error) (cut uint64, err error) {
	first := true
	n, serr := scanFrames(data, func(rec Record) error {
		if first {
			first = false
			if rec.Stream != snapStream || len(rec.Payload) != 8 {
				return fmt.Errorf("wal: snapshot missing header frame")
			}
			cut = binary.LittleEndian.Uint64(rec.Payload)
			return nil
		}
		cut = max(cut, rec.LSN)
		if apply == nil {
			return nil
		}
		return apply(rec)
	})
	if serr != nil {
		return 0, serr
	}
	if first || n != len(data) {
		return 0, fmt.Errorf("%w: snapshot truncated at byte %d of %d", ErrCorrupt, n, len(data))
	}
	return cut, nil
}

// verifySnapshot structurally validates a snapshot image without
// applying it and returns its cut (scanSnapshot). It never panics on
// arbitrary input (fuzzed by FuzzSnapshotDecode).
func verifySnapshot(data []byte) (uint64, error) { return scanSnapshot(data, nil) }

// ScrubOnce re-verifies on-disk integrity while serving: every
// snapshot frame CRC, and that the WAL still holds every record the
// store acknowledged as durable. Corruption poisons the store
// (fail-stop — the disk lied about an acknowledged write); a transient
// read fault only degrades it, to be retried next cycle. Runs under
// snapMu so it never races a snapshot/heal rewinding the WAL file
// beneath the read.
func (s *Store) ScrubOnce() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.log.Broken(); err != nil {
		return err
	}

	if err := fault.Hit(faultScrub); err != nil {
		if health.Classify(err) == health.ClassTransient {
			s.tr.Degrade()
			return err
		}
		s.log.poison(fmt.Errorf("wal: scrub detected corruption: %v", err))
		return s.log.Broken()
	}

	// Snapshot image: immutable after its atomic rename, so a strict
	// whole-file check cannot race writers.
	snap, err := s.cfg.Storage.ReadFile(snapFile)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// No snapshot yet.
	case err != nil:
		if health.Classify(err) == health.ClassTransient {
			s.tr.Degrade()
			return err
		}
		s.log.poison(fmt.Errorf("wal: scrub cannot read snapshot: %v", err))
		return s.log.Broken()
	default:
		if _, verr := verifySnapshot(snap); verr != nil {
			s.log.poison(fmt.Errorf("wal: scrub: %v", verr))
			return s.log.Broken()
		}
	}

	// WAL: appends may race the read, so the check is coverage, not
	// strictness — the live log must reach at least the LSN that was
	// already durable before the read started. A torn or stale tail is
	// legitimate (in-flight append, crash leftovers, frames of an earlier
	// pass); a synced record that the chain cannot reach is corruption.
	// Only the live log is read, the file's first size bytes: the file
	// keeps its high-water size across rewinds, and what lies past the
	// live log is stale. The read goes through the file's name, as
	// recovery's does, not the log's handle: a removed file, or one
	// replaced by a file without the acknowledged records, fails the
	// check, though the handle would still read the old file.
	syncedBefore := s.log.LastSynced()
	_, size := s.log.end()
	wal, err := s.cfg.Storage.ReadPrefix(walFile, size)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		if health.Classify(err) == health.ClassTransient {
			s.tr.Degrade()
			return err
		}
		s.log.poison(fmt.Errorf("wal: scrub cannot read log: %v", err))
		return s.log.Broken()
	}
	// A live log with nothing past the snapshot covers its cut.
	_, last, _ := scanChain(wal, s.walBase, nil)
	covered := max(last, s.walBase)
	if covered < syncedBefore {
		s.log.poison(fmt.Errorf("%w: scrub: durable record lost: log covers LSN %d, %d was acknowledged", ErrCorrupt, covered, syncedBefore))
		return s.log.Broken()
	}
	return nil
}

// Heal returns a degraded store to service. Degrading heals in place
// (the fault burst cleared). ReadOnly requires reconciliation: while
// read-only, operations that failed after mutating memory left the
// in-memory state ahead of the log (none of them were acknowledged, so
// no durability promise is at stake — but memory and log disagree).
// Heal folds the current memory image into a snapshot through the
// same path as Snapshot, which publishes it atomically and rewinds the
// WAL, making memory and disk agree again before accepting writes.
// Open transactions are aborted first — their half-applied state
// cannot be imaged. A poisoned store cannot heal; it returns
// ErrBroken.
//
// Injection is suspended throughout: heal is a recovery path, and
// re-injecting faults into recovery would make progress impossible to
// guarantee (the maintenance loop retries on real failures anyway).
func (s *Store) Heal() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.log.Broken(); err != nil {
		return err
	}
	switch s.tr.State() {
	case health.Healthy:
		return nil
	case health.Degrading:
		s.tr.Heal()
		return nil
	}

	fault.Suspend()
	defer fault.Resume()

	for _, name := range s.names {
		// The rollback mutates memory only: the sqldb write gate admits
		// pure-ROLLBACK batches read-only, and dbJournal skips logging
		// them (recovery reproduces the abort from the orphaned BEGIN).
		s.cfg.DBs[name].AbortOpenTxn()
	}

	// Appends are gated while read-only, so the WAL gains no tail past
	// the cut.
	if err := s.checkpoint(); err != nil {
		return err
	}
	if !s.tr.Heal() {
		return s.log.Broken()
	}
	return nil
}

// StartMaintenance runs the background maintenance goroutine: on every
// tick it scrubs a serving store, or attempts to heal a read-only one
// (automatic recovery once the underlying fault clears). The returned
// stop function blocks until the goroutine exits; call it before
// Close. Errors are not returned — they land in the health state
// machine and the wal.health gauge, which is what monitoring watches.
func (s *Store) StartMaintenance(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			switch s.Health() {
			case health.ReadOnly:
				_ = s.Heal()
			case health.Healthy, health.Degrading:
				_ = s.ScrubOnce()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
