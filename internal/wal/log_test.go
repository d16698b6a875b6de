package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"maxoid/internal/health"
)

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Stream: "fs", Payload: []byte("hello")},
		{LSN: 2, Stream: "db:main", Payload: nil},
		{LSN: 3, Stream: "", Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	var got []Record
	n, err := scanFrames(buf, func(r Record) error {
		got = append(got, Record{LSN: r.LSN, Stream: r.Stream, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("scanFrames: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("valid prefix = %d, want %d", n, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Stream != recs[i].Stream || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestDecodeFrameTorn(t *testing.T) {
	frame := appendFrame(nil, Record{LSN: 7, Stream: "fs", Payload: []byte("payload bytes")})
	// Every proper prefix of a frame is torn, never an error-free decode.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut]); !errors.Is(err, ErrTornFrame) {
			t.Fatalf("prefix len %d: err = %v, want ErrTornFrame", cut, err)
		}
	}
	// A flipped payload bit fails the checksum.
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 1
	if _, _, err := DecodeFrame(corrupt); !errors.Is(err, ErrTornFrame) {
		t.Fatalf("corrupt payload: err = %v, want ErrTornFrame", err)
	}
	// scanFrames stops at the torn frame, keeping the earlier one.
	two := append(append([]byte(nil), frame...), frame[:len(frame)-3]...)
	count := 0
	n, err := scanFrames(two, func(Record) error { count++; return nil })
	if err != nil || count != 1 || n != len(frame) {
		t.Fatalf("scan torn tail: n=%d count=%d err=%v, want n=%d count=1", n, count, err, len(frame))
	}
}

// countingFile counts Sync calls and can be told to start failing.
type countingFile struct {
	File
	syncs    int
	failSync error
}

func (f *countingFile) Sync() error {
	f.syncs++
	if f.failSync != nil {
		return f.failSync
	}
	return f.File.Sync()
}

func TestLogGroupCommit(t *testing.T) {
	st := NewMemStorage()
	inner, _ := st.Create(walFile)
	f := &countingFile{File: inner}
	l := newLog(f, 0, 0, nil, health.NewTracker(health.Options{}))

	var last uint64
	for i := 0; i < 10; i++ {
		lsn, err := l.Append("fs", []byte{byte(i)})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = lsn
	}
	if err := l.Sync(last); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if f.syncs != 1 {
		t.Fatalf("fsyncs = %d, want 1 (one fsync covers the whole tail)", f.syncs)
	}
	// Everything at or below the synced tail is already durable: free.
	for target := uint64(1); target <= last; target++ {
		if err := l.Sync(target); err != nil {
			t.Fatalf("re-sync %d: %v", target, err)
		}
	}
	if f.syncs != 1 {
		t.Fatalf("fsyncs after covered re-syncs = %d, want 1", f.syncs)
	}
	if l.LastSynced() != last || l.LastAppended() != last {
		t.Fatalf("synced=%d appended=%d, want both %d", l.LastSynced(), l.LastAppended(), last)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	st := NewMemStorage()
	inner, _ := st.Create(walFile)
	f := &countingFile{File: inner}
	l := newLog(f, 0, 0, nil, health.NewTracker(health.Options{}))

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append("fs", []byte(fmt.Sprintf("%d/%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Sync(lsn); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := uint64(writers * perWriter)
	if l.LastSynced() != want {
		t.Fatalf("synced = %d, want %d", l.LastSynced(), want)
	}
	data, _ := st.ReadFile(walFile)
	count := 0
	n, err := scanFrames(data, func(Record) error { count++; return nil })
	if err != nil || n != len(data) || count != int(want) {
		t.Fatalf("log decodes to %d frames over %d/%d bytes (err=%v), want %d frames", count, n, len(data), err, want)
	}
}

func TestLogPoison(t *testing.T) {
	st := NewMemStorage()
	inner, _ := st.Create(walFile)
	f := &countingFile{File: inner}
	l := newLog(f, 0, 0, nil, health.NewTracker(health.Options{}))

	lsn, err := l.Append("fs", []byte("x"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	f.failSync = errors.New("disk on fire")
	if err := l.Sync(lsn); err == nil {
		t.Fatal("sync with failing file succeeded")
	}
	// The log is poisoned: every later operation fails with ErrBroken,
	// even after the disk "recovers".
	f.failSync = nil
	if _, err := l.Append("fs", []byte("y")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after poison: %v, want ErrBroken", err)
	}
	if err := l.Sync(lsn); !errors.Is(err, ErrBroken) {
		t.Fatalf("sync after poison: %v, want ErrBroken", err)
	}
	if l.Broken() == nil {
		t.Fatal("Broken() = nil on a poisoned log")
	}
}

// slowSyncStorage hands out log files whose Sync takes a while and
// touches no lock, as a real fsync does: the race detector then sees
// every unsynchronized use of the Log's file.
type slowSyncStorage struct{ *MemStorage }

func (s slowSyncStorage) Create(name string) (File, error) {
	f, err := s.MemStorage.Create(name)
	if err != nil || name != walFile {
		return f, err
	}
	return slowSyncFile{f}, nil
}

type slowSyncFile struct{ File }

func (slowSyncFile) Sync() error {
	time.Sleep(20 * time.Microsecond)
	return nil
}

// TestSyncRacesCarry: a Sync leader fsyncs the log file outside mu,
// holding only syncMu, so carry, which rewinds that file, must hold
// syncMu too. Under -race, an Append+Sync loop against
// a carry loop must report nothing, and no Sync may fail. One writer
// has nobody to coalesce with, so each Sync fsyncs unless a carry
// already made its record durable.
func TestSyncRacesCarry(t *testing.T) {
	st := slowSyncStorage{NewMemStorage()}
	f, _ := st.Create(walFile)
	l := newLog(f, 0, 0, nil, health.NewTracker(health.Options{}))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap, _ := st.Create(snapTmpFile)
			_, from := l.end()
			if _, err := l.carry(st, from, snap); err != nil {
				t.Errorf("carry: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		lsn, err := l.Append("fs", []byte{byte(i)})
		if err == nil {
			err = l.Sync(lsn)
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}
