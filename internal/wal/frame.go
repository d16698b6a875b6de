// Package wal is the durability layer beneath vfs and sqldb: a
// seed-deterministic append-only write-ahead log of logical records
// plus periodic compacted snapshots, with recovery-on-open.
//
// Layering: vfs and sqldb define small Journal interfaces and know
// nothing about this package; wal implements them (store.go) by
// encoding each mutation as a logical record (record.go), framing it
// (frame.go), and appending it to a Log with group commit (log.go) on
// a pluggable Storage (storage.go). Recovery replays the snapshot and
// then every record of the live log past the snapshot's cut LSN,
// truncating whatever follows the live log: a torn tail left by a
// crash, or stale frames left by an earlier pass over the file.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout, all integers little-endian:
//
//	[4B payload length][4B CRC-32 (IEEE) of payload][payload]
//
// payload:
//
//	[8B LSN][1B stream length][stream bytes][record bytes]
//
// The CRC covers the whole payload, so a torn write — a frame whose
// tail never reached the disk — fails the checksum and recovery stops
// cleanly at the previous frame boundary.
const (
	frameHeaderSize = 8
	recHeaderSize   = 9 // LSN + stream length

	// maxPayload bounds a single frame so a corrupt length field cannot
	// drive a giant allocation during recovery.
	maxPayload = 1 << 26 // 64 MiB
)

// ErrTornFrame reports a frame that is truncated or fails its
// checksum: the end of the valid log.
var ErrTornFrame = errors.New("wal: torn or corrupt frame")

// Record is one logical WAL record: a payload tagged with the stream
// it belongs to ("fs" for the file system, "db:<name>" for a
// database) and the log sequence number the Log assigned.
type Record struct {
	LSN     uint64
	Stream  string
	Payload []byte
}

// appendFrame encodes rec as a frame appended to buf.
func appendFrame(buf []byte, rec Record) []byte {
	buf, start := beginFrame(buf, rec.LSN, rec.Stream)
	buf = append(buf, rec.Payload...)
	return endFrame(buf, start)
}

// beginFrame appends the head of a frame — length and CRC slots, LSN,
// stream — and returns where the frame starts. The caller appends the
// record bytes in place and seals the frame with endFrame, so a large
// payload is never built apart from its frame.
func beginFrame(buf []byte, lsn uint64, stream string) ([]byte, int) {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize)...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = append(buf, byte(len(stream)))
	buf = append(buf, stream...)
	return buf, start
}

// endFrame fills in the length and CRC of the frame begun at start.
func endFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// DecodeFrame decodes the first frame in b, returning the record and
// the number of bytes the frame occupied. A truncated, oversized, or
// checksum-failing frame returns ErrTornFrame; recovery treats it as
// the end of the log. DecodeFrame never panics on arbitrary input
// (FuzzWALDecode).
func DecodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, ErrTornFrame
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen < recHeaderSize || plen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: bad payload length %d", ErrTornFrame, plen)
	}
	if len(b) < frameHeaderSize+plen {
		return Record{}, 0, ErrTornFrame
	}
	payload := b[frameHeaderSize : frameHeaderSize+plen]
	crc := binary.LittleEndian.Uint32(b[4:])
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrTornFrame)
	}
	slen := int(payload[8])
	if recHeaderSize+slen > plen {
		return Record{}, 0, fmt.Errorf("%w: stream name overruns payload", ErrTornFrame)
	}
	rec := Record{
		LSN:     binary.LittleEndian.Uint64(payload),
		Stream:  string(payload[recHeaderSize : recHeaderSize+slen]),
		Payload: payload[recHeaderSize+slen:],
	}
	return rec, frameHeaderSize + plen, nil
}

// scanFrames decodes consecutive frames from b, calling fn for each,
// and returns the byte length of the valid prefix. Decoding stops at
// the first torn frame. A non-nil error from fn aborts the scan.
func scanFrames(b []byte, fn func(Record) error) (int, error) {
	off := 0
	for off < len(b) {
		rec, n, err := DecodeFrame(b[off:])
		if err != nil {
			break
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}

// scanChain decodes the live log at the front of a WAL image: the
// frames from offset 0 whose LSNs run consecutively, the first at most
// cut+1. It calls fn (when non-nil) for each and returns the chain's
// byte length and last LSN (0 for an empty chain). A checkpoint rewinds
// the file instead of truncating it, so frames of earlier passes lie
// past the live log; their LSNs are at or below the cut, so the first
// of them breaks the chain, as a torn frame does. A non-nil error from
// fn aborts the scan.
func scanChain(b []byte, cut uint64, fn func(Record) error) (n int, last uint64, err error) {
	for n < len(b) {
		rec, size, derr := DecodeFrame(b[n:])
		if derr != nil || (n == 0 && rec.LSN > cut+1) || (n > 0 && rec.LSN != last+1) {
			break
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return n, last, err
			}
		}
		n += size
		last = rec.LSN
	}
	return n, last, nil
}
