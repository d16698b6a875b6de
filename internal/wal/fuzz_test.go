package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes through the frame decoder and
// the prefix scanner. The contract under fuzz: never panic, never
// report a valid prefix longer than the input, and stop cleanly at the
// first bad frame (decoding the reported prefix again must succeed
// frame for frame).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	one := appendFrame(nil, Record{LSN: 1, Stream: "fs", Payload: []byte("seed payload")})
	f.Add(one)
	two := appendFrame(append([]byte(nil), one...), Record{LSN: 2, Stream: "db:main", Payload: []byte{1, 2, 3}})
	f.Add(two)
	f.Add(two[:len(two)-5]) // torn tail
	flipped := append([]byte(nil), two...)
	flipped[9] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		count := 0
		n, err := scanFrames(b, func(rec Record) error {
			if len(rec.Payload) > maxPayload {
				t.Fatalf("decoded payload of %d bytes exceeds maxPayload", len(rec.Payload))
			}
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("scanFrames returned error without fn error: %v", err)
		}
		if n < 0 || n > len(b) {
			t.Fatalf("valid prefix %d out of range [0,%d]", n, len(b))
		}
		// Rescanning the valid prefix must decode the same frames.
		recount := 0
		n2, _ := scanFrames(b[:n], func(Record) error { recount++; return nil })
		if n2 != n || recount != count {
			t.Fatalf("rescan of valid prefix: got %d bytes %d frames, want %d bytes %d frames", n2, recount, n, count)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes through the scrubber's
// snapshot verifier. Contract: never panic, accept a well-formed image
// exactly (returning its cut, the highest LSN it holds), and reject
// any input whose valid frame prefix does not cover the whole file or
// whose first frame is not the snap header.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	hdr := appendFrame(nil, Record{LSN: 7, Stream: snapStream, Payload: []byte{7, 0, 0, 0, 0, 0, 0, 0}})
	f.Add(hdr)
	img := appendFrame(append([]byte(nil), hdr...), Record{LSN: 7, Stream: "db:main", Payload: []byte("CREATE TABLE t (x)")})
	f.Add(img)
	f.Add(img[:len(img)-3]) // truncated
	bad := append([]byte(nil), img...)
	bad[len(hdr)+6] ^= 0x10 // corrupt the body frame
	f.Add(bad)
	noHdr := appendFrame(nil, Record{LSN: 1, Stream: "fs", Payload: []byte("not a header")})
	f.Add(noHdr)
	// A WAL frame carried past the image.
	f.Add(appendFrame(append([]byte(nil), img...), Record{LSN: 8, Stream: "fs", Payload: []byte("carried")}))

	f.Fuzz(func(t *testing.T, b []byte) {
		cut, err := verifySnapshot(b)
		if err != nil {
			return
		}
		// Accepted: the image must re-verify identically, and any
		// truncation must be rejected.
		cut2, err2 := verifySnapshot(b)
		if err2 != nil || cut2 != cut {
			t.Fatalf("re-verify diverged: cut %d/%d err %v", cut, cut2, err2)
		}
		if len(b) > 0 {
			if _, err := verifySnapshot(b[:len(b)-1]); err == nil {
				t.Fatal("truncated image verified clean")
			}
		}
	})
}
