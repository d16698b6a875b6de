package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes through the frame decoder, the
// prefix scanner and the chain scanner recovery uses. The contract
// under fuzz: never panic, never report a valid prefix longer than the
// input, and stop cleanly at the first bad frame (decoding the reported
// prefix again must succeed frame for frame). The chain is a prefix of
// those frames whose LSNs run consecutively from at most cut+1, the
// frame after it (if any) breaks that rule, and rescanning the chain
// gives the same chain.
func FuzzWALDecode(f *testing.F) {
	frames := func(first, last uint64, payload string) []byte {
		var b []byte
		for lsn := first; lsn <= last; lsn++ {
			b = appendFrame(b, Record{LSN: lsn, Stream: "db:main", Payload: []byte(payload)})
		}
		return b
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 0, 0, 0}, uint64(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint64(0))
	one := appendFrame(nil, Record{LSN: 1, Stream: "fs", Payload: []byte("seed payload")})
	f.Add(one, uint64(0))
	two := appendFrame(append([]byte(nil), one...), Record{LSN: 2, Stream: "db:main", Payload: []byte{1, 2, 3}})
	f.Add(two, uint64(0))
	f.Add(two[:len(two)-5], uint64(0)) // torn tail
	flipped := append([]byte(nil), two...)
	flipped[9] ^= 0x40
	f.Add(flipped, uint64(0))
	// A rewound pass (LSNs 5, 6 past the cut 4) overwrote the front of
	// the first (1..4): aligned stale frames, then misaligned ones.
	pass1 := frames(1, 4, "first pass")
	f.Add(pass1, uint64(4)) // a crash between the rename and the rewind
	pass2 := frames(5, 6, "second!!!!")
	f.Add(append(append([]byte(nil), pass2...), pass1[len(pass2):]...), uint64(4))
	short := frames(5, 6, "2nd")
	f.Add(append(append([]byte(nil), short...), pass1[len(short):]...), uint64(4))
	torn := append([]byte(nil), pass1...)
	copy(torn, pass2[:len(pass2)-3]) // the second pass's last frame torn
	f.Add(torn, uint64(4))

	f.Fuzz(func(t *testing.T, b []byte, cut uint64) {
		var recs []Record
		n, err := scanFrames(b, func(rec Record) error {
			if len(rec.Payload) > maxPayload {
				t.Fatalf("decoded payload of %d bytes exceeds maxPayload", len(rec.Payload))
			}
			recs = append(recs, rec)
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
		if n2 != n || recount != len(recs) {
			t.Fatalf("rescan of valid prefix: got %d bytes %d frames, want %d bytes %d frames", n2, recount, n, len(recs))
		}

		var chain []uint64
		cn, last, err := scanChain(b, cut, func(rec Record) error {
			chain = append(chain, rec.LSN)
			return nil
		})
		if err != nil {
			t.Fatalf("scanChain returned error without fn error: %v", err)
		}
		if cn > n || len(chain) > len(recs) {
			t.Fatalf("chain of %d frames over %d bytes exceeds the valid prefix of %d frames over %d bytes", len(chain), cn, len(recs), n)
		}
		for i, lsn := range chain {
			if lsn != recs[i].LSN {
				t.Fatalf("chain frame %d has LSN %d, the prefix's has %d", i, lsn, recs[i].LSN)
			}
			if i == 0 && lsn > cut+1 || i > 0 && lsn != chain[i-1]+1 {
				t.Fatalf("chain LSNs %v do not run consecutively from at most %d", chain, cut+1)
			}
		}
		if len(chain) > 0 && last != chain[len(chain)-1] || len(chain) == 0 && (last != 0 || cn != 0) {
			t.Fatalf("chain %v reported as %d bytes ending at LSN %d", chain, cn, last)
		}
		if k := len(chain); k < len(recs) && (k == 0 && recs[0].LSN <= cut+1 || k > 0 && recs[k].LSN == last+1) {
			t.Fatalf("chain %v stopped before frame %d (LSN %d), which continues it", chain, k, recs[k].LSN)
		}
		cn2, last2, _ := scanChain(b[:cn], cut, nil)
		if cn2 != cn || last2 != last {
			t.Fatalf("rescan of the chain: got %d bytes to LSN %d, want %d bytes to LSN %d", cn2, last2, cn, last)
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
