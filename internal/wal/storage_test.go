package wal

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"testing"
)

// TestMemStorageCrashModel drives the MemStorage crash model through
// its edge cases table-style: each case builds file state through the
// public API, crashes with a per-file keep decision, and checks the
// surviving bytes. The model under test is the contract the recover
// and degrade chaos engines rely on: Sync pins what was written, Crash
// keeps a caller-chosen prefix of the bytes written since and reverts
// the rest to their durable value, and metadata operations
// (Create/Remove/Rename) are immediately durable and atomic.
func TestMemStorageCrashModel(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, s *MemStorage)
		keep  func(name string, unsynced int) int
		want  map[string][]byte // file -> surviving bytes; absent = must not exist
	}{
		{
			name: "sync pins prefix, crash drops tail",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("wal")
				f.Write([]byte("durable"))
				f.Sync()
				f.Write([]byte("-lost"))
				f.Close()
			},
			want: map[string][]byte{"wal": []byte("durable")},
		},
		{
			name: "crash keeps a partial unsynced run",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("wal")
				f.Write([]byte("base"))
				f.Sync()
				f.Write([]byte("abcdef"))
				f.Close()
			},
			keep: func(string, int) int { return 3 },
			want: map[string][]byte{"wal": []byte("baseabc")},
		},
		{
			name: "sync after partial write pins exactly what reached the file",
			build: func(t *testing.T, s *MemStorage) {
				// Model a torn frame append: only a prefix of the frame was
				// written before the fault, then a later Sync runs anyway
				// (the group-commit leader serving another record). The
				// durable image must contain the torn prefix, not the full
				// frame — syncing cannot invent bytes.
				f, _ := s.Create("wal")
				full := []byte("record-one|record-two")
				f.Write(full[:10]) // torn: the rest never reached the file
				f.Sync()
				f.Close()
			},
			want: map[string][]byte{"wal": []byte("record-one")},
		},
		{
			name: "rename pins unsynced bytes durably",
			build: func(t *testing.T, s *MemStorage) {
				// The snapshot publish discipline: write + sync + rename.
				// But even an unsynced written image is pinned by Rename,
				// matching DirStorage's directory-fsync after rename.
				f, _ := s.Create("snapshot.tmp")
				f.Write([]byte("snap-image"))
				f.Close()
				if err := s.Rename("snapshot.tmp", "snapshot"); err != nil {
					t.Fatalf("rename: %v", err)
				}
			},
			want: map[string][]byte{"snapshot": []byte("snap-image")},
		},
		{
			name: "rename replaces the target atomically",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("snapshot")
				f.Write([]byte("old"))
				f.Sync()
				f.Close()
				g, _ := s.Create("snapshot.tmp")
				g.Write([]byte("new"))
				g.Sync()
				g.Close()
				if err := s.Rename("snapshot.tmp", "snapshot"); err != nil {
					t.Fatalf("rename: %v", err)
				}
			},
			want: map[string][]byte{"snapshot": []byte("new")},
		},
		{
			name: "remove is durable, removing missing is not an error",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("tmp")
				f.Write([]byte("x"))
				f.Sync()
				f.Close()
				if err := s.Remove("tmp"); err != nil {
					t.Fatalf("remove: %v", err)
				}
				if err := s.Remove("tmp"); err != nil {
					t.Fatalf("second remove: %v", err)
				}
			},
			want: map[string][]byte{},
		},
		{
			name: "append truncation drops durable bytes past validLen",
			build: func(t *testing.T, s *MemStorage) {
				// Torn-tail truncation at recovery: Append(name, validLen)
				// must shorten the durable image too, so a later crash
				// cannot resurrect the truncated tail.
				f, _ := s.Create("wal")
				f.Write([]byte("good|torn"))
				f.Sync()
				f.Close()
				g, err := s.Append("wal", 4)
				if err != nil {
					t.Fatalf("append: %v", err)
				}
				g.Write([]byte("+new")) // unsynced: must die in the crash
				g.Close()
			},
			want: map[string][]byte{"wal": []byte("good")},
		},
		{
			name: "rewound overwrite keeps a prefix, the rest reverts",
			build: func(t *testing.T, s *MemStorage) {
				// A checkpoint's rewind: the next pass overwrites the file
				// from offset 0. Its unsynced bytes run from there to the
				// end of the file (10), so keep sees all ten; the two it
				// keeps are new, the rest revert to the durable pass.
				f, _ := s.Create("wal")
				f.Write([]byte("AAAAAAAAAA"))
				f.Sync()
				f.Seek(0, io.SeekStart)
				f.Write([]byte("BBBB"))
			},
			keep: func(_ string, unsynced int) int { return unsynced - 8 },
			want: map[string][]byte{"wal": []byte("BBAAAAAAAA")},
		},
		{
			name: "rewound overwrite past the durable end vanishes",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("wal")
				f.Write([]byte("AAAA"))
				f.Sync()
				f.Seek(0, io.SeekStart)
				f.Write([]byte("BBBBBBBB"))
			},
			keep: func(string, int) int { return 3 },
			want: map[string][]byte{"wal": []byte("BBBA")},
		},
		{
			name: "sync after a rewind pins the overwrite",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("wal")
				f.Write([]byte("AAAAAA"))
				f.Sync()
				f.Seek(0, io.SeekStart)
				f.Write([]byte("BB"))
				f.Sync()
				f.Write([]byte("CC"))
			},
			want: map[string][]byte{"wal": []byte("BBAAAA")},
		},
		{
			name: "double close is harmless",
			build: func(t *testing.T, s *MemStorage) {
				f, _ := s.Create("wal")
				f.Write([]byte("ab"))
				f.Sync()
				if err := f.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if err := f.Close(); err != nil {
					t.Fatalf("double close: %v", err)
				}
				// A closed handle's synced bytes stay durable.
			},
			want: map[string][]byte{"wal": []byte("ab")},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewMemStorage()
			tc.build(t, s)
			s.Crash(tc.keep)
			// A second crash finds nothing unsynced and changes nothing.
			s.Crash(func(name string, unsynced int) int {
				t.Fatalf("second crash: %s has %d unsynced bytes", name, unsynced)
				return 0
			})
			for name, want := range tc.want {
				got, err := s.ReadFile(name)
				if err != nil {
					t.Fatalf("read %s after crash: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s after crash = %q, want %q", name, got, want)
				}
			}
			// Nothing else survived.
			for _, name := range []string{"wal", "snapshot", "snapshot.tmp", "tmp"} {
				if _, expected := tc.want[name]; expected {
					continue
				}
				if _, err := s.ReadFile(name); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("%s should not exist after crash (err=%v)", name, err)
				}
			}
		})
	}
}

// TestMemHandleReadAtSeek: a handle reads the written image at any
// offset, a read past the end comes back short with io.EOF, and a Seek
// moves where the next write lands.
func TestMemHandleReadAtSeek(t *testing.T) {
	s := NewMemStorage()
	f, _ := s.Create("wal")
	f.Write([]byte("abcdef"))
	p := make([]byte, 3)
	if n, err := f.ReadAt(p, 2); n != 3 || err != nil || string(p) != "cde" {
		t.Fatalf("ReadAt(2) = %d %q %v, want 3 \"cde\" nil", n, p, err)
	}
	if n, err := f.ReadAt(p, 4); n != 2 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(4) = %d %v, want a short read with io.EOF", n, err)
	}
	if off, err := f.Seek(1, io.SeekStart); off != 1 || err != nil {
		t.Fatalf("Seek(1) = %d %v", off, err)
	}
	f.Write([]byte("XY"))
	if got, _ := s.ReadFile("wal"); string(got) != "aXYdef" {
		t.Fatalf("after an overwrite at offset 1 the file holds %q, want \"aXYdef\"", got)
	}
}

// TestMemStorageCrashIsIdempotent checks a second crash (no
// intervening writes) changes nothing: crash pins written == durable.
func TestMemStorageCrashIsIdempotent(t *testing.T) {
	s := NewMemStorage()
	f, _ := s.Create("wal")
	f.Write([]byte("abc"))
	f.Sync()
	f.Write([]byte("def"))
	s.Crash(func(string, int) int { return 1 })
	first, _ := s.ReadFile("wal")
	s.Crash(nil)
	second, _ := s.ReadFile("wal")
	if !bytes.Equal(first, []byte("abcd")) || !bytes.Equal(first, second) {
		t.Fatalf("crash not idempotent: %q then %q", first, second)
	}
}

// TestCreateTruncatesOpenHandles: Create truncates an existing file in
// place on both storages, so a handle opened before it reads the
// truncated file and what is written after, not an orphaned copy.
func TestCreateTruncatesOpenHandles(t *testing.T) {
	dir, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Storage{"mem": NewMemStorage(), "dir": dir} {
		t.Run(name, func(t *testing.T) {
			old, err := s.Create("wal")
			if err != nil {
				t.Fatal(err)
			}
			defer old.Close()
			if _, err := old.Write([]byte("abcdef")); err != nil {
				t.Fatal(err)
			}
			if err := old.Sync(); err != nil {
				t.Fatal(err)
			}
			f, err := s.Create("wal")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			p := make([]byte, 6)
			if n, err := old.ReadAt(p, 0); n != 0 || !errors.Is(err, io.EOF) {
				t.Errorf("old handle after Create: %d bytes %q, %v; want none and io.EOF", n, p[:n], err)
			}
			if _, err := f.Write([]byte("xy")); err != nil {
				t.Fatal(err)
			}
			if n, _ := old.ReadAt(p, 0); string(p[:n]) != "xy" {
				t.Errorf("old handle reads %q, want the new file's \"xy\"", p[:n])
			}
		})
	}
}
