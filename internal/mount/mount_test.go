package mount

import (
	"errors"
	"testing"

	"maxoid/internal/unionfs"
	"maxoid/internal/vfs"
)

func newDisk(t *testing.T, dirs ...string) *vfs.FS {
	t.Helper()
	disk := vfs.New()
	for _, d := range dirs {
		if err := disk.MkdirAll(vfs.Root, d, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	return disk
}

func TestLongestPrefixResolution(t *testing.T) {
	disk := newDisk(t, "/a", "/b", "/c")
	ns := New()
	ns.Mount("/", vfs.Sub(disk, "/a"))
	ns.Mount("/data", vfs.Sub(disk, "/b"))
	ns.Mount("/data/app", vfs.Sub(disk, "/c"))

	cases := []struct {
		path, wantRel, backing string
	}{
		{"/f", "/f", "/a/f"},
		{"/data/f", "/f", "/b/f"},
		{"/data/app/f", "/f", "/c/f"},
		{"/data/app", "/", ""},
		{"/data/application", "/application", "/b/application"},
	}
	for _, tc := range cases {
		_, rel, err := ns.Resolve(tc.path)
		if err != nil {
			t.Fatalf("Resolve(%s): %v", tc.path, err)
		}
		if rel != tc.wantRel {
			t.Errorf("Resolve(%s) rel = %q, want %q", tc.path, rel, tc.wantRel)
		}
		if tc.backing != "" {
			if err := vfs.WriteFile(ns, vfs.Root, tc.path, []byte("x"), 0o644); err != nil {
				t.Fatalf("write %s: %v", tc.path, err)
			}
			if !vfs.Exists(disk, vfs.Root, tc.backing) {
				t.Errorf("write to %s did not land at %s", tc.path, tc.backing)
			}
		}
	}
}

func TestNoMount(t *testing.T) {
	ns := New()
	if _, _, err := ns.Resolve("/anything"); !errors.Is(err, ErrNoMount) {
		t.Errorf("Resolve on empty ns: %v, want ErrNoMount", err)
	}
	disk := newDisk(t, "/x")
	ns.Mount("/only", vfs.Sub(disk, "/x"))
	if _, _, err := ns.Resolve("/other"); !errors.Is(err, ErrNoMount) {
		t.Errorf("Resolve outside mounts: %v, want ErrNoMount", err)
	}
}

func TestMountReplace(t *testing.T) {
	disk := newDisk(t, "/v1", "/v2")
	if err := vfs.WriteFile(disk, vfs.Root, "/v1/f", []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(disk, vfs.Root, "/v2/f", []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	ns := New()
	ns.Mount("/m", vfs.Sub(disk, "/v1"))
	ns.Mount("/m", vfs.Sub(disk, "/v2"))
	got, err := vfs.ReadFile(ns, vfs.Root, "/m/f")
	if err != nil || string(got) != "two" {
		t.Errorf("after remount = %q, %v", got, err)
	}
	if len(ns.Table()) != 1 {
		t.Errorf("mount table has %d entries, want 1", len(ns.Table()))
	}
}

func TestUnmount(t *testing.T) {
	disk := newDisk(t, "/x")
	ns := New()
	ns.Mount("/m", vfs.Sub(disk, "/x"))
	ns.Unmount("/m")
	if _, _, err := ns.Resolve("/m/f"); !errors.Is(err, ErrNoMount) {
		t.Errorf("after unmount: %v, want ErrNoMount", err)
	}
	ns.Unmount("/m") // second unmount is a no-op
}

func TestCloneIndependence(t *testing.T) {
	disk := newDisk(t, "/shared", "/private")
	ns := New()
	ns.Mount("/", vfs.Sub(disk, "/shared"))

	child := ns.Clone()
	child.Mount("/priv", vfs.Sub(disk, "/private"))

	// Parent namespace is unaffected by the child's mount.
	if _, _, err := ns.Resolve("/priv/f"); err != nil {
		// /priv resolves through the / mount in the parent — fine.
		t.Fatalf("parent resolve: %v", err)
	}
	if err := ns.MkdirAll(vfs.Root, "/priv", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(ns, vfs.Root, "/priv/f", []byte("p"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !vfs.Exists(disk, vfs.Root, "/shared/priv/f") {
		t.Error("parent write went to wrong backing dir")
	}
	// Child sees its own mount.
	if err := vfs.WriteFile(child, vfs.Root, "/priv/g", []byte("c"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !vfs.Exists(disk, vfs.Root, "/private/g") {
		t.Error("child write did not go to child mount")
	}
	// But both share underlying filesystems mounted before the clone.
	if err := vfs.WriteFile(ns, vfs.Root, "/common", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadFile(child, vfs.Root, "/common"); err != nil {
		t.Errorf("child cannot see shared mount write: %v", err)
	}
}

func TestRenameWithinMount(t *testing.T) {
	disk := newDisk(t, "/x")
	ns := New()
	ns.Mount("/", vfs.Sub(disk, "/x"))
	if err := vfs.WriteFile(ns, vfs.Root, "/a", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ns.Rename(vfs.Root, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(ns, vfs.Root, "/b")
	if err != nil || string(got) != "v" {
		t.Errorf("rename dst = %q, %v", got, err)
	}
}

func TestRenameCrossMount(t *testing.T) {
	disk := newDisk(t, "/x", "/y")
	ns := New()
	ns.Mount("/m1", vfs.Sub(disk, "/x"))
	ns.Mount("/m2", vfs.Sub(disk, "/y"))
	if err := vfs.WriteFile(ns, vfs.Root, "/m1/f", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ns.Rename(vfs.Root, "/m1/f", "/m2/g"); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(ns, vfs.Root, "/m1/f") {
		t.Error("cross-mount rename left source")
	}
	got, err := vfs.ReadFile(disk, vfs.Root, "/y/g")
	if err != nil || string(got) != "v" {
		t.Errorf("cross-mount dst = %q, %v", got, err)
	}
}

func TestNamespaceWithUnionMount(t *testing.T) {
	disk := newDisk(t, "/pub", "/tmpA")
	if err := vfs.WriteFile(disk, vfs.Root, "/pub/f", []byte("public"), 0o666); err != nil {
		t.Fatal(err)
	}
	u, err := unionfs.New(unionfs.Options{AllowAllReads: true, AllowAllWrites: true},
		unionfs.Branch{FS: vfs.Sub(disk, "/tmpA"), Writable: true},
		unionfs.Branch{FS: vfs.Sub(disk, "/pub")},
	)
	if err != nil {
		t.Fatal(err)
	}
	ns := New()
	ns.Mount("/storage/sdcard", u)

	app := vfs.Cred{UID: 1001}
	got, err := vfs.ReadFile(ns, app, "/storage/sdcard/f")
	if err != nil || string(got) != "public" {
		t.Fatalf("read through union mount = %q, %v", got, err)
	}
	if err := vfs.WriteFile(ns, app, "/storage/sdcard/f", []byte("edited"), 0o666); err != nil {
		t.Fatal(err)
	}
	// Write was redirected to the volatile branch.
	pub, _ := vfs.ReadFile(disk, vfs.Root, "/pub/f")
	if string(pub) != "public" {
		t.Errorf("public copy mutated: %q", pub)
	}
	vol, err := vfs.ReadFile(disk, vfs.Root, "/tmpA/f")
	if err != nil || string(vol) != "edited" {
		t.Errorf("volatile copy = %q, %v", vol, err)
	}
}

func TestTableSorted(t *testing.T) {
	disk := newDisk(t, "/a", "/b", "/c")
	ns := New()
	ns.Mount("/z", vfs.Sub(disk, "/a"))
	ns.Mount("/a", vfs.Sub(disk, "/b"))
	ns.Mount("/m", vfs.Sub(disk, "/c"))
	tbl := ns.Table()
	if len(tbl) != 3 || tbl[0].Point != "/a" || tbl[1].Point != "/m" || tbl[2].Point != "/z" {
		t.Errorf("Table = %+v", tbl)
	}
}

// TestClosedNamespaceResolveError: a closed namespace resolves nothing.
// Close (a failed fork's clean-up) fails resolutions with ErrNoMount;
// CloseWith (process death) fails them with the cause it was handed,
// and a second close does not replace that cause.
func TestClosedNamespaceResolveError(t *testing.T) {
	errDied := errors.New("process died")
	for _, tc := range []struct {
		name  string
		close func(ns *Namespace)
		want  error
	}{
		{"Close", func(ns *Namespace) { _ = ns.Close() }, ErrNoMount},
		{"CloseWith", func(ns *Namespace) { _ = ns.CloseWith(errDied) }, errDied},
		{"CloseWith then Close", func(ns *Namespace) { _ = ns.CloseWith(errDied); _ = ns.Close() }, errDied},
	} {
		ns := New()
		ns.Mount("/", vfs.Sub(newDisk(t, "/a"), "/a"))
		tc.close(ns)
		if _, _, err := ns.Resolve("/x"); !errors.Is(err, tc.want) {
			t.Errorf("%s: Resolve = %v, want %v", tc.name, err, tc.want)
		}
	}
}
