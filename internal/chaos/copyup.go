package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"maxoid/internal/fault"
	"maxoid/internal/unionfs"
	"maxoid/internal/vfs"
)

const copyUpFiles = 8

// copyUpContent builds a ~1KB payload so injected short writes leave a
// detectable truncation rather than a coincidentally complete file.
func copyUpContent(tag string, i, gen int) []byte {
	line := fmt.Sprintf("%s-%d-gen%d|", tag, i, gen)
	return []byte(strings.Repeat(line, 1024/len(line)+1))
}

// runCopyUp drives a union filesystem through copy-up, remove
// (whiteout) and re-create cycles while killing the multi-step
// transitions at injected points, asserting after every operation that
// the merged view is fully-old or fully-new — never truncated content,
// never a resurrected lower-branch file.
//
// Copy-up is triggered through metadata-only operations (Chmod/Chown),
// so the file's content must never change: any observed difference is
// a torn copy-up leaking into the merged view.
func runCopyUp(seed int64, ops int, rep *Report) {
	rep.Ops = ops

	disk := vfs.New()
	for _, d := range []string{"/lower", "/upper"} {
		if err := disk.MkdirAll(vfs.Root, d, 0o755); err != nil {
			rep.failf("setup: %v", err)
			return
		}
	}
	// expected holds the merged-view content each file must show, nil
	// meaning the file must be absent.
	expected := make(map[string][]byte, copyUpFiles)
	for i := 0; i < copyUpFiles; i++ {
		name := fmt.Sprintf("/f%d", i)
		data := copyUpContent("lower", i, 0)
		if err := vfs.WriteFile(disk, vfs.Root, "/lower"+name, data, 0o644); err != nil {
			rep.failf("setup: %v", err)
			return
		}
		expected[name] = data
	}
	u, err := unionfs.New(unionfs.Options{},
		unionfs.Branch{FS: vfs.Sub(disk, "/upper"), Writable: true},
		unionfs.Branch{FS: vfs.Sub(disk, "/lower")},
	)
	if err != nil {
		rep.failf("setup: %v", err)
		return
	}

	fault.Arm(seed+1,
		fault.Spec{Point: "unionfs.copyup", Prob: 0.10, Op: fault.OpError},
		fault.Spec{Point: "unionfs.whiteout", Prob: 0.15, Op: fault.OpError},
		fault.Spec{Point: "vfs.write", Prob: 0.08, Op: fault.OpPartial},
		fault.Spec{Point: "vfs.rename", Prob: 0.08, Op: fault.OpError},
	)

	r := rand.New(rand.NewSource(seed))
	verify := func(i int, op, name string) {
		// Reads go through the union as an observer would; injection is
		// paused so verification itself cannot fail.
		fault.Suspend()
		defer fault.Resume()
		want := expected[name]
		got, err := vfs.ReadFile(u, vfs.Root, name)
		switch {
		case want == nil:
			if err == nil {
				rep.failf("op %d %s %s: file visible after remove (content %q...)", i, op, name, truncFor(got))
			} else if !errors.Is(err, vfs.ErrNotExist) {
				rep.failf("op %d %s %s: read failed with %v, want not-exist", i, op, name, err)
			}
		case err != nil:
			rep.failf("op %d %s %s: merged view lost the file: %v", i, op, name, err)
		case string(got) != string(want):
			rep.failf("op %d %s %s: MIXED view: got %d bytes %q..., want %d bytes %q...",
				i, op, name, len(got), truncFor(got), len(want), truncFor(want))
		}
	}

	gen := 1
	for i := 0; i < ops && len(rep.Failures) < 10; i++ {
		name := fmt.Sprintf("/f%d", r.Intn(copyUpFiles))
		switch n := r.Intn(100); {
		case n < 45: // metadata op: copy-up trigger, content must not change
			op := "chmod"
			var err error
			if r.Intn(2) == 0 {
				err = u.Chmod(vfs.Root, name, 0o640)
			} else {
				op = "chown"
				err = u.Chown(vfs.Root, name, 10000+r.Intn(4))
			}
			if err != nil && !errors.Is(err, fault.ErrInjected) && !errors.Is(err, vfs.ErrNotExist) {
				rep.failf("op %d %s %s: unexpected error %v", i, op, name, err)
			}
			verify(i, op, name)
		case n < 75: // remove: whiteout transition
			err := u.Remove(vfs.Root, name)
			switch {
			case err == nil:
				expected[name] = nil
			case errors.Is(err, fault.ErrInjected):
				// The injected kill may have landed before or after the
				// point of no return: accept fully-old or fully-new, and
				// update the expectation to what the view actually shows.
				fault.Suspend()
				if !vfs.Exists(u, vfs.Root, name) {
					expected[name] = nil
				}
				fault.Resume()
			case !errors.Is(err, vfs.ErrNotExist):
				rep.failf("op %d remove %s: unexpected error %v", i, name, err)
			}
			verify(i, "remove", name)
		default: // revive a removed file (workload scaffolding, not under test)
			if expected[name] != nil {
				continue
			}
			fault.Suspend()
			data := copyUpContent("revive", r.Intn(copyUpFiles), gen)
			gen++
			err := vfs.WriteFile(u, vfs.Root, name, data, 0o644)
			fault.Resume()
			if err != nil {
				rep.failf("op %d revive %s: %v", i, name, err)
				continue
			}
			expected[name] = data
			verify(i, "revive", name)
		}
	}
}

func truncFor(b []byte) string {
	if len(b) > 24 {
		b = b[:24]
	}
	return string(b)
}
