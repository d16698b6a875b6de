package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"maxoid/internal/ams"
	"maxoid/internal/intent"
	"maxoid/internal/kernel"
	"maxoid/internal/netstack"
	"maxoid/internal/vfs"
)

// TestTrustedCloudExtension covers the πBox-style extension sketched in
// §2.4: delegates remain cut off from the open network but may reach
// hosts on the trusted-cloud whitelist.
func TestTrustedCloudExtension(t *testing.T) {
	s, err := Boot(Options{TrustedCloudHosts: []string{"trusted.cloud"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := netstack.NewStaticFileServer()
	srv.Put("/process", []byte("ok"))
	s.Net.Register("trusted.cloud", srv)
	s.Net.Register("open.web", srv)

	installScript(t, s, "appA", ams.Manifest{})
	installScript(t, s, "helper", ams.Manifest{Filters: viewFilter()})

	actx, _ := s.Launch("appA", intent.Intent{})
	dctx, err := actx.StartActivity(intent.Intent{Action: intent.ActionView, Data: "/x", Flags: intent.FlagDelegate})
	if err != nil {
		t.Fatal(err)
	}
	// Open web still unreachable.
	if _, err := dctx.Connect("open.web"); !errors.Is(err, kernel.ErrNetUnreachable) {
		t.Errorf("open web from delegate: %v", err)
	}
	// Trusted cloud reachable.
	conn, err := dctx.Connect("trusted.cloud")
	if err != nil {
		t.Fatalf("trusted cloud from delegate: %v", err)
	}
	resp, err := conn.Do("/process", []byte("payload"))
	if err != nil || resp.Status != 200 {
		t.Errorf("trusted request: %+v, %v", resp, err)
	}
	// Without the option, nothing is trusted.
	s2, _ := Boot(Options{})
	s2.Net.Register("trusted.cloud", srv)
	installScript(t, s2, "appA", ams.Manifest{})
	installScript(t, s2, "helper", ams.Manifest{Filters: viewFilter()})
	a2, _ := s2.Launch("appA", intent.Intent{})
	d2, _ := a2.StartActivity(intent.Intent{Action: intent.ActionView, Data: "/x", Flags: intent.FlagDelegate})
	if _, err := d2.Connect("trusted.cloud"); !errors.Is(err, kernel.ErrNetUnreachable) {
		t.Errorf("default build trusted host: %v", err)
	}
}

// TestConcurrentConfinementDomains runs several initiators and their
// delegates in parallel, each writing into its own domain, and checks
// complete isolation afterwards — a race-detector workout for the whole
// stack (Zygote, AMS, unions, providers). Each domain has its own worker
// package: one package delegated to by several initiators at once would
// be killed on conflict (§6.2, TestSecondInitiatorKillsWorker).
func TestConcurrentConfinementDomains(t *testing.T) {
	s := boot(t)
	const domains = 4
	names := make([]string, domains)
	for i := range names {
		names[i] = string(rune('a'+i)) + ".initiator"
		installScript(t, s, names[i], ams.Manifest{})
		installScript(t, s, names[i]+".worker", ams.Manifest{Filters: viewFilter()})
	}

	var wg sync.WaitGroup
	errs := make(chan error, domains)
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			errs <- runDomain(s, name)
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Cross-domain isolation: each initiator sees only its own tag.
	for _, name := range names {
		actx, _ := s.Launch(name, intent.Intent{})
		got, err := readAs(actx, actx.VolDir()+"/tag.txt")
		if err != nil || got != "domain-"+name {
			t.Errorf("domain %s sees %q, %v", name, got, err)
		}
	}
}

// runDomain launches initiator name and its worker as a delegate; the
// delegate writes a domain-tagged file that must read back for the
// delegate and land in the initiator's Vol.
func runDomain(s *System, name string) error {
	actx, err := s.Launch(name, intent.Intent{})
	if err != nil {
		return err
	}
	dctx, err := s.LaunchAsDelegate(name+".worker", name, intent.Intent{})
	if err != nil {
		return err
	}
	payload := "domain-" + name
	for j := 0; j < 10; j++ {
		path := dctx.ExtDir() + "/tag.txt"
		if err := vfs.WriteFile(dctx.FS(), dctx.Cred(), path, []byte(payload), 0o666); err != nil {
			return fmt.Errorf("%s: delegate write: %w", name, err)
		}
		if got, err := readAs(dctx, path); err != nil || got != payload {
			return fmt.Errorf("%s: delegate reads %q, %v", name, got, err)
		}
	}
	if got, err := readAs(actx, actx.VolDir()+"/tag.txt"); err != nil || got != payload {
		return fmt.Errorf("%s: initiator's Vol holds %q, %v", name, got, err)
	}
	return nil
}

// TestSecondInitiatorKillsWorker: an app runs as one instance at a
// time, so launching it as a delegate for a second initiator kills the
// instance serving the first (§6.2 kill-on-conflict).
func TestSecondInitiatorKillsWorker(t *testing.T) {
	s := boot(t)
	installScript(t, s, "a.initiator", ams.Manifest{})
	installScript(t, s, "b.initiator", ams.Manifest{})
	installScript(t, s, "worker", ams.Manifest{Filters: viewFilter()})
	for _, name := range []string{"a.initiator", "b.initiator"} {
		if _, err := s.Launch(name, intent.Intent{}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := s.LaunchAsDelegate("worker", "a.initiator", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	killed := s.AM.KilledForConflict()
	second, err := s.LaunchAsDelegate("worker", "b.initiator", intent.Intent{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Alive() || !second.Alive() {
		t.Errorf("alive after second launch: first %v, second %v", first.Alive(), second.Alive())
	}
	if n := s.AM.KilledForConflict() - killed; n != 1 {
		t.Errorf("conflict kills = %d, want 1", n)
	}
	if second.Initiator() != "b.initiator" {
		t.Errorf("second instance serves %q", second.Initiator())
	}
}

// TestCommitVolatileFileEdgeCases exercises commit with odd paths.
func TestCommitVolatileFileEdgeCases(t *testing.T) {
	s := boot(t)
	installScript(t, s, "appA", ams.Manifest{})
	installScript(t, s, "viewer", ams.Manifest{Filters: viewFilter()})
	actx, _ := s.Launch("appA", intent.Intent{})
	dctx, _ := actx.StartActivity(intent.Intent{Action: intent.ActionView, Data: "/x", Flags: intent.FlagDelegate})
	if err := dctx.FS().MkdirAll(dctx.Cred(), dctx.ExtDir()+"/deep/nest", 0o777); err != nil {
		t.Fatal(err)
	}
	writeAs(t, dctx, dctx.ExtDir()+"/deep/nest/file.txt", "v")

	vols, err := s.ListVolatileFiles("appA")
	if err != nil || len(vols) != 1 {
		t.Fatalf("vols = %v, %v", vols, err)
	}
	if err := s.CommitVolatileFile("appA", vols[0], actx.ExtDir()+"/committed/out.txt"); err != nil {
		t.Fatal(err)
	}
	got, err := readAs(actx, actx.ExtDir()+"/committed/out.txt")
	if err != nil || got != "v" {
		t.Errorf("committed = %q, %v", got, err)
	}
	// Committing a missing volatile file fails.
	if err := s.CommitVolatileFile("appA", "/storage/sdcard/tmp/nope", "/storage/sdcard/x"); err == nil {
		t.Error("commit of missing file should fail")
	}
	// ListVolatileFiles of an unknown initiator is empty, not an error.
	vols, err = s.ListVolatileFiles("nobody")
	if err != nil || len(vols) != 0 {
		t.Errorf("unknown initiator vols = %v, %v", vols, err)
	}
}

// TestVolatileRecordsUnknownAuthority covers the facade error path.
func TestVolatileRecordsUnknownAuthority(t *testing.T) {
	s := boot(t)
	if _, err := s.VolatileRecords("bogus", "t", "a"); err == nil {
		t.Error("unknown authority should fail")
	}
}

// TestVolatileListingHidesWhiteouts: a delegate deleting a public file
// creates a whiteout in Vol(A)'s backing branch; the initiator-facing
// listing must not expose that union-internal artifact.
func TestVolatileListingHidesWhiteouts(t *testing.T) {
	s := boot(t)
	installScript(t, s, "appA", ams.Manifest{})
	installScript(t, s, "viewer", ams.Manifest{Filters: viewFilter()})
	actx, _ := s.Launch("appA", intent.Intent{})
	writeAs(t, actx, actx.ExtDir()+"/public.txt", "p")
	dctx, _ := actx.StartActivity(intent.Intent{Action: intent.ActionView, Data: "/x", Flags: intent.FlagDelegate})
	if err := dctx.FS().Remove(dctx.Cred(), dctx.ExtDir()+"/public.txt"); err != nil {
		t.Fatal(err)
	}
	vols, err := s.ListVolatileFiles("appA")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vols {
		if strings.Contains(v, ".wh.") {
			t.Errorf("whiteout leaked into volatile listing: %s", v)
		}
	}
	// The public file is hidden from the delegate but intact publicly.
	if _, err := readAs(dctx, dctx.ExtDir()+"/public.txt"); err == nil {
		t.Error("delegate still sees deleted file")
	}
	if got, _ := readAs(actx, actx.ExtDir()+"/public.txt"); got != "p" {
		t.Errorf("public file mutated: %q", got)
	}
}
