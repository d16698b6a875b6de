// Degrade-chaos engine: storage health and degradation under injected
// transient and permanent faults.
//
// Phase 1 drives a seeded single-goroutine workload of filesystem
// writes and single-statement SQL batches over a durable environment
// (internal/wal over MemStorage) through seeded fault windows: bursts
// of transient append/fsync faults (absorbed by retry or exhausting
// the budget into read-only), permanent corruption (poisoning), scrub
// faults, and byte-level corruption of the on-disk WAL behind the
// store's back. Between and during windows the engine tracks three
// models in plain Go maps:
//
//	live     what the in-memory state must read as right now —
//	         including residue: mutations whose durability failed
//	         after memory changed (never acknowledged);
//	base     the durable state at the last crash/heal boundary;
//	tape     every WAL-appended op since base, with its LSN.
//
// Crashes rebuild the durable model as base + tape records at or below
// the recovered LSN and diff it against the recovered state; heals
// require memory and disk to agree (residue folded durably) and fold
// live into base.
//
// Phase 2 boots a full durable system and degrades it under a delegate
// workload, checking confinement: a degraded store rejects delegate
// writes with the typed gate error and never redirects them into base
// state, reads keep serving, admission control sheds write-class
// transactions, and the store provably heals.
//
// The five invariants:
//
//  1. No write acked without durability: every acknowledged op is at
//     or below the recovered LSN after any crash, and the recovered
//     state contains it.
//  2. Reads stay consistent throughout degradation: live reads always
//     match the live model, read-only or not.
//  3. Confinement holds while degraded: delegate writes are rejected,
//     never redirected into base state.
//  4. Typed errors only: every workload error is an injected fault, a
//     health/WAL sentinel, or an ordinary fs error.
//  5. The store provably returns to healthy: after every fault window
//     clears, heal (or crash recovery) restores Healthy and a write
//     succeeds.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/fault"
	"maxoid/internal/health"
	"maxoid/internal/intent"
	"maxoid/internal/provider"
	"maxoid/internal/testutil"
	"maxoid/internal/vfs"
	"maxoid/internal/wal"
)

// runDegrade performs one seeded degrade-chaos run: phase 1 over ops
// workload operations, then phase 2 if phase 1 passed.
func runDegrade(seed int64, ops int, r *Report) {
	degradeStore(seed, ops, r)
	if r.OK() {
		degradeConfinement(seed, r)
	}
}

// degradeErrors are the typed, expected outcomes of a degraded store
// (invariant 4): the recover engine's list (fault.ErrInjected covers
// ErrTransient, which wraps it) plus the write gate's ErrReadOnly.
var degradeErrors = append([]error{health.ErrReadOnly}, recoverErrors...)

// dmodel is the plain-Go reference state for phase 1: a flat file
// namespace plus the notes table (id -> body|rank) and its allocator.
type dmodel struct {
	files  map[string]string
	notes  map[int64]string
	nextID int64
}

func newDmodel() *dmodel {
	return &dmodel{files: map[string]string{}, notes: map[int64]string{}, nextID: 1}
}

func (m *dmodel) clone() *dmodel {
	c := &dmodel{
		files:  make(map[string]string, len(m.files)),
		notes:  make(map[int64]string, len(m.notes)),
		nextID: m.nextID,
	}
	for k, v := range m.files {
		c.files[k] = v
	}
	for k, v := range m.notes {
		c.notes[k] = v
	}
	return c
}

// degradeTapeOp is one WAL-appended workload op: its LSN, whether it
// was acknowledged durable, and its effect on a model.
type degradeTapeOp struct {
	lsn   uint64
	acked bool
	apply func(m *dmodel)
}

// faultWindow is one armed burst of injected faults.
type faultWindow struct {
	name  string
	ops   int // workload ops the window stays armed for
	specs []fault.Spec
}

// degradeStore is phase 1.
func degradeStore(seed int64, ops int, r *Report) {
	st := wal.NewMemStorage()
	env, err := testutil.OpenDurableWith(st, "main", degradeTuning)
	if err != nil {
		r.failf("initial open: %v", err)
		return
	}
	defer func() {
		fault.Arm(seed) // disarm
		_ = env.Close()
	}()

	live := newDmodel()
	base := newDmodel()
	var tape []degradeTapeOp
	var maxAcked uint64
	// dataLost marks deliberate byte-level corruption of synced WAL
	// content: the next recovery legitimately comes up short of
	// maxAcked (the disk destroyed acknowledged bytes; scrub's job is
	// to catch it, not to resurrect them).
	dataLost := false

	rngOp := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	rngCrash := rand.New(rand.NewSource(seed*0x9e3779b9 + 1))
	rngWin := rand.New(rand.NewSource(seed*0x85ebca6b + 2))

	windows := []faultWindow{
		{"append-transient", 40, []fault.Spec{
			{Point: "wal.append.transient", Prob: 0.45, Op: fault.OpTransient}}},
		{"fsync-transient", 40, []fault.Spec{
			{Point: "wal.fsync.transient", Prob: 0.45, Op: fault.OpTransient}}},
		{"mixed-transient", 50, []fault.Spec{
			{Point: "wal.append.transient", Prob: 0.25, Op: fault.OpTransient},
			{Point: "wal.fsync.transient", Prob: 0.25, Op: fault.OpTransient},
			{Point: "wal.scrub", Prob: 0.5, Op: fault.OpTransient}}},
		{"poison", 30, []fault.Spec{
			{Point: "wal.append", Prob: 0.08, Op: fault.OpPartial},
			{Point: "wal.fsync", Prob: 0.08}}},
		{"scrub-corrupt", 20, []fault.Spec{
			{Point: "wal.scrub", Prob: 0.3, Times: 1}}},
	}
	windowLeft := 0 // ops until the current window disarms

	// do runs one tracked workload op. applied must mirror exactly the
	// op's in-memory effect; ops are built so they cannot fail
	// validation (paths exist, ids checked), so the residue rule is
	// uniform: any post-gate error means memory mutated.
	do := func(kind byte, op func() error, applied func(m *dmodel)) {
		r.OpTape = append(r.OpTape, kind)
		r.Ops++
		lsn0 := env.Store.LastLSN()
		wasWritable := env.Store.Writable() && env.Store.Broken() == nil
		err := op()
		lsn1 := env.Store.LastLSN()
		if lsn1 > lsn0+1 {
			r.failf("op %d (%c): appended %d records; engine ops must append at most one", r.Ops, kind, lsn1-lsn0)
			return
		}
		switch {
		case err == nil:
			applied(live)
			if lsn1 == lsn0 {
				r.failf("op %d (%c): acked without appending a WAL record", r.Ops, kind)
				return
			}
			acked := env.Store.LastSynced() >= lsn1
			if !acked {
				r.failf("op %d (%c): acked without a covering sync (no write acked without durability)", r.Ops, kind)
				return
			}
			if !wasWritable {
				r.failf("op %d (%c): acked on an unwritable store", r.Ops, kind)
				return
			}
			tape = append(tape, degradeTapeOp{lsn: lsn1, acked: true, apply: applied})
			if lsn1 > maxAcked {
				maxAcked = lsn1
			}
		case errors.Is(err, health.ErrReadOnly):
			// Gate rejection: strictly pre-mutation, nothing appended.
			if lsn1 != lsn0 {
				r.failf("op %d (%c): ErrReadOnly but a record was appended", r.Ops, kind)
			}
		case isOneOf(err, degradeErrors):
			// Post-gate failure: memory mutated (residue), never acked.
			// The record may or may not have reached the log.
			applied(live)
			if lsn1 > lsn0 {
				tape = append(tape, degradeTapeOp{lsn: lsn1, apply: applied})
			}
		default:
			r.failf("op %d (%c): unexpected error: %v", r.Ops, kind, err)
		}
	}

	// verify diffs the live environment against the live model
	// (invariant 2: reads stay consistent throughout degradation).
	verify := func(when string) {
		for name, want := range live.files {
			got, err := vfs.ReadFile(env.FS, vfs.Root, name)
			if err != nil || string(got) != want {
				r.failf("%s: read %s = %q (%v), model %q", when, name, got, err, want)
				return
			}
		}
		rows, err := env.DB.Query("SELECT _id, body, rank FROM notes ORDER BY _id")
		if err != nil {
			r.failf("%s: notes query failed while serving: %v", when, err)
			return
		}
		if len(rows.Data) != len(live.notes) {
			r.failf("%s: notes has %d rows, model %d", when, len(rows.Data), len(live.notes))
			return
		}
		for _, row := range rows.Data {
			id, _ := row[0].(int64)
			got := fmt.Sprintf("%v|%v", row[1], row[2])
			if want, ok := live.notes[id]; !ok || got != want {
				r.failf("%s: note %d = %q, model %q", when, id, got, live.notes[id])
				return
			}
		}
	}

	// readState rebuilds a model from the environment's actual state —
	// only valid right after a clean recovery, and only used when
	// deliberate corruption made the model's history unusable. The probe
	// insert that precedes it pins the auto-ID high-water mark, so
	// nextID = max(_id)+1 is exact.
	readState := func() (*dmodel, error) {
		m := newDmodel()
		if vfs.Exists(env.FS, vfs.Root, "/data") {
			err := vfs.Walk(env.FS, vfs.Root, "/data", func(name string, info vfs.FileInfo) error {
				if info.IsDir() {
					return nil
				}
				data, err := vfs.ReadFile(env.FS, vfs.Root, name)
				if err != nil {
					return err
				}
				m.files[name] = string(data)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		rows, err := env.DB.Query("SELECT _id, body, rank FROM notes ORDER BY _id")
		if err != nil {
			return nil, err
		}
		for _, row := range rows.Data {
			id, _ := row[0].(int64)
			m.notes[id] = fmt.Sprintf("%v|%v", row[1], row[2])
			if id >= m.nextID {
				m.nextID = id + 1
			}
		}
		return m, nil
	}

	crash := func(why string) bool {
		r.Kills++
		fault.Arm(seed) // disarm
		windowLeft = 0
		st.Crash(func(name string, unsynced int) int {
			return rngCrash.Intn(unsynced + 1)
		})
		if err := env.Reopen(); err != nil {
			r.failf("crash(%s) %d: recovery failed: %v", why, r.Kills, err)
			return false
		}
		recovered := env.Store.RecoveredLSN()
		if env.Store.Health() != health.Healthy {
			r.failf("crash(%s) %d: store reopened %v, want healthy", why, r.Kills, env.Store.Health())
			return false
		}
		if dataLost {
			// Deliberate byte-level corruption destroyed acknowledged
			// records — possibly behind the model's base boundary, which a
			// flat clone cannot rewind past. The invariant under test
			// (scrub detects the loss and poisons) already held; recovery
			// surfaced some consistent durable prefix. Resync the model to
			// it: recreate the workload scaffolding, pin the auto-ID
			// counter with a probe insert, and read the state back.
			if !vfs.Exists(env.FS, vfs.Root, "/data") {
				if err := env.FS.Mkdir(vfs.Root, "/data", 0o755); err != nil {
					r.failf("crash(%s) %d: resync mkdir: %v", why, r.Kills, err)
					return false
				}
			}
			if _, err := env.DB.Query("SELECT _id FROM notes WHERE _id = 0"); err != nil {
				if _, err := env.DB.Exec("CREATE TABLE notes (_id INTEGER PRIMARY KEY, body TEXT, rank INTEGER DEFAULT 0)"); err != nil {
					r.failf("crash(%s) %d: resync schema: %v", why, r.Kills, err)
					return false
				}
			}
			if _, err := env.DB.Exec("INSERT INTO notes (body) VALUES (?)", "resync-probe"); err != nil {
				r.failf("crash(%s) %d: resync probe insert: %v", why, r.Kills, err)
				return false
			}
			m, err := readState()
			if err != nil {
				r.failf("crash(%s) %d: resync read: %v", why, r.Kills, err)
				return false
			}
			base = m
			live = m.clone()
			tape = tape[:0]
			maxAcked = env.Store.LastSynced()
			dataLost = false
			verify(fmt.Sprintf("crash(%s) %d resync", why, r.Kills))
			return len(r.Failures) == 0
		}
		if recovered < maxAcked {
			r.failf("crash(%s) %d: acked LSN %d lost, recovered only to %d", why, r.Kills, maxAcked, recovered)
			return false
		}
		durable := base.clone()
		for _, op := range tape {
			if op.lsn <= recovered {
				op.apply(durable)
			}
		}
		base = durable
		live = durable.clone()
		tape = tape[:0]
		maxAcked = recovered
		verify(fmt.Sprintf("crash(%s) %d", why, r.Kills))
		return len(r.Failures) == 0
	}

	// heal drives Store.Heal and requires it to restore Healthy
	// (invariant 5): the window is disarmed, so nothing may stop it.
	heal := func() bool {
		fault.Arm(seed) // disarm
		windowLeft = 0
		if env.Store.Broken() != nil {
			return crash("poisoned")
		}
		if err := env.Store.Heal(); err != nil {
			r.failf("heal: %v (health %v)", err, env.Store.Health())
			return false
		}
		if env.Store.Health() != health.Healthy {
			r.failf("heal returned nil but health is %v", env.Store.Health())
			return false
		}
		// Heal folded residue durably: memory and disk agree again.
		base = live.clone()
		tape = tape[:0]
		maxAcked = env.Store.LastSynced()
		verify("post-heal")
		return len(r.Failures) == 0
	}

	path := func(n int) string { return fmt.Sprintf("/data/f%02d", n) }
	ensure := func() bool {
		if !vfs.Exists(env.FS, vfs.Root, "/data") {
			do('d', func() error { return env.FS.Mkdir(vfs.Root, "/data", 0o755) },
				func(m *dmodel) {})
		}
		if _, err := env.DB.Query("SELECT _id FROM notes WHERE _id = 0"); err != nil {
			do('Q', func() error {
				_, err := env.DB.Exec("CREATE TABLE notes (_id INTEGER PRIMARY KEY, body TEXT, rank INTEGER DEFAULT 0)")
				return err
			}, func(m *dmodel) {})
		}
		return len(r.Failures) == 0
	}
	if !ensure() {
		return
	}

	// proveWritable is invariant 5's second half: after the store
	// reports Healthy, a write must actually succeed.
	proveWritable := func() {
		body := fmt.Sprintf("prove-%d", r.Ops)
		do('P', func() error {
			_, err := env.DB.Exec("INSERT INTO notes (body) VALUES (?)", body)
			return err
		}, func(m *dmodel) {
			m.notes[m.nextID] = body + "|0"
			m.nextID++
		})
	}

	for i := 0; i < ops && len(r.Failures) == 0; i++ {
		// Window lifecycle: open a fault window now and then; when one
		// expires, clear the degradation it caused and prove recovery.
		if windowLeft > 0 {
			windowLeft--
			if windowLeft == 0 {
				if !heal() || !ensure() {
					break
				}
				proveWritable()
				continue
			}
		} else if rngWin.Float64() < 0.05 {
			w := windows[rngWin.Intn(len(windows))]
			fault.Arm(seed+int64(r.Ops), w.specs...)
			windowLeft = w.ops
		}

		// Poisoned: fail-stop until crash recovery. Degraded read-only
		// with no armed window: heal immediately (the maintenance loop's
		// job, driven inline for determinism).
		if env.Store.Broken() != nil {
			// One more op through the poisoned store must fail typed.
			do('x', func() error {
				_, err := env.DB.Exec("INSERT INTO notes (body) VALUES (?)", "poisoned")
				return err
			}, func(m *dmodel) {})
			if !crash("poison") || !ensure() {
				break
			}
			proveWritable()
			continue
		}
		if windowLeft == 0 && env.Store.Health() != health.Healthy {
			if !heal() || !ensure() {
				break
			}
			proveWritable()
			continue
		}

		p := rngOp.Float64()
		switch {
		case p < 0.02: // spontaneous crash
			if !crash("spontaneous") || !ensure() {
				break
			}
		case p < 0.04: // checkpoint
			if err := env.Store.Snapshot(); err != nil && !isOneOf(err, degradeErrors) {
				r.failf("op %d: snapshot: %v", r.Ops, err)
			}
		case p < 0.07: // scrub inline (faultable via the armed window)
			if err := env.Store.ScrubOnce(); err != nil && !isOneOf(err, degradeErrors) {
				r.failf("op %d: scrub: %v", r.Ops, err)
			}
		case p < 0.08 && windowLeft == 0 && env.Store.LastSynced() > env.Store.RecoveredLSN():
			// Byte-level corruption: chop the live log inside its records
			// past the snapshot's cut, behind the store's back (the file's
			// last bytes may be stale frames of an earlier pass, whose loss
			// loses nothing). The next scrub must poison (durable record
			// lost); recovery then comes up legitimately short.
			from, to, err := wal.LiveTail(st)
			data, rerr := st.ReadFile("wal")
			if err == nil && rerr == nil && to-from > 8 {
				rewrite2(st, "wal", data[:to-1-rngCrash.Intn((to-from)/2)])
				dataLost = true
				if err := env.Store.ScrubOnce(); !errors.Is(err, wal.ErrBroken) {
					r.failf("op %d: scrub after WAL corruption = %v, want ErrBroken", r.Ops, err)
				}
			}
		case p < 0.38: // file write
			name := path(rngOp.Intn(24))
			data := fmt.Sprintf("d%06d", rngOp.Intn(1_000_000))
			exists := vfs.Exists(env.FS, vfs.Root, name)
			if !exists {
				do('c', func() error {
					h, err := env.FS.Open(vfs.Root, name, vfs.O_WRONLY|vfs.O_CREATE, 0o600)
					if err != nil {
						return err
					}
					return h.Close()
				}, func(m *dmodel) {
					if _, ok := m.files[name]; !ok {
						m.files[name] = ""
					}
				})
				continue
			}
			do('w', func() error {
				h, err := env.FS.Open(vfs.Root, name, vfs.O_WRONLY, 0)
				if err != nil {
					return err
				}
				defer h.Close()
				_, err = h.WriteAt([]byte(data), 0)
				return err
			}, func(m *dmodel) {
				old := m.files[name]
				if len(old) > len(data) {
					m.files[name] = data + old[len(data):]
				} else {
					m.files[name] = data
				}
			})
		case p < 0.44: // file remove (only existing files: no validation errors)
			name := path(rngOp.Intn(24))
			if !vfs.Exists(env.FS, vfs.Root, name) {
				continue
			}
			do('r', func() error { return env.FS.Remove(vfs.Root, name) },
				func(m *dmodel) { delete(m.files, name) })
		case p < 0.70: // insert note
			body := fmt.Sprintf("note-%d", rngOp.Intn(1_000_000))
			rank := int64(rngOp.Intn(100))
			do('I', func() error {
				_, err := env.DB.Exec("INSERT INTO notes (body, rank) VALUES (?, ?)", body, rank)
				return err
			}, func(m *dmodel) {
				m.notes[m.nextID] = fmt.Sprintf("%s|%d", body, rank)
				m.nextID++
			})
		case p < 0.82: // update by id
			id := int64(1 + rngOp.Intn(400))
			rank := int64(rngOp.Intn(100))
			do('U', func() error {
				_, err := env.DB.Exec("UPDATE notes SET rank = ? WHERE _id = ?", rank, id)
				return err
			}, func(m *dmodel) {
				if old, ok := m.notes[id]; ok {
					for j := len(old) - 1; j >= 0; j-- {
						if old[j] == '|' {
							m.notes[id] = fmt.Sprintf("%s|%d", old[:j], rank)
							break
						}
					}
				}
			})
		case p < 0.90: // delete by id
			id := int64(1 + rngOp.Intn(400))
			do('D', func() error {
				_, err := env.DB.Exec("DELETE FROM notes WHERE _id = ?", id)
				return err
			}, func(m *dmodel) { delete(m.notes, id) })
		default: // read probe: reads must serve in every non-poisoned state
			rows, err := env.DB.Query("SELECT COUNT(*) FROM notes")
			if err != nil {
				r.failf("op %d: read failed while store %v: %v", r.Ops, env.Store.Health(), err)
			} else if n, _ := rows.Data[0][0].(int64); int(n) != len(live.notes) {
				r.failf("op %d: COUNT(*) = %d, model %d", r.Ops, n, len(live.notes))
			}
		}

		if r.Ops%50 == 0 {
			verify(fmt.Sprintf("op %d (health %v)", r.Ops, env.Store.Health()))
		}
	}

	// Close out: land the run healthy and verified.
	if len(r.Failures) == 0 {
		fault.Arm(seed) // disarm
		windowLeft = 0
		if env.Store.Broken() != nil {
			crash("final")
		} else if env.Store.Health() != health.Healthy {
			heal()
		}
	}
	if len(r.Failures) == 0 {
		verify("final")
		crash("final-verify")
	}
}

// rewrite2 durably replaces a storage file's contents (corruption
// injection helper; errors are deliberate-ignorable, the scrub check
// that follows is the assertion).
func rewrite2(st *wal.MemStorage, name string, b []byte) {
	f, err := st.Create(name)
	if err != nil {
		return
	}
	f.Write(b)
	f.Sync()
	f.Close()
}

// degradeTuning tightens the store's retry budget for chaos runs: two
// retries, no real sleeping, deterministic speed.
func degradeTuning(cfg *wal.Config) {
	cfg.MaxRetries = 2
	cfg.RetryBackoff = time.Nanosecond
	cfg.RetrySleep = func(time.Duration) {}
}

// degradeConfinement is phase 2: confinement and admission shedding
// while the durable store degrades beneath a full system (invariant 3,
// plus 2/4/5 at the system boundary).
func degradeConfinement(seed int64, r *Report) {
	s, err := core.Boot(core.Options{
		Storage:     wal.NewMemStorage(),
		StoreTuning: degradeTuning,
	})
	if err != nil {
		r.failf("confinement: boot: %v", err)
		return
	}
	defer s.Shutdown()

	for _, pkg := range []string{"owner", "editor"} {
		if err := s.Install(&idleApp{pkg: pkg}, ams.Manifest{
			Package: pkg,
			Filters: []intent.Filter{{Actions: []string{intent.ActionView}}},
		}); err != nil {
			r.failf("confinement: install %s: %v", pkg, err)
			return
		}
	}
	owner, err := s.Launch("owner", intent.Intent{})
	if err != nil {
		r.failf("confinement: launch owner: %v", err)
		return
	}
	if _, err := owner.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": "base-word"}); err != nil {
		r.failf("confinement: owner insert: %v", err)
		return
	}
	// The delegate writes through the COW proxy into Vol(owner).
	deleg, err := s.LaunchAsDelegate("editor", "owner", intent.Intent{})
	if err != nil {
		r.failf("confinement: launch delegate: %v", err)
		return
	}
	if _, err := deleg.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": "delta-word"}); err != nil {
		r.failf("confinement: delegate insert: %v", err)
		return
	}

	baseWords := func() map[string]bool {
		rows, err := owner.Resolver().Query("content://user_dictionary/words", []string{"word"}, "", "")
		if err != nil {
			r.failf("confinement: base query while %v: %v", s.Health(), err)
			return nil
		}
		out := map[string]bool{}
		for _, row := range rows.Data {
			w, _ := row[0].(string)
			out[w] = true
		}
		return out
	}
	wordSet := func(m map[string]bool) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Sprint(keys)
	}
	cleanBase := baseWords()
	if cleanBase == nil {
		return
	}
	if cleanBase["delta-word"] {
		r.failf("confinement: delegate write leaked into base state while healthy")
		return
	}

	// Degrade: exhaust the retry budget under a burst of transient
	// append faults driven by seeded delegate writes.
	fault.Arm(seed^0x0ddfa17, fault.Spec{Point: "wal.append.transient", Prob: 0.9, Op: fault.OpTransient})
	rng := rand.New(rand.NewSource(seed ^ 0x0ddfa17))
	for i := 0; i < 64 && s.Health() == health.Healthy; i++ {
		_, err := deleg.Resolver().Insert("content://user_dictionary/words",
			provider.Values{"word": fmt.Sprintf("burst-%d-%d", i, rng.Intn(1000))})
		if err != nil && !isOneOf(err, degradeErrors) {
			r.failf("confinement: burst insert error not typed: %v", err)
		}
	}
	fault.Arm(seed) // disarm
	if s.Health() != health.ReadOnly {
		r.failf("confinement: store did not degrade under fault burst (health %v)", s.Health())
		return
	}

	// Degraded delegate write: rejected with the typed gate error,
	// never redirected into base state.
	if _, err := deleg.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": "degraded-word"}); !errors.Is(err, health.ErrReadOnly) {
		r.failf("confinement: degraded delegate insert = %v, want ErrReadOnly", err)
	}
	degradedBase := baseWords()
	if degradedBase == nil {
		return
	}
	if wordSet(degradedBase) != wordSet(cleanBase) {
		r.failf("confinement: base state changed across degradation: %v -> %v",
			wordSet(cleanBase), wordSet(degradedBase))
	}
	// Reads keep serving for both owner and delegate.
	if rows, err := deleg.Resolver().Query("content://user_dictionary/words", []string{"word"}, "", ""); err != nil {
		r.failf("confinement: delegate read while degraded: %v", err)
	} else if len(rows.Data) == 0 {
		r.failf("confinement: delegate view empty while degraded")
	}

	// Admission control sheds write-class transactions at the AMS
	// boundary with the store's typed error; reads are admitted.
	adm := s.AM.EnableAdmissionControl(ams.AdmissionConfig{})
	if _, err := owner.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": "shed-me"}); !errors.Is(err, health.ErrReadOnly) {
		r.failf("confinement: admission did not shed the write: %v", err)
	}
	if adm.Rejected() == 0 {
		r.failf("confinement: admission rejected counter did not move")
	}
	if _, err := owner.Resolver().Query("content://user_dictionary/words", nil, "", ""); err != nil {
		r.failf("confinement: admission blocked a read: %v", err)
	}

	// Heal: service resumes end to end (invariant 5).
	if err := s.Store.Heal(); err != nil {
		r.failf("confinement: heal: %v", err)
		return
	}
	if s.Health() != health.Healthy {
		r.failf("confinement: health after heal = %v", s.Health())
		return
	}
	if _, err := deleg.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": "healed-word"}); err != nil {
		r.failf("confinement: delegate insert after heal: %v", err)
	}
	healedBase := baseWords()
	if healedBase == nil {
		return
	}
	if healedBase["healed-word"] || healedBase["degraded-word"] || healedBase["delta-word"] {
		r.failf("confinement: delegate words leaked into base state after heal: %v", wordSet(healedBase))
	}
}
