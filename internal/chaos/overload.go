package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"maxoid/internal/ams"
	"maxoid/internal/binder"
	"maxoid/internal/core"
	"maxoid/internal/fault"
	"maxoid/internal/intent"
	"maxoid/internal/metrics"
	"maxoid/internal/provider"
	"maxoid/internal/provider/userdict"
)

// runOverload drives ops provider inserts from 64 launched apps through
// the Binder router and AMS admission control, with injected admission
// faults (the "ams.admit" point, hit once per insert), and checks the
// overload invariants:
//
//   - every failed insert carries a typed ErrOverloaded, whether it
//     came from the token bucket, the in-flight ceiling, or an injected
//     admission fault — callers must never see an untyped overload;
//   - completed + rejected = attempted (no insert vanishes);
//   - the words table holds exactly the completed inserts;
//   - the admission controller's in-flight gauge drains to zero (a
//     leaked slot would eventually wedge admission entirely);
//   - at least one insert is rejected (the budget binds);
//   - the metrics registry agrees: ams.admitted counts the completed
//     inserts, and ams.rejected and binder.rejected the rejected ones.
func runOverload(seed int64, ops int, r *Report) {
	reg := metrics.NewRegistry()
	s, err := core.Boot(core.Options{Metrics: reg})
	if err != nil {
		r.failf("boot: %v", err)
		return
	}
	defer s.Shutdown()

	const apps, workers = 64, 16
	ctxs := make([]*ams.Context, apps)
	for i := range ctxs {
		pkg := fmt.Sprintf("overload.app%d", i)
		if err := s.Install(&idleApp{pkg: pkg}, ams.Manifest{}); err != nil {
			r.failf("install %s: %v", pkg, err)
			return
		}
		if ctxs[i], err = s.Launch(pkg, intent.Intent{}); err != nil {
			r.failf("launch %s: %v", pkg, err)
			return
		}
	}
	adm := s.AM.EnableAdmissionControl(ams.AdmissionConfig{
		PerAppRate:  200,
		PerAppBurst: 4,
		MaxInFlight: 8,
	})
	adm.SetMetrics(reg)
	fault.Arm(seed, fault.Spec{Point: "ams.admit", Prob: 0.05})

	var next, completed, rejected, untyped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := next.Add(1) - 1
				if u >= int64(ops) {
					return
				}
				_, err := ctxs[u%apps].Resolver().Insert(userdict.WordsURI,
					provider.Values{"word": fmt.Sprintf("w%d", u)})
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, binder.ErrOverloaded):
					rejected.Add(1)
				default:
					untyped.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.Ops = ops

	tot := reg.Totals()
	done, rej := completed.Load(), rejected.Load()
	if n := untyped.Load(); n != 0 {
		r.failf("%d failures were not typed ErrOverloaded", n)
	}
	if done+rej != int64(ops) {
		r.failf("accounting: completed %d + rejected %d != attempted %d", done, rej, ops)
	}
	rows, err := s.UserDict.Proxy().DB().QueryScalar("SELECT COUNT(*) FROM words")
	if err != nil {
		r.failf("count words: %v", err)
	} else if rows != done {
		r.failf("words holds %v rows, callers saw %d inserts complete", rows, done)
	}
	if n := adm.InFlight(); n != 0 {
		r.failf("admission leaked %d in-flight slots after drain", n)
	}
	if rej == 0 {
		r.failf("overload run rejected nothing: budget never bound")
	}
	if tot["ams.admitted"] != done {
		r.failf("ams.admitted %d, completed %d", tot["ams.admitted"], done)
	}
	if tot["ams.rejected"] != rej || tot["binder.rejected"] != rej {
		r.failf("ams.rejected %d, binder.rejected %d, rejected %d",
			tot["ams.rejected"], tot["binder.rejected"], rej)
	}
}
