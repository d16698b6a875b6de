package chaos

import (
	"maxoid/internal/ams"
	"maxoid/internal/fault"
	"maxoid/internal/load"
)

// runOverload drives the fleet load engine through AMS
// admission control with injected admission faults (the "ams.admit"
// point) and checks the overload invariants:
//
//   - every failed transaction carries a typed ErrOverloaded, whether
//     it came from the token bucket, the in-flight ceiling, or an
//     injected admission fault — callers must never see an untyped
//     overload;
//   - admitted + rejected = issued (no transaction vanishes);
//   - the service processed exactly the admitted transactions;
//   - the admission controller's in-flight gauge drains to zero (a
//     leaked slot would eventually wedge admission entirely).
func runOverload(seed int64, ops int, r *Report) {
	fault.Arm(seed, fault.Spec{Point: "ams.admit", Prob: 0.05})
	eng := load.NewEngine(64)
	res, err := eng.Run(load.Options{
		Instances: 64,
		Workers:   16,
		Ops:       ops,
		Batch:     1,
		Admission: &ams.AdmissionConfig{
			PerAppRate:  200,
			PerAppBurst: 4,
			MaxInFlight: 8,
		},
	})
	if err != nil {
		r.failf("run: %v", err)
		return
	}
	r.Ops = int(res.Issued)

	if res.Untyped != 0 {
		r.failf("%d failures were not typed ErrOverloaded", res.Untyped)
	}
	if res.Completed+res.Rejected != res.Issued {
		r.failf("accounting: completed %d + rejected %d != issued %d",
			res.Completed, res.Rejected, res.Issued)
	}
	if res.ServiceOps != res.Completed {
		r.failf("service processed %d transactions, callers saw %d complete",
			res.ServiceOps, res.Completed)
	}
	if res.InFlightEnd != 0 {
		r.failf("admission leaked %d in-flight slots after drain", res.InFlightEnd)
	}
	if res.Rejected == 0 {
		r.failf("overload run rejected nothing: budget never bound")
	}
}
