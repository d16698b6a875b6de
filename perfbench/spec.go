package main

import "strings"

// Metric catalogue. BENCHMARK.json at the repository root lists the
// same names; the self-test keeps the two in step.

// metricSpec is one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run (--trace 0) reports in its
// result line. Every workload exercises every operation class they
// name, so none of them is ever absent or zero. The run's text output
// also prints get_p99_us, scan_p99_us, put_p99_us, spawn_p50_us and
// fail_ratio; they stay out of the result line because a p99's spread
// across seeds on a shared two-CPU machine exceeds any bound the result
// line may carry, spawns occur on app-files only, and the failure count
// travels as attempted and failed.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput", "ops/s", "higher"},
	{"get_p50_init_us", "us", "lower"},
	{"get_p50_deleg_us", "us", "lower"},
	{"scan_p50_init_us", "us", "lower"},
	{"scan_p50_deleg_us", "us", "lower"},
	{"put_p50_init_us", "us", "lower"},
	{"put_p50_deleg_us", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run (--trace 1) reports. A layer
// a workload never enters reports 0, and the run's text output says
// why (see naReason).
var perLayer = []metricSpec{
	{"gateway.pre_us", "us", "lower"},
	{"gateway.post_us", "us", "lower"},
	{"netstack.reply_us", "us", "lower"},
	{"binder.route_us", "us", "lower"},
	{"binder.calls_per_op", "count", "lower"},
	{"provider.get_us", "us", "lower"},
	{"provider.scan_us", "us", "lower"},
	{"provider.put_us", "us", "lower"},
	{"cowproxy.deleg_extra_get_us", "us", "lower"},
	{"cowproxy.deleg_extra_scan_us", "us", "lower"},
	{"cowproxy.deleg_extra_put_us", "us", "lower"},
	{"cowproxy.delta_tables", "count", "lower"},
	{"sqldb.seq_scans_per_op", "count", "lower"},
	{"sqldb.pk_probes_per_op", "count", "lower"},
	{"sqldb.index_probes_per_op", "count", "lower"},
	{"sqldb.flattened_per_op", "count", "lower"},
	{"sqldb.materialized_per_op", "count", "lower"},
	{"sqldb.plan_hit_ratio", "ratio", "higher"},
	{"sqldb.lock_blocked_ratio", "ratio", "lower"},
	{"sqldb.exclusive_per_op", "count", "lower"},
	{"wal.fsyncs_per_put", "count", "lower"},
	{"wal.bytes_per_put", "B", "lower"},
	{"wal.write_amp", "ratio", "lower"},
	{"wal.fsync_p50_us", "us", "lower"},
	{"wal.fsync_p99_us", "us", "lower"},
	{"wal.fsync_busy_frac", "ratio", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.checkpoint_busy_ratio", "ratio", "lower"},
	{"vfs.direct_get_us", "us", "lower"},
	{"vfs.direct_put_us", "us", "lower"},
	{"mount.self_get_us", "us", "lower"},
	{"unionfs.deleg_extra_get_us", "us", "lower"},
	{"unionfs.deleg_extra_scan_us", "us", "lower"},
	{"unionfs.deleg_extra_put_us", "us", "lower"},
	{"unionfs.copyup_us", "us", "lower"},
	{"vfs.lock_blocked_ratio", "ratio", "lower"},
	{"zygote.spawn_p50_us", "us", "lower"},
	{"zygote.spawn_p99_us", "us", "lower"},
	{"ams.clear_us", "us", "lower"},
	{"ams.kills_per_spawn", "count", "lower"},
	{"runtime.cpu_us_per_op", "us", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KB", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// Layer groups that only some workloads enter; naReason explains a 0.
const (
	naGateway = "no gateway traffic: app-files drives local app instances only"
	naWAL     = "volatile device: no write-ahead log"
	naFiles   = "no app instances: provider traffic arrives through the gateway"
)

// naReason reports why a per-layer metric is not applicable to a
// workload, or "" when it is measured there.
func naReason(workload, metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	switch layer {
	case "gateway", "netstack", "binder", "provider", "cowproxy", "sqldb":
		if workload == "app-files" {
			return naGateway
		}
	case "wal":
		if workload != "sync-write" {
			return naWAL
		}
	case "vfs", "mount", "unionfs", "zygote", "ams":
		if workload != "app-files" {
			return naFiles
		}
	}
	return ""
}
