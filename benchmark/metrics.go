package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json repeats the names, units,
// directions and bounds; benchmark_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks metrics read off the virtual clock or a counter: on the
	// single-lineage workloads the same seed and round count repeat them
	// bit for bit, traced or not.
	Exact bool
}

// endToEnd lists what a user of the system sees, on both clocks. Every
// workload reports every one. failed_op_share is not in the list because it
// is 0 at the seed commit and a gated metric may never be 0: it is the
// failed/attempted pair of the result line and fails the run on its own.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"ops_per_host_s", "op/s", "higher", 0.25, false},
	{"host_us_per_op_p50", "us", "lower", 0.25, false},
	{"host_us_per_op_p95", "us", "lower", 0.25, false},
	{"allocs_per_op", "count", "lower", 0.03, false},
	{"alloc_kb_per_op", "KiB", "lower", 0.03, false},
	{"heap_retained_kb_per_op", "KiB", "lower", 0.05, false},
	{"stop_vus_p99", "vus", "lower", 0.05, true},
	{"durable_vus_p50", "vus", "lower", 0.05, true},
	{"durable_vus_p99", "vus", "lower", 0.05, true},
	{"restore_vus_p50", "vus", "lower", 0.05, true},
	{"durable_bytes_per_dirty_byte", "ratio", "lower", 0.02, true},
}

// perLayer lists the traced pass's metrics, layer = package name. None is
// gated. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "vm.write_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "vm.cow_faults_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "vm.frame_copies_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "vm.pte_ops_per_ckpt", Unit: "count", Better: "lower", Exact: true},
	{Name: "vm.pages_captured_per_ckpt", Unit: "count", Better: "lower", Exact: true},
	{Name: "vm.demand_faults_per_restore", Unit: "count", Better: "lower", Exact: true},
	{Name: "vm.demand_read_host_us_p50", Unit: "us", Better: "lower"},
	{Name: "vm.demand_page_vus_per_fault", Unit: "vus", Better: "lower", Exact: true},

	{Name: "kernel.run_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "kernel.meta_bytes_per_ckpt", Unit: "B", Better: "lower", Exact: true},
	{Name: "kernel.objects_per_ckpt", Unit: "count", Better: "lower", Exact: true},
	{Name: "kernel.restore_meta_vus_p50", Unit: "vus", Better: "lower", Exact: true},
	{Name: "kernel.teardown_host_us_p50", Unit: "us", Better: "lower"},

	{Name: "core.checkpoint_host_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.stop_const_vus", Unit: "vus", Better: "lower", Exact: true},
	{Name: "core.stop_var_vus_p50", Unit: "vus", Better: "lower", Exact: true},
	{Name: "core.meta_copy_vus_p50", Unit: "vus", Better: "lower", Exact: true},
	{Name: "core.lazy_copy_vus_p50", Unit: "vus", Better: "lower", Exact: true},

	{Name: "core.sync_host_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.flush_vus_p50", Unit: "vus", Better: "lower", Exact: true},
	{Name: "core.fleet_dispatches_per_ckpt", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.fleet_budget_stalls_per_kckpt", Unit: "count", Better: "lower"},
	{Name: "core.fleet_mem_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "core.queue_depth_peak", Unit: "count", Better: "lower"},
	{Name: "core.sheds_per_kop", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.flush_retries_per_kop", Unit: "count", Better: "lower", Exact: true},

	{Name: "core.encode_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "core.decode_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "core.delta_compact_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "core.page_hash_ns_per_page", Unit: "ns", Better: "lower"},

	{Name: "core.restore_host_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.restore_memory_vus_p50", Unit: "vus", Better: "lower", Exact: true},
	{Name: "core.restore_read_vus_p50", Unit: "vus", Better: "lower", Exact: true},

	{Name: "objstore.dedup_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "objstore.blocks_freed_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "objstore.epochs_dropped_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "objstore.live_bytes_end", Unit: "B", Better: "lower", Exact: true},
	{Name: "objstore.space_amp", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "objstore.pack_blocks_end", Unit: "count", Better: "lower", Exact: true},
	{Name: "objstore.put_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "objstore.read_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "objstore.drop_epoch_ns", Unit: "ns", Better: "lower"},

	{Name: "storage.dev_writes_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "storage.dev_bytes_written_per_op", Unit: "B", Better: "lower", Exact: true},
	{Name: "storage.dev_reads_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "storage.dev_syncs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "storage.dev_busy_vus_per_op", Unit: "vus", Better: "lower"},
	{Name: "storage.dev_host_us_per_op", Unit: "us", Better: "lower"},

	{Name: "netback.wire_bytes_per_ckpt", Unit: "B", Better: "lower", Exact: true},
	{Name: "netback.frames_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "netback.pages_skipped_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "netback.need_resends_per_kckpt", Unit: "count", Better: "lower", Exact: true},
	{Name: "netback.ack_roundtrip_host_us_p50", Unit: "us", Better: "lower"},
	{Name: "netback.wire_write_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "netback.quorum_ack_vus_p50", Unit: "vus", Better: "lower", Exact: true},
	{Name: "netback.slow_link_lag_epochs_max", Unit: "count", Better: "lower"},

	{Name: "driver.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "vm.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "kernel.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "flushpath.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "storage.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "netback.self_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// value is one reported metric: the number and how many samples stand
// behind it.
type value struct {
	V float64 `json:"value"`
	N int     `json:"n"`
}

// quantile returns the q-quantile of xs by the nearest-rank rule; it sorts
// xs in place. An empty sample reads 0.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// median of a small float sample (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
