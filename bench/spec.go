package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric. Bound is the share of the
// baseline's median by which an end-to-end metric may worsen before
// -compare calls it a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the I/O stack sees. The same names are
// reported on every workload; the workload fixes the clock (wall on
// panda-*/trochdf-*, virtual on vt-*). BENCHMARK.json repeats this list
// and TestBenchmarkJSONMatchesCode keeps the two in step. The throughput
// bounds are the widest the driver allows: on the shared two-core box
// the benchmark was built on, ten 15-second runs spread by 3-10 % of
// their median and the box itself drifts by more over an hour.
var endToEnd = []metricSpec{
	{"apparent_write_mbps", "MB/s", higher, 0.25},
	{"visible_write_mbps", "MB/s", higher, 0.25},
	{"restart_mbps", "MB/s", higher, 0.25},
	{"stored_bytes_per_state_byte", "ratio", lower, 0.01},
	{"alloc_bytes_per_state_byte", "ratio", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists every layer metric; the prefix before the first dot is
// the module (layer) it belongs to. README.md says which end-to-end
// metric each one is expected to move, and on which workload.
var perLayer = []metricSpec{
	{"roccom.pack_mbps", "MB/s", higher, 0},
	{"roccom.encode_mbps", "MB/s", higher, 0},
	{"roccom.decode_mbps", "MB/s", higher, 0},
	{"roccom.restore_mbps", "MB/s", higher, 0},
	{"roccom.encode_allocs_per_pane", "count", lower, 0},

	{"mpi.pingpong_us", "us", lower, 0},
	{"mpi.stream_mbps", "MB/s", higher, 0},
	{"mpi.barrier_us", "us", lower, 0},
	{"mpi.allreduce_us", "us", lower, 0},

	{"rocpanda.write_ms_p50", "ms", lower, 0},
	{"rocpanda.write_ms_p95", "ms", lower, 0},
	{"rocpanda.sync_ms_p50", "ms", lower, 0},
	{"rocpanda.sync_ms_p95", "ms", lower, 0},
	{"rocpanda.read_ms_p50", "ms", lower, 0},
	{"rocpanda.read_ms_p95", "ms", lower, 0},
	{"rocpanda.client_skew_share", "ratio", lower, 0},
	{"rocpanda.buffer_peak_mb", "MB", lower, 0},
	{"rocpanda.restart.files_opened", "count", lower, 0},
	{"rocpanda.restart.read_bytes_per_state_byte", "ratio", lower, 0},
	{"rocpanda.restart.bytes_wasted", "B", lower, 0},
	{"rocpanda.restart.replica_reads", "count", lower, 0},
	{"rocpanda.restart.scan_skew", "ratio", lower, 0},
	{"rocpanda.write.dirty_pane_share", "ratio", lower, 0},

	{"iosched.task_overhead_us", "us", lower, 0},
	{"iosched.flush_us", "us", lower, 0},
	{"iosched.write.tasks", "count", lower, 0},
	{"iosched.write.busy_s", "s", lower, 0},
	{"iosched.write.overlap_share", "ratio", higher, 0},
	{"iosched.write.backpressure_waits", "count", lower, 0},
	{"iosched.read.tasks", "count", lower, 0},
	{"iosched.read.busy_s", "s", lower, 0},
	{"iosched.read.overlap_share", "ratio", higher, 0},
	{"iosched.queue_depth_peak", "count", lower, 0},

	{"hdf.write_mbps", "MB/s", higher, 0},
	{"hdf.write_us_per_dataset", "us", lower, 0},
	{"hdf.write_allocs_per_dataset", "count", lower, 0},
	{"hdf.read_mbps", "MB/s", higher, 0},
	{"hdf.open_us_per_dataset", "us", lower, 0},
	{"hdf.scandir_us_per_dataset", "us", lower, 0},
	{"hdf.crc_mbps", "MB/s", higher, 0},
	{"hdf.deflate_mbps", "MB/s", higher, 0},
	{"hdf.inflate_mbps", "MB/s", higher, 0},

	{"catalog.build_us_per_entry", "us", lower, 0},
	{"catalog.encode_mbps", "MB/s", higher, 0},
	{"catalog.decode_mbps", "MB/s", higher, 0},
	{"catalog.plan_us_per_pane", "us", lower, 0},
	{"catalog.resolve_us_per_pane", "us", lower, 0},
	{"catalog.bytes_per_entry", "B", lower, 0},

	{"snapshot.commit_ms", "ms", lower, 0},
	{"snapshot.generations_ms", "ms", lower, 0},
	{"snapshot.loadchain_ms", "ms", lower, 0},
	{"snapshot.prune_ms", "ms", lower, 0},
	{"snapshot.fsck_mbps", "MB/s", higher, 0},

	{"rochdf.write_ms_p50", "ms", lower, 0},
	{"rochdf.sync_ms_p50", "ms", lower, 0},
	{"rochdf.read_ms_p50", "ms", lower, 0},

	{"delta.partition_us_per_pane", "us", lower, 0},

	{"rt.fs_write_calls_per_gen", "count", lower, 0},
	{"rt.fs_write_bytes_per_gen", "B", lower, 0},
	{"rt.fs_creates_per_gen", "count", lower, 0},
	{"rt.fs_renames_per_gen", "count", lower, 0},
	{"rt.fs_read_calls_per_restart", "count", lower, 0},
	{"rt.fs_read_bytes_per_restart", "B", lower, 0},
	{"rt.fs_lists_per_restart", "count", lower, 0},
	{"rt.fs_busy_s_per_gen", "s", lower, 0},
	{"rt.memfs_write_mbps", "MB/s", higher, 0},
	{"rt.memfs_read_mbps", "MB/s", higher, 0},

	{"sim.virtual_s_per_wall_s", "ratio", higher, 0},
	{"fssim.bytes_written", "B", lower, 0},
	{"fssim.bytes_read", "B", lower, 0},

	{"go.heap_peak_mb", "MB", lower, 0},
	{"go.gc_pause_ms", "ms", lower, 0},
	{"go.mallocs_per_pane", "count", lower, 0},

	{"budget.write_unattributed_share", "ratio", lower, 0},
	{"budget.read_unattributed_share", "ratio", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread is the noise measure of the repetition policy: the distance
// between the first and third quartile as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return math.Abs((quantile(xs, 0.75) - quantile(xs, 0.25)) / m)
}
