package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rocman"
	"genxio/internal/rocpanda"
	"genxio/internal/trace"
	"genxio/internal/workload"
)

// BenchSchema identifies the BENCH_*.json layout; bump on breaking
// changes so downstream tooling can dispatch. v2 added the durability
// counters (hdf.checksum_failures, rocpanda.restart.generations_scanned,
// rocpanda.restart.fallbacks) to every module's metrics snapshot. v3
// added the block-catalog restart counters
// (rocpanda.restart.catalog_hits, .catalog_fallbacks, .files_opened,
// .bytes_read). v4 added the rocpanda-async entry (the background drain
// engine) and the rocpanda.drain.* metrics (queue_depth,
// backpressure_waits, overlap_seconds, errors). v5 added the
// rocpanda-pread entry (the parallel restart read engine) plus the
// rocpanda.read.* metrics (queue_depth, backpressure_waits,
// overlap_seconds, errors), rocpanda.restart.bytes_wasted, and
// rocpanda.drain.flush_seconds. v6 added the rocpanda-r2 entry
// (pane replication at R=2, measuring the write amplification replicas
// cost) and the replica restart counters
// (rocpanda.restart.replica_reads, .repaired_panes). v7 added the
// rocpanda-delta and rocpanda-delta-r2 entries (incremental delta
// snapshots: only panes dirtied since their last ship are written,
// committed as generations chained to the previous one) plus the delta
// counters (rocpanda.write.dirty_panes, .clean_panes,
// .delta_bytes_saved) and the rocpanda.restart.chain_depth gauge. v8
// added the rocpanda-sched entry (async drain and parallel restart reads
// together, both served by the unified internal/iosched scheduler) and
// the scheduler's per-class metrics — iosched.<class>.{queue_depth,
// backpressure_waits, overlap_seconds, errors, busy_seconds, tasks} for
// the write and read classes — on every entry that exercises an engine.
// v9 removed the v4/v5 queue_depth, backpressure_waits and
// overlap_seconds series under rocpanda.drain.* and rocpanda.read.*:
// they repeated the iosched.write.* and iosched.read.* series event for
// event (the errors and flush_seconds series stay; they also count events
// no scheduler sees). v10: Rochdf and T-Rochdf run the Rocpanda servers'
// write service, which registers its series under their prefix too
// ({rochdf,trochdf}.{blocks_buffered, blocks_written, bytes_written,
// overflow_stalls, drain_errors, buf_bytes_peak, drain_seconds, and
// rochdf.drain_wait_seconds); trochdf.bg_write_seconds is now
// trochdf.drain_seconds. v11: Rochdf and T-Rochdf run the Rocpanda servers'
// restart-read service too, which registers its series under their prefix
// ({rochdf,trochdf}.restart.* and .read_errors); a catalog-planned Rochdf
// restart goes straight to the extents, so that entry no longer reports
// hdf.lookups, hdf.datasets_read or hdf.bytes_read. v12: every restart read
// is a planned extent read, so the iosched.scan.* series are gone.
const BenchSchema = "genxio-bench/v12"

// BenchOpts configures the observability bench: one small integrated run
// per I/O module on the simulated Turing platform, with a metrics
// registry and a phase-trace recorder attached to each.
type BenchOpts struct {
	// Scale shrinks the lab-scale workload (default 0.1 — a smoke-sized
	// mesh; the bench is about the observability plumbing, not the
	// paper's numbers).
	Scale float64
	// Procs is the compute-processor count (default 16).
	Procs int
	// Seed fixes the simulated platform's noise stream; the whole bench
	// is deterministic in it (default 1).
	Seed uint64
	// Stride is the real-arithmetic stride (default 100).
	Stride int
}

func (o *BenchOpts) defaults() {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if o.Procs <= 0 {
		o.Procs = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Stride <= 0 {
		o.Stride = 100
	}
}

// IOBenchResult is one I/O module's run: the client-0 report plus the
// full metrics snapshot. The trace recorder is kept for export (JSONL or
// Chrome format) but excluded from the JSON result.
type IOBenchResult struct {
	IO             string           `json:"io"`
	NumClients     int              `json:"num_clients"`
	NumServers     int              `json:"num_servers"`
	Compute        float64          `json:"compute_seconds"`
	VisibleWrite   float64          `json:"visible_write_seconds"`
	VisibleRead    float64          `json:"visible_read_seconds"`
	SyncWait       float64          `json:"sync_wait_seconds"`
	BytesOut       int64            `json:"bytes_out"`
	ThroughputMBps float64          `json:"throughput_mbps"`
	Metrics        metrics.Snapshot `json:"metrics"`
	Trace          *trace.Recorder  `json:"-"`
}

// BenchResult is the full bench outcome (BENCH_genxbench.json).
type BenchResult struct {
	Schema   string          `json:"schema"`
	Platform string          `json:"platform"`
	Opts     BenchOpts       `json:"opts"`
	IOs      []IOBenchResult `json:"ios"`
}

// RunBench executes one lab-scale run per I/O module (Rochdf, T-Rochdf,
// Rocpanda) with observability attached: per-module metrics registries
// and trace recorders. Deterministic in Opts.Seed — the simulated
// platform serializes execution, so same seed means an identical
// snapshot and trace, byte for byte.
func RunBench(opts BenchOpts) (*BenchResult, error) {
	opts.defaults()
	plat := cluster.Turing()
	spec := workload.LabScale(opts.Scale)
	// Snapshot every 4 steps instead of the lab default 10: six
	// generations per run, which with the real-arithmetic stride gives the
	// delta entries a realistic mix of full, dirty and clean snapshots
	// (fulls at generations 0 and 4, an all-dirty delta right after the
	// arithmetic step, clean deltas between).
	spec.SnapshotEvery = 4
	res := &BenchResult{Schema: BenchSchema, Platform: plat.Name, Opts: opts}

	entries := []struct {
		name  string
		kind  rocman.IOKind
		async bool
		pread bool
		repl  int
		delta bool
	}{
		{"rochdf", rocman.IORochdf, false, false, 0, false},
		{"trochdf", rocman.IOTRochdf, false, false, 0, false},
		{"rocpanda", rocman.IORocpanda, false, false, 0, false},
		// The same workload with the background drain engine: writeback
		// overlaps the clients' computation, so visible write and sync
		// costs drop at byte-identical output.
		{"rocpanda-async", rocman.IORocpanda, true, false, 0, false},
		// And with the parallel restart read engine: each server's restart
		// share is read by a worker pool, so the per-process stream pacing
		// of the simulated NFS overlaps and the measured restart (visible
		// read) drops at bit-identical restored state.
		{"rocpanda-pread", rocman.IORocpanda, false, true, 0, false},
		// Both engines at once, behind the unified iosched scheduler: a
		// write-class drain instance and read-class restart instances
		// share the scheduler core (per-instance budgets), exercising the
		// iosched.<class>.* metric surface in one run.
		{"rocpanda-sched", rocman.IORocpanda, true, true, 0, false},
		// And with pane replication at R=2: every server also writes a
		// byte-identical replica of its file to another server's home, so
		// a lost or corrupt primary restarts from the same generation.
		// This entry prices that availability as write amplification.
		{"rocpanda-r2", rocman.IORocpanda, false, false, 2, false},
		// And with incremental delta snapshots (-delta -full-every 4):
		// between the periodic fulls only panes dirtied since their last
		// ship are written, as generations chained to the previous one.
		// With the bench's real-arithmetic stride most snapshots find the
		// panes clean, so bytes written per generation collapse while a
		// chain-aware restart stays bit-exact.
		{"rocpanda-delta", rocman.IORocpanda, false, false, 0, true},
		// Deltas compose with replication: each delta generation's file
		// set is replicated at R=2, so a damaged chain link repairs from
		// its replica instead of breaking every newer delta.
		{"rocpanda-delta-r2", rocman.IORocpanda, false, false, 2, true},
	}
	for _, ent := range entries {
		kind := ent.kind
		reg := metrics.New()
		rec := trace.New()
		cfg := rocman.Config{
			Workload:       spec,
			IO:             kind,
			Profile:        hdf.HDF4Profile(),
			BufferBW:       plat.MemcpyBW,
			ServerBufferBW: 300e6,
			StrideRealWork: opts.Stride,
			MeasureRestart: kind != rocman.IOTRochdf, // T-Rochdf restarts like Rochdf
			Metrics:        reg,
			Trace:          rec,
		}
		total := opts.Procs
		if kind == rocman.IORocpanda {
			m := opts.Procs / 8
			if m < 1 {
				m = 1
			}
			cfg.Rocpanda = rocpanda.Config{
				NumServers:      m,
				ActiveBuffering: true,
				Placement:       rocpanda.Spread,
			}
			if ent.async {
				cfg.Rocpanda.AsyncDrain = true
				cfg.Rocpanda.DrainWriters = 2
				cfg.Rocpanda.BufferBudgetBytes = 256 << 20
			}
			if ent.pread {
				cfg.Rocpanda.ParallelRead = true
				cfg.Rocpanda.ReadWorkers = 4
				cfg.Rocpanda.ReadBudgetBytes = 256 << 20
			}
			if ent.repl > 1 {
				cfg.Rocpanda.ReplicationFactor = ent.repl
			}
			if ent.delta {
				cfg.Rocpanda.DeltaSnapshots = true
				cfg.Rocpanda.FullEvery = 4
			}
			// The same check cmd/genx runs on its flags: a bad bench
			// matrix entry fails loudly instead of being silently clamped.
			if err := cfg.Rocpanda.Validate(); err != nil {
				return nil, fmt.Errorf("bench %s: %w", ent.name, err)
			}
			total += m
		}
		rep, _, err := runOnce(plat, opts.Seed, plat.CPUsPerNode, total, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", ent.name, err)
		}
		res.IOs = append(res.IOs, IOBenchResult{
			IO:             ent.name,
			NumClients:     rep.NumClients,
			NumServers:     rep.NumServers,
			Compute:        rep.ComputeTime,
			VisibleWrite:   rep.VisibleWrite,
			VisibleRead:    rep.VisibleRead,
			SyncWait:       rep.SyncWait,
			BytesOut:       rep.BytesOut,
			ThroughputMBps: throughputMBps(rep),
			Metrics:        reg.Snapshot(),
			Trace:          rec,
		})
	}
	return res, nil
}

// WriteJSON writes the bench result as indented JSON. Go's encoder
// sorts map keys, so output is deterministic for a fixed seed.
func (r *BenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format prints a human-readable summary: per-module visible costs plus
// the headline drain/occupancy metrics the snapshot carries in full.
func (r *BenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "observability bench — %s, scale %.2f, %d compute procs, seed %d\n\n",
		r.Platform, r.Opts.Scale, r.Opts.Procs, r.Opts.Seed)
	fmt.Fprintf(&b, "%-10s %9s %12s %12s %10s %12s %10s\n",
		"module", "compute", "vis write", "vis read", "sync", "MB/s", "bytes")
	for _, io := range r.IOs {
		fmt.Fprintf(&b, "%-10s %9.2f %12.4f %12.4f %10.4f %12.1f %10d\n",
			io.IO, io.Compute, io.VisibleWrite, io.VisibleRead, io.SyncWait,
			io.ThroughputMBps, io.BytesOut)
	}
	b.WriteByte('\n')
	for _, io := range r.IOs {
		s := io.Metrics
		switch io.IO {
		case "rocpanda-async":
			d := s.Histograms["rocpanda.server.drain_seconds"]
			ov := s.Histograms["iosched.write.overlap_seconds"]
			fmt.Fprintf(&b, "%-10s drained %d blocks (%.3fs total, %.3fs overlapped), queue peak %.0f blocks, %d backpressure waits\n",
				io.IO, d.Count, d.Sum, ov.Sum, s.Gauges["iosched.write.queue_depth"],
				s.Counters["iosched.write.backpressure_waits"])
		case "rocpanda-sched":
			wov := s.Histograms["iosched.write.overlap_seconds"]
			rov := s.Histograms["iosched.read.overlap_seconds"]
			fmt.Fprintf(&b, "%-10s unified scheduler: %d write tasks (%.3fs overlapped), %d read tasks (%.3fs overlapped), %d waits\n",
				io.IO, s.Counters["iosched.write.tasks"], wov.Sum,
				s.Counters["iosched.read.tasks"], rov.Sum,
				s.Counters["iosched.write.backpressure_waits"]+s.Counters["iosched.read.backpressure_waits"])
		case "rocpanda-pread":
			ov := s.Histograms["iosched.read.overlap_seconds"]
			fmt.Fprintf(&b, "%-10s restart read pool: queue peak %.0f tasks, %.3fs disk time overlapped with shipping, %d backpressure waits, %d errors, %.1f MB read\n",
				io.IO, s.Gauges["iosched.read.queue_depth"], ov.Sum,
				s.Counters["iosched.read.backpressure_waits"],
				s.Counters["rocpanda.read.errors"],
				float64(s.Counters["rocpanda.restart.bytes_read"])/1e6)
		case "rocpanda-delta", "rocpanda-delta-r2":
			fmt.Fprintf(&b, "%-10s delta snapshots: %d dirty panes shipped, %d clean skipped, %.1f MB saved, restart chain depth %.0f\n",
				io.IO, s.Counters["rocpanda.write.dirty_panes"],
				s.Counters["rocpanda.write.clean_panes"],
				float64(s.Counters["rocpanda.write.delta_bytes_saved"])/1e6,
				s.Gauges["rocpanda.restart.chain_depth"])
		case "rocpanda-r2":
			d := s.Histograms["rocpanda.server.drain_seconds"]
			fmt.Fprintf(&b, "%-10s drained %d blocks (%.3fs total, primaries + replicas), %d panes repaired, %d replica reads\n",
				io.IO, d.Count, d.Sum,
				s.Counters["rocpanda.restart.repaired_panes"],
				s.Counters["rocpanda.restart.replica_reads"])
		case string(rocman.IORocpanda):
			d := s.Histograms["rocpanda.server.drain_seconds"]
			fmt.Fprintf(&b, "%-10s drained %d blocks (%.3fs total), buffer peak %.0f bytes, %d overflow stalls, %d restart reads served\n",
				io.IO, d.Count, d.Sum, s.Gauges["rocpanda.server.buf_bytes_peak"],
				s.Counters["rocpanda.server.overflow_stalls"], s.Counters["rocpanda.server.reads_served"])
		case string(rocman.IOTRochdf):
			bg := s.Histograms["trochdf.drain_seconds"]
			dw := s.Histograms["trochdf.drain_wait_seconds"]
			fmt.Fprintf(&b, "%-10s background wrote %d jobs (%.3fs total), drain waits %.3fs, %d files\n",
				io.IO, bg.Count, bg.Sum, dw.Sum, s.Counters["trochdf.files_created"])
		default:
			fmt.Fprintf(&b, "%-10s %d files created, %d datasets, %d bytes stored\n",
				io.IO, s.Counters["rochdf.files_created"], s.Counters["hdf.datasets_written"],
				s.Counters["hdf.bytes_stored"])
		}
	}
	b.WriteByte('\n')
	for _, io := range r.IOs {
		// Rows are named module[-variant]; the walk counts under the module.
		module, _, _ := strings.Cut(io.IO, "-")
		s := io.Metrics
		fmt.Fprintf(&b, "%-10s durability: %d checksum failures, %d restart generations scanned, %d restart fallbacks\n",
			io.IO, s.Counters["hdf.checksum_failures"],
			s.Counters[module+".restart.generations_scanned"],
			s.Counters[module+".restart.fallbacks"])
	}
	return b.String()
}
