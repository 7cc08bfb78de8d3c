package rocman

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/trace"
	"genxio/internal/workload"
)

// listRHDF lists the committed snapshot files under prefix, excluding the
// commit manifests and staged temporaries the durable-snapshot protocol
// adds alongside them.
func listRHDF(fs rt.FS, prefix string) []string {
	names, _ := fs.List(prefix)
	var out []string
	for _, n := range names {
		if strings.HasSuffix(n, ".rhdf") {
			out = append(out, n)
		}
	}
	return out
}

// tinySpec returns a small, fast workload: 8 blocks, 12 steps, snapshots
// every 4 steps.
func tinySpec() workload.Spec {
	return workload.Spec{
		Name: "tiny",
		Cylinder: mesh.CylinderSpec{
			RInner: 0.1, ROuter: 0.4, Length: 1,
			BR: 1, BT: 8, BZ: 1, NodesPerBlock: 80, Spread: 0.3,
		},
		Steps: 12, SnapshotEvery: 4, Seed: 7,
		FluidCostPerNode: 1e-7, SolidCostPerNode: 1e-7,
		FaceCostPerNode: 1e-8, BurnCostPerPane: 1e-7,
	}
}

// runReal runs cfg on the goroutine backend over a fresh MemFS and
// returns (report, fs).
func runReal(t *testing.T, n int, cfg Config) (*Report, *rt.MemFS) {
	t.Helper()
	fs := rt.NewMemFS()
	return runRealOn(t, fs, n, cfg), fs
}

// runRealOn is runReal over an existing filesystem, for reruns that
// restart from what an earlier run wrote.
func runRealOn(t *testing.T, fs *rt.MemFS, n int, cfg Config) *Report {
	t.Helper()
	var rep *Report
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(n, func(ctx mpi.Ctx) error {
		r, err := Run(ctx, cfg)
		if err != nil {
			return err
		}
		if r != nil {
			rep = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func baseCfg(io IOKind) Config {
	return Config{
		Workload: tinySpec(),
		IO:       io,
		Profile:  hdf.NullProfile(),
		Rocpanda: rocpanda.Config{NumServers: 1, ActiveBuffering: true},
	}
}

func TestIntegratedRunAllIOModules(t *testing.T) {
	// Each module's own series, which a run's registry must carry.
	series := map[IOKind][]string{
		IORochdf:   {"rochdf.files_created", "rochdf.bytes_out", "hdf.datasets_written"},
		IOTRochdf:  {"trochdf.files_created", "trochdf.bytes_out"},
		IORocpanda: {"rocpanda.server.blocks_written", "rocpanda.client.bytes_out"},
	}
	drain := map[IOKind]string{
		IOTRochdf:  "trochdf.drain_seconds",
		IORocpanda: "rocpanda.server.drain_seconds",
	}
	for _, io := range []IOKind{IORochdf, IOTRochdf, IORocpanda} {
		t.Run(string(io), func(t *testing.T) {
			n := 3
			if io == IORocpanda {
				n = 4 // 3 clients + 1 server
			}
			cfg := baseCfg(io)
			reg := metrics.New()
			cfg.Metrics = reg
			fs := rt.NewMemFS()
			rep := runRealOn(t, fs, n, cfg)
			if rep == nil {
				t.Fatal("no report from client rank 0")
			}
			if rep.Steps != 12 || rep.Snapshots != 4 {
				t.Fatalf("steps %d snapshots %d", rep.Steps, rep.Snapshots)
			}
			if rep.NumClients != 3 {
				t.Fatalf("clients %d", rep.NumClients)
			}
			if rep.BytesOut == 0 || rep.ComputeTime < 0 {
				t.Fatalf("report %+v", rep)
			}
			// The right number of snapshot files exist.
			names := listRHDF(fs, "out/")
			wantFiles := 4 * 3 // 4 snapshots x 3 procs (individual I/O)
			if io == IORocpanda {
				wantFiles = 4 * 1 // 4 snapshots x 1 server
			}
			if len(names) != wantFiles {
				t.Fatalf("%s: %d files %v", io, len(names), names)
			}
			// Every file is a complete, readable RHDF container with
			// both windows.
			for _, name := range names {
				r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if r.NumDatasets() == 0 {
					t.Fatalf("%s empty", name)
				}
				r.Close()
			}
			snap := reg.Snapshot()
			for _, name := range series[io] {
				if snap.Counters[name] == 0 {
					t.Errorf("counter %s = 0, want > 0", name)
				}
			}
			if name, ok := drain[io]; ok && snap.Histograms[name].Count == 0 {
				t.Errorf("histogram %s empty", name)
			}

			// A rerun restarts from the newest generation and counts the
			// walk under the module's own prefix.
			cfg.RestartFromLatest = true
			reg = metrics.New()
			cfg.Metrics = reg
			runRealOn(t, fs, n, cfg)
			snap = reg.Snapshot()
			if got := snap.Counters[string(io)+".restart.generations_scanned"]; got < 1 {
				t.Errorf("%s.restart.generations_scanned = %d, want >= 1", io, got)
			}
			if io == IORocpanda && snap.Counters["rocpanda.server.reads_served"] == 0 {
				t.Error("rocpanda.server.reads_served = 0 after a restart")
			}
		})
	}
}

func TestSnapshotContentIdenticalAcrossIOModules(t *testing.T) {
	// The three I/O modules must persist the same physics: compare the
	// full set of datasets of the last snapshot across modules.
	collect := func(io IOKind) map[string][]byte {
		_, fs := runReal(t, 4, baseCfg(io))
		names := listRHDF(fs, "out/snap000012")
		if len(names) == 0 {
			t.Fatalf("%s: no final snapshot", io)
		}
		data := make(map[string][]byte)
		for _, name := range names {
			r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range r.Datasets() {
				if d.Name == "_meta" {
					continue
				}
				raw, err := r.ReadData(d)
				if err != nil {
					t.Fatal(err)
				}
				data[d.Name] = raw
			}
			r.Close()
		}
		return data
	}
	ref := collect(IORochdf)
	if len(ref) == 0 {
		t.Fatal("no datasets collected")
	}
	for _, io := range []IOKind{IOTRochdf, IORocpanda} {
		got := collect(io)
		if len(got) != len(ref) {
			t.Fatalf("%s has %d datasets, rochdf has %d", io, len(got), len(ref))
		}
		for name, want := range ref {
			g, ok := got[name]
			if !ok {
				t.Fatalf("%s missing dataset %s", io, name)
			}
			if string(g) != string(want) {
				t.Fatalf("%s dataset %s differs", io, name)
			}
		}
	}
}

func TestRestartContinuesIdentically(t *testing.T) {
	// Golden: a straight 12-step run. Candidate: 8 steps, checkpoint,
	// fresh world restarts from step-8 snapshot and runs 4 more steps.
	// Physics state that lives in window attributes must match exactly.
	for _, io := range []IOKind{IORochdf, IORocpanda} {
		t.Run(string(io), func(t *testing.T) {
			n := 3
			if io == IORocpanda {
				n = 4
			}

			cfgFull := baseCfg(io)
			cfgFull.OutputDir = "full"
			_, fsFull := runReal(t, n, cfgFull)

			cfgA := baseCfg(io)
			cfgA.Workload.Steps = 8
			cfgA.OutputDir = "partA"
			fsShared := rt.NewMemFS()
			world := mpi.NewChanWorld(fsShared, 1)
			if err := world.Run(n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfgA)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			cfgB := baseCfg(io)
			cfgB.Workload.Steps = 4
			cfgB.Workload.SnapshotEvery = 4
			cfgB.OutputDir = "partB"
			cfgB.RestartFrom = "partA/snap000008"
			world = mpi.NewChanWorld(fsShared, 1)
			if err := world.Run(n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfgB)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			// Compare full/snap000012 vs partB/snap000004.
			read := func(fs rt.FS, prefix string) map[string]string {
				names := listRHDF(fs, prefix)
				if len(names) == 0 {
					t.Fatalf("no files under %s", prefix)
				}
				out := make(map[string]string)
				for _, name := range names {
					r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range r.Datasets() {
						if d.Name == "_meta" {
							continue
						}
						raw, _ := r.ReadData(d)
						out[d.Name] = string(raw)
					}
					r.Close()
				}
				return out
			}
			want := read(fsFull, "full/snap000012")
			got := read(fsShared, "partB/snap000004")
			if len(got) != len(want) {
				t.Fatalf("dataset counts differ: %d vs %d", len(got), len(want))
			}
			mismatches := 0
			for name, w := range want {
				if got[name] != w {
					mismatches++
				}
			}
			if mismatches > 0 {
				t.Fatalf("%d of %d datasets differ after restart", mismatches, len(want))
			}
		})
	}
}

// TestRestartLoadsEachGenerationOnce: a restart reads the fluid window, then
// the solid one. Each reading process — a Rochdf or T-Rochdf rank, a
// Rocpanda server — loads the generation's commit record for the first round
// and serves the second from the chain its Reader holds, and the run's
// registry shows both; each round reads the head commit record, to hold
// the chain to it. A restart from the latest generation runs the restore
// walk on the module's own Readers: client 0's judgment loads the chain its
// Reader then holds, so under Rochdf and T-Rochdf rank 0's first round
// reuses it, and every reader takes the head record the walk's step carries
// — a Rocpanda server from its read request — so the chosen record is
// opened once, by the judge.
func TestRestartLoadsEachGenerationOnce(t *testing.T) {
	for _, tc := range []struct {
		io     IOKind
		n      int
		latest bool // restart through the restore walk, not from a named base
		// chain loads and reuses, opens of out/snap000004.manifest, and
		// generations the walk scanned, summed over the run's processes
		loads, reuses, opens, scanned int64
	}{
		{IORochdf, 3, false, 3, 3, 6, 0},
		{IOTRochdf, 3, false, 3, 3, 6, 0},
		{IORocpanda, 4, false, 1, 1, 2, 0},
		{IORochdf, 3, true, 3, 4, 1, 3},
		{IOTRochdf, 3, true, 3, 4, 1, 3},
		{IORocpanda, 4, true, 2, 1, 1, 3},
	} {
		name := string(tc.io)
		if tc.latest {
			name += "-latest"
		}
		t.Run(name, func(t *testing.T) {
			fs := rt.NewMemFS()
			cfg := baseCfg(tc.io)
			cfg.Workload.Steps = 4
			if err := mpi.NewChanWorld(fs, 1).Run(tc.n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfg)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			cfg.OutputDir, cfg.RestartFrom, cfg.Metrics = "again", "out/snap000004", reg
			if tc.latest {
				cfg.OutputDir, cfg.RestartFrom, cfg.RestartFromLatest = "out", "", true
			}
			counted := &catalogOpens{FS: fs, name: "out/snap000004.manifest"}
			if err := mpi.NewChanWorld(counted, 1).Run(tc.n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfg)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			prefix := string(tc.io) + ".restart."
			if loads, reuses := c[prefix+"chain_loads"], c[prefix+"chain_reuses"]; loads != tc.loads || reuses != tc.reuses {
				t.Errorf("%schain_loads %d, chain_reuses %d; want %d and %d", prefix, loads, reuses, tc.loads, tc.reuses)
			}
			if opens := counted.n.Load(); opens != tc.opens {
				t.Errorf("%s opened %d times, want %d", counted.name, opens, tc.opens)
			}
			if scanned := c[prefix+"generations_scanned"]; scanned != tc.scanned {
				t.Errorf("%sgenerations_scanned %d, want %d", prefix, scanned, tc.scanned)
			}
		})
	}
}

// catalogOpens is an rt.FS that counts the opens of the file name.
type catalogOpens struct {
	rt.FS
	name string
	n    atomic.Int64
}

func (fs *catalogOpens) Open(name string) (rt.File, error) {
	if name == fs.name {
		fs.n.Add(1)
	}
	return fs.FS.Open(name)
}

func TestRefinementChangesDistributionTransparently(t *testing.T) {
	cfg := baseCfg(IORocpanda)
	cfg.FluidOnly = true
	cfg.RefineEvery = 3
	rep, fs := runReal(t, 4, cfg)
	if rep == nil {
		t.Fatal("no report")
	}
	// After 12 steps with refinement every 3, each client split 4 times:
	// the final snapshot must contain more panes than the initial one.
	count := func(prefix string) int {
		names := listRHDF(fs, prefix)
		panes := map[string]bool{}
		for _, name := range names {
			r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
			if err != nil {
				t.Fatal(err)
			}
			for _, dn := range r.Names() {
				if win, id, _, ok := roccom.ParseDatasetName(dn); ok {
					panes[fmt.Sprintf("%s/%d", win, id)] = true
				}
			}
			r.Close()
		}
		return len(panes)
	}
	first := count("out/snap000000")
	last := count("out/snap000012")
	if last <= first {
		t.Fatalf("refinement did not grow pane count: %d -> %d", first, last)
	}
}

func TestConfigValidation(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		cfg := baseCfg(IORochdf)
		cfg.RefineEvery = 2 // without FluidOnly
		if _, err := Run(ctx, cfg); err == nil {
			return fmt.Errorf("refinement without FluidOnly accepted")
		}
		cfg = baseCfg("bogus")
		if _, err := Run(ctx, cfg); err == nil {
			return fmt.Errorf("bogus IO module accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// simRun is one integrated Rocpanda run on simulated Turing, 8 clients + 1
// server at seed 5: its client-0 report, metrics snapshot (also as JSON),
// JSONL trace export and filesystem bytes.
type simRun struct {
	rep     *Report
	metrics metrics.Snapshot
	json    []byte
	trace   []byte
	fsBytes int64
}

func runSimulated(t *testing.T, rp rocpanda.Config) simRun {
	t.Helper()
	plat := cluster.Turing()
	w := cluster.NewWorld(plat, 5)
	reg, rec := metrics.New(), trace.New()
	var rep *Report
	err := w.Run(9, func(ctx mpi.Ctx) error {
		cfg := baseCfg(IORocpanda)
		cfg.Rocpanda = rp
		cfg.Rocpanda.MemcpyBW = 300e6
		cfg.BufferBW = plat.MemcpyBW
		cfg.Profile = hdf.HDF4Profile()
		cfg.StrideRealWork = 3
		cfg.Workload.FluidCostPerNode = 1e-5
		cfg.Workload.SolidCostPerNode = 1e-5
		cfg.MeasureRestart = true
		cfg.Metrics = reg
		cfg.Trace = rec
		r, err := Run(ctx, cfg)
		if r != nil {
			rep = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report")
	}
	run := simRun{rep: rep, metrics: reg.Snapshot(), fsBytes: w.FSModel().BytesWritten()}
	if run.json, err = json.Marshal(run.metrics); err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if err := rec.WriteJSONL(&tr); err != nil {
		t.Fatal(err)
	}
	run.trace = tr.Bytes()
	return run
}

func TestRunOnSimulatedPlatform(t *testing.T) {
	// The full integrated stack on the Turing model, once per drain
	// configuration. Each row runs twice with one seed: the simulated platform serialises execution, so the
	// metrics and the trace must repeat byte for byte.
	rows := []struct {
		name string
		cfg  rocpanda.Config
	}{
		{"inline", rocpanda.Config{NumServers: 1, ActiveBuffering: true}},
		{"async", rocpanda.Config{NumServers: 1, ActiveBuffering: true, AsyncDrain: true, DrainWriters: 2}},
		{"r2", rocpanda.Config{NumServers: 1, ActiveBuffering: true, ReplicationFactor: 2}},
	}
	runs := map[string]simRun{}
	for _, row := range rows {
		a, b := runSimulated(t, row.cfg), runSimulated(t, row.cfg)
		if !bytes.Equal(a.json, b.json) {
			t.Fatalf("%s: same-seed metrics differ:\n%s\nvs\n%s", row.name, a.json, b.json)
		}
		if len(a.trace) == 0 || !bytes.Equal(a.trace, b.trace) {
			t.Fatalf("%s: same-seed trace export empty or differs (%d vs %d bytes)", row.name, len(a.trace), len(b.trace))
		}
		if a.rep.ComputeTime <= 0 {
			t.Fatalf("%s: no compute time charged: %+v", row.name, a.rep)
		}
		if a.rep.VisibleWrite >= a.rep.ComputeTime {
			t.Fatalf("%s: visible write %.3f not hidden vs compute %.3f", row.name, a.rep.VisibleWrite, a.rep.ComputeTime)
		}
		if a.rep.VisibleWrite <= 0 || a.rep.VisibleRead <= 0 || a.fsBytes == 0 {
			t.Fatalf("%s: write or restart not measured, or nothing reached the filesystem: %+v", row.name, a.rep)
		}
		t.Logf("%-6s visible write %.4f s, sync %.4f s, visible read %.4f s", row.name, a.rep.VisibleWrite, a.rep.SyncWait, a.rep.VisibleRead)
		runs[row.name] = a
	}
	inline, async, r2 := runs["inline"], runs["async"], runs["r2"]

	// The background drain moves writeback off the clients' path: a lower
	// visible write + sync wait for the same bytes, with the overlap
	// recorded.
	iv, av := inline.rep.VisibleWrite+inline.rep.SyncWait, async.rep.VisibleWrite+async.rep.SyncWait
	if av >= iv {
		t.Errorf("async visible write+sync %.4fs not below inline's %.4fs", av, iv)
	}
	if async.rep.BytesOut != inline.rep.BytesOut {
		t.Errorf("bytes out differ: async %d, inline %d", async.rep.BytesOut, inline.rep.BytesOut)
	}
	if ov := async.metrics.Histograms["iosched.write.overlap_seconds"]; ov.Count == 0 || ov.Sum <= 0 {
		t.Errorf("no overlapped drain recorded: %+v", ov)
	}

	// Replication writes every byte twice, and its restart reads the
	// primaries: at most a little metadata slower than R = 1.
	ib, rb := inline.metrics.Counters["rocpanda.server.bytes_written"], r2.metrics.Counters["rocpanda.server.bytes_written"]
	if ib == 0 || rb != 2*ib {
		t.Errorf("R = 2 wrote %d server bytes, want exactly 2 x %d", rb, ib)
	}
	if r2.rep.VisibleRead > 1.25*inline.rep.VisibleRead {
		t.Errorf("R = 2 visible read %.4fs, want within 1.25x of inline's %.4fs", r2.rep.VisibleRead, inline.rep.VisibleRead)
	}
}

func TestSolverSelection(t *testing.T) {
	// GENx's plug-in physics: rocflu and rocsolid must drive the same
	// windows through the same I/O path.
	cfg := baseCfg(IORocpanda)
	cfg.FluidSolver = "rocflu"
	cfg.SolidSolver = "rocsolid"
	rep, fs := runReal(t, 4, cfg)
	if rep == nil || rep.Snapshots != 4 {
		t.Fatalf("report %+v", rep)
	}
	names := listRHDF(fs, "out/snap000012")
	if len(names) != 1 {
		t.Fatalf("files %v", names)
	}
	r, err := hdf.Open(fs, names[0], rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var fluidConn bool
	for _, n := range r.Names() {
		if _, _, attr, ok := roccom.ParseDatasetName(n); ok && attr == "_conn" && len(n) > 7 && n[:7] == "/fluid/" {
			fluidConn = true
		}
	}
	if !fluidConn {
		t.Fatal("rocflu fluid panes should be unstructured (carry connectivity)")
	}

	bad := baseCfg(IORochdf)
	bad.FluidSolver = "nope"
	fs2 := rt.NewMemFS()
	world := mpi.NewChanWorld(fs2, 1)
	if err := world.Run(2, func(ctx mpi.Ctx) error {
		_, err := Run(ctx, bad)
		if err == nil {
			return fmt.Errorf("bogus fluid solver accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bad2 := baseCfg(IORochdf)
	bad2.SolidSolver = "nope"
	world = mpi.NewChanWorld(rt.NewMemFS(), 1)
	if err := world.Run(2, func(ctx mpi.Ctx) error {
		_, err := Run(ctx, bad2)
		if err == nil {
			return fmt.Errorf("bogus solid solver accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedSnapshots(t *testing.T) {
	// Compression must shrink the files and leave the physics and
	// restart path untouched.
	for _, io := range []IOKind{IORochdf, IORocpanda} {
		t.Run(string(io), func(t *testing.T) {
			plain := baseCfg(io)
			_, fsPlain := runReal(t, 4, plain)
			comp := baseCfg(io)
			comp.Compress = true
			_, fsComp := runReal(t, 4, comp)

			size := func(fs rt.FS) int64 {
				names := listRHDF(fs, "out/snap000012")
				var total int64
				for _, n := range names {
					sz, _ := fs.Stat(n)
					total += sz
				}
				return total
			}
			szPlain, szComp := size(fsPlain), size(fsComp)
			if szComp >= szPlain {
				t.Fatalf("compressed snapshot %d B not smaller than plain %d B", szComp, szPlain)
			}
			// Logical content identical.
			read := func(fs rt.FS) map[string]string {
				names := listRHDF(fs, "out/snap000012")
				out := map[string]string{}
				for _, name := range names {
					r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range r.Datasets() {
						if d.Name == "_meta" {
							continue
						}
						raw, err := r.ReadData(d)
						if err != nil {
							t.Fatal(err)
						}
						out[d.Name] = string(raw)
					}
					r.Close()
				}
				return out
			}
			want, got := read(fsPlain), read(fsComp)
			if len(want) != len(got) {
				t.Fatalf("dataset counts differ: %d vs %d", len(want), len(got))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("dataset %s differs under compression", k)
				}
			}
		})
	}
}

func TestTraceTimelineOnSimPlatform(t *testing.T) {
	// The trace must show the paper's overlap picture: long compute
	// spans, short write spans, and a final sync.
	plat := cluster.Turing()
	rec := trace.New()
	cfg := baseCfg(IORocpanda)
	cfg.Trace = rec
	cfg.Profile = hdf.HDF4Profile()
	cfg.BufferBW = plat.MemcpyBW
	cfg.StrideRealWork = 4
	cfg.Workload.FluidCostPerNode = 1e-5
	cfg.Workload.SolidCostPerNode = 1e-5
	w := cluster.NewWorld(plat, 9)
	if err := w.Run(4, func(ctx mpi.Ctx) error {
		_, err := Run(ctx, cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	totals := rec.Totals()
	if len(totals) != 3 {
		t.Fatalf("ranks traced: %d, want 3 clients", len(totals))
	}
	for rank, m := range totals {
		if m[trace.PhaseCompute] <= 0 || m[trace.PhaseWrite] <= 0 {
			t.Fatalf("rank %d missing phases: %v", rank, m)
		}
		if m[trace.PhaseWrite] >= m[trace.PhaseCompute] {
			t.Fatalf("rank %d write %v not hidden vs compute %v", rank, m[trace.PhaseWrite], m[trace.PhaseCompute])
		}
	}
	var b strings.Builder
	if err := rec.Timeline(&b, 60); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"rank   0", "=", "compute  max over ranks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestRestartFromLatestFallsBackMultiWindow(t *testing.T) {
	// Regression for a restore deadlock: a corrupt newest generation
	// fails only the clients whose panes sat in the damaged server file.
	// Were those clients to abandon the attempt at once, the rest would
	// enter the solid window's read round alone and the servers would wait
	// forever for a full round. Every client runs both rounds and the
	// clients agree once, after the reads: the fallback must move every
	// client past the damaged generation together and the run must
	// complete.
	const n = 6 // 4 clients + 2 servers
	cfg := baseCfg(IORocpanda)
	cfg.Rocpanda.NumServers = 2

	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	if err := world.Run(n, func(ctx mpi.Ctx) error {
		_, err := Run(ctx, cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in one server file of the newest generation:
	// the scan skips the whole file, so only the clients whose panes it
	// held see an incomplete fluid read.
	if err := faults.FlipBit(fs, "out/snap000012_s001.rhdf", hdf.HeaderSize()*8+13); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	cfg2 := baseCfg(IORocpanda)
	cfg2.Rocpanda.NumServers = 2
	cfg2.Workload.Steps = 4
	cfg2.Workload.SnapshotEvery = 4
	cfg2.RestartFromLatest = true
	cfg2.Metrics = reg
	world = mpi.NewChanWorld(fs, 1)
	if err := world.Run(n, func(ctx mpi.Ctx) error {
		_, err := Run(ctx, cfg2)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// All 4 clients fell back exactly once (snap000012 -> snap000008);
	// the shared registry sums their per-rank counters. The corrupt file
	// was caught by one server's scan, once.
	s := reg.Snapshot()
	if got := s.Counters["rocpanda.restart.fallbacks"]; got != 4 {
		t.Fatalf("restart.fallbacks = %d, want 4 (one per client)", got)
	}
	if got := s.Counters["rocpanda.restart.generations_scanned"]; got != 8 {
		t.Fatalf("restart.generations_scanned = %d, want 8 (two per client)", got)
	}
	if got := s.Counters["hdf.checksum_failures"]; got != 1 {
		t.Fatalf("hdf.checksum_failures = %d, want 1", got)
	}
}

// TestFailedRunReleasesServers: a run whose restart, drain or write fails on
// some ranks returns an error on every client, and a Rocpanda run's servers
// are released, so the world ends. A client that returned without releasing
// its servers, that skipped a collective read round its peers entered, or
// that left its peers in the next step's dt reduction leaves the world
// deadlocked, and Run returns the mpi.DeadlockError naming the stuck ranks. Rocpanda rows run 6 ranks, of which
// world ranks 0 and 3 are the servers (Spread placement of 2 among 6); the
// individual-I/O rows run 3 clients, and rank 1's file of a snapshot fails
// to create.
func TestFailedRunReleasesServers(t *testing.T) {
	createFault := func(prefix string) func(t *testing.T, cfg *Config) rt.FS {
		return func(t *testing.T, cfg *Config) rt.FS {
			plan := faults.NewFSPlan(1, faults.FSRule{Op: faults.OpCreate, PathPrefix: prefix, Nth: 1})
			return faults.WrapFS(rt.NewMemFS(), plan)
		}
	}
	rows := []struct {
		name  string
		io    IOKind
		setup func(t *testing.T, cfg *Config) rt.FS
	}{
		{"bit-flipped-restart-from", IORocpanda, func(t *testing.T, cfg *Config) rt.FS {
			// Only the clients whose panes sat in _s001 fail their fluid
			// read; the others go on to the solid window's round.
			_, fs := runReal(t, 6, *cfg)
			if err := faults.FlipBit(fs, "out/snap000012_s001.rhdf", hdf.HeaderSize()*8+13); err != nil {
				t.Fatal(err)
			}
			cfg.RestartFrom = "out/snap000012"
			return fs
		}},
		{"restart-latest-empty-prefix", IORocpanda, func(t *testing.T, cfg *Config) rt.FS {
			cfg.RestartFromLatest = true
			return rt.NewMemFS()
		}},
		{"drain-fault", IORocpanda, createFault("out/snap000004_s001")},
		// A middle step's failure stops every rank at the next dt reduction;
		// T-Rochdf's background write reports it a snapshot later.
		{"rochdf-write-fault", IORochdf, createFault("out/snap000004_p00001")},
		{"trochdf-write-fault", IOTRochdf, createFault("out/snap000004_p00001")},
		// The last step's failure reaches the peers at the final Sync.
		{"rochdf-last-write-fault", IORochdf, createFault("out/snap000012_p00001")},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := baseCfg(row.io)
			n, clients := 3, []int{0, 1, 2}
			if row.io == IORocpanda {
				cfg.Rocpanda.NumServers = 2
				n, clients = 6, []int{1, 2, 4, 5}
			}
			fs := row.setup(t, &cfg)
			errs := make([]error, n)
			err := mpi.NewChanWorld(fs, 1).Run(n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfg)
				errs[ctx.Comm().Rank()] = err
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, rank := range clients {
				if errs[rank] == nil {
					t.Errorf("client rank %d: Run returned no error", rank)
				}
			}
			if row.io == IORocpanda {
				return
			}
			names, _ := fs.List("out/")
			if slices.ContainsFunc(names, func(name string) bool { return strings.HasSuffix(name, snapshot.Suffix) }) {
				t.Errorf("a failed run committed a generation: %v", names)
			}
		})
	}
}
