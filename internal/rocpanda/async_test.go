package rocpanda

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

// readAll returns the full contents of one file.
func readAll(t testing.TB, fs rt.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf
}

// runSnapshotWorkload writes two snapshot generations (with a Sync after
// each) and shuts down, returning the registry all ranks shared. One client
// per server: the channel backend delivers different clients' writes in
// nondeterministic order, and the bit-exactness contract is per arrival
// order, not across interleavings.
func runSnapshotWorkload(t *testing.T, fs rt.FS, cfg Config) metrics.Snapshot {
	t.Helper()
	reg := metrics.New()
	cfg.Metrics = reg
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2*cfg.NumServers, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, cfg)
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 3)
		if err := cl.WriteAttribute("ad/snap0001", w, "all", 1.0, 1); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		if err := cl.WriteAttribute("ad/snap0002", w, "all", 2.0, 2); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestAsyncDrainBitExactOutput pins the engine's core contract: for the
// same workload the background drain produces byte-identical files to the
// synchronous drain — per-file FIFO routing preserves exactly the write
// order the inline drain would have used.
func TestAsyncDrainBitExactOutput(t *testing.T) {
	base := Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true}

	syncFS := rt.NewMemFS()
	runSnapshotWorkload(t, syncFS, base)

	asyncFS := rt.NewMemFS()
	acfg := base
	acfg.AsyncDrain = true
	acfg.DrainWriters = 2
	acfg.Trace = trace.New()
	sm := runSnapshotWorkload(t, asyncFS, acfg)

	want, err := syncFS.List("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := asyncFS.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("file sets differ: async %v, sync %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("file sets differ: async %v, sync %v", got, want)
		}
		a, s := readAll(t, asyncFS, name), readAll(t, syncFS, name)
		if string(a) != string(s) {
			t.Fatalf("%s differs between async (%d bytes) and sync (%d bytes) drain", name, len(a), len(s))
		}
	}

	// The writers, not the request loop, wrote the blocks.
	written := int(sm.Counters["rocpanda.server.blocks_written"])
	buffered := int(sm.Counters["rocpanda.server.blocks_buffered"])
	if written == 0 || written != buffered || sm.Counters["iosched.write.tasks"] != int64(written) {
		t.Fatalf("async servers wrote %d of %d buffered blocks", written, buffered)
	}
	// The writer pool recorded its spans on the timeline.
	drains := 0
	for _, s := range acfg.Trace.Spans() {
		if s.Phase == trace.PhaseDrain {
			drains++
			if s.Rank < 2 {
				t.Fatalf("drain span on client rank %d", s.Rank)
			}
		}
	}
	if drains != written {
		t.Fatalf("trace has %d drain spans, want %d (one per block)", drains, written)
	}
}

// TestAsyncDrainBackpressureOneBlockBudget pins the budget semantics: a
// budget smaller than any block admits exactly one block in flight, so
// every enqueue stalls until the writers catch up — write-through timing,
// with the queue never deeper than one block, and still bit-exact output.
func TestAsyncDrainBackpressureOneBlockBudget(t *testing.T) {
	base := Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true}

	syncFS := rt.NewMemFS()
	runSnapshotWorkload(t, syncFS, base)

	asyncFS := rt.NewMemFS()
	acfg := base
	acfg.AsyncDrain = true
	acfg.BufferBudgetBytes = 1
	sm := runSnapshotWorkload(t, asyncFS, acfg)

	buffered := sm.Counters["rocpanda.server.blocks_buffered"]
	if buffered == 0 {
		t.Fatal("no blocks buffered")
	}
	if peak := sm.Gauges["iosched.write.queue_depth"]; peak != 1 {
		t.Fatalf("queue peak %v with a 1-byte budget, want 1", peak)
	}
	if waits := sm.Counters["iosched.write.backpressure_waits"]; waits != buffered {
		t.Fatalf("backpressure waits %d, want one per block (%d)", waits, buffered)
	}
	if written := sm.Counters["rocpanda.server.blocks_written"]; written != buffered {
		t.Fatalf("wrote %d of %d blocks", written, buffered)
	}

	names := listRHDF(t, asyncFS, "ad/")
	if len(names) == 0 {
		t.Fatal("no snapshot files")
	}
	for _, name := range names {
		if string(readAll(t, asyncFS, name)) != string(readAll(t, syncFS, name)) {
			t.Fatalf("%s differs between degenerate async and sync drain", name)
		}
	}
}

// TestAsyncDrainCrashMidDrainFallsBack is the async twin of
// TestCrashMidDrainIncompleteSnapshotFallsBack: the injected MidDrain
// crash now fires on a background writer task, the server process dies
// with it, and the restart must fall back a generation exactly as it does
// when the synchronous drain crashes.
func TestAsyncDrainCrashMidDrainFallsBack(t *testing.T) {
	fs := rt.NewMemFS()
	// Server 1 (serving clients 2 and 3 of 4) drains 4 blocks of snapshot A
	// before its sync barrier; the crash on the 6th block lands mid-B, on
	// the writer task.
	plan := faults.NewCrashPlan(1, faults.MidDrain, 6)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(6, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			AsyncDrain:      true,
			DrainWriters:    2,
			Crash:           plan,
			RetryTimeout:    0.2,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("afb/A", w, "all", 1.0, 1); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] += 1000
			}
		})
		if err := cl.WriteAttribute("afb/B", w, "all", 2.0, 2); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Fired() {
		t.Fatal("crash plan never fired")
	}

	// Fresh, healthy world: B is incomplete, A must restore bit-exactly.
	var incomplete int
	var mu sync.Mutex
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(6, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			RetryTimeout:    0.2,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		err = cl.ReadAttribute("afb/B", w, "all")
		if err != nil {
			if !errors.Is(err, ErrIncompleteRestart) {
				return err
			}
			mu.Lock()
			incomplete++
			mu.Unlock()
		}
		if mpi.Agree(cl.Comm(), err) != nil {
			if err := cl.ReadAttribute("afb/A", w, "all"); err != nil {
				return err
			}
		}
		if err := checkWindow(cl.Comm().Rank(), w); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if incomplete == 0 {
		t.Fatal("no client reported snapshot B incomplete")
	}
	// The crashed writer's B file never left its staged temporary: the
	// atomic-create contract survives the move onto the writer task.
	if tmps, _ := fs.List("afb/B_s001"); len(tmps) != 1 || !strings.HasSuffix(tmps[0], ".rhdf"+hdf.TmpSuffix) {
		t.Fatalf("crashed server's B residue %v, want exactly one staged .rhdf%s", tmps, hdf.TmpSuffix)
	}
	// Snapshot A is fully intact (flushed and closed by the barrier before
	// its commit).
	names, _ := fs.List("afb/A_s")
	if len(names) != 2 {
		t.Fatalf("snapshot A files %v, want 2", names)
	}
	for _, n := range names {
		r, err := hdf.Open(fs, n, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		r.Close()
	}
}

// runDrainErrorWorkload injects a write failure on server 1's snapshot
// file and runs one generation through Sync on 4 ranks (2 clients, 2
// servers), returning each client's Sync and Shutdown errors.
func runDrainErrorWorkload(t *testing.T, fs rt.FS, async bool) (syncErrs, downErrs []error) {
	t.Helper()
	var mu sync.Mutex
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			AsyncDrain:      async,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("ef/A", w, "all", 1.0, 1); err != nil {
			return err
		}
		serr := cl.Sync()
		derr := cl.Shutdown()
		mu.Lock()
		syncErrs = append(syncErrs, serr)
		downErrs = append(downErrs, derr)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return syncErrs, downErrs
}

// TestAsyncDrainErrorSurfacesThroughSync pins the regression the issue
// calls out: a write error observed on the background writer must reach
// every client through the Sync allreduce — not be dropped on the writer
// goroutine — and no manifest may be committed over the missing data.
func TestAsyncDrainErrorSurfacesThroughSync(t *testing.T) {
	for _, async := range []bool{true, false} {
		name := "sync-drain"
		if async {
			name = "async-drain"
		}
		t.Run(name, func(t *testing.T) {
			plan := faults.NewFSPlan(1, faults.FSRule{
				Op: faults.OpWrite, PathPrefix: "ef/A_s001", Msg: "no space left on device",
			})
			fs := faults.WrapFS(rt.NewMemFS(), plan)
			syncErrs, downErrs := runDrainErrorWorkload(t, fs, async)
			if len(syncErrs) != 2 {
				t.Fatalf("got %d clients, want 2", len(syncErrs))
			}
			// Every client must see the failure, including the one whose own
			// server was healthy (the allreduce spreads it).
			for i, err := range syncErrs {
				if err == nil {
					t.Fatalf("client %d Sync returned nil despite server 1's failed drain", i)
				}
			}
			for i, err := range downErrs {
				if err == nil {
					t.Fatalf("client %d Shutdown committed despite server 1's failed drain", i)
				}
			}
			// No commit record: the generation must not be restorable.
			if names, _ := fs.List("ef/A.manifest"); len(names) != 0 {
				t.Fatalf("manifest %v exists despite failed drain", names)
			}
		})
	}
}
