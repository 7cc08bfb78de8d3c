package rocpanda

// Cross-engine interleaving e2e: the scheduler's headline property is that
// a server's iosched instances are independent — a restart read round is
// admitted and served while the drain instance is still writing back a
// later generation. This test runs exactly that shape on the channel
// backend (real goroutines, wall clock) and is part of the CI -race suite.

import (
	"sync/atomic"
	"testing"
	"time"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// slowFS widens every file's read and write on the wall clock so
// background engine work has real duration: the drain of a generation
// stays in flight long enough for a restart round to land inside it, and
// every task span has T1 > T0 so overlap accounting sees nonzero seconds.
type slowFS struct {
	rt.FS
	write, read   time.Duration
	writes, reads atomic.Int64 // call counts, for the test's log line
}

func (s *slowFS) Create(name string) (rt.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, fs: s}, nil
}

func (s *slowFS) Open(name string) (rt.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, fs: s}, nil
}

type slowFile struct {
	rt.File
	fs *slowFS
}

func (f *slowFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.writes.Add(1)
	if f.fs.write > 0 {
		time.Sleep(f.fs.write)
	}
	return f.File.WriteAt(p, off)
}

func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	if f.fs.read > 0 {
		time.Sleep(f.fs.read)
	}
	return f.File.ReadAt(p, off)
}

// TestCrossEngineInterleavedRestartRead restarts committed generation A
// while generation B is still async-draining on the same server, and pins
// the scheduler contract for that shape:
//
//   - the restored state is bit-exact (generation A's values, untouched by
//     the in-flight B drain);
//   - the read round was NOT serialized behind the drain: write-class
//     tasks are still completing after the restart read returned;
//   - both engines report nonzero overlap on the unified metrics — the
//     drain's write class (work behind the application's back) and the
//     restart share's read class (disk time behind the round's shipping).
//
// The restart goes through the derived index (catalog deleted). Generation A
// was written by two servers, so the one server here has two files in its
// share — the round ships from the first while the second still reads, which
// is what makes the read-side overlap nonzero.
func TestCrossEngineInterleavedRestartRead(t *testing.T) {
	raw := rt.NewMemFS()
	writeSnapshot(t, raw, "icx/A", 2, 2, 6)
	// Sync committed A, so its catalog is on disk; deleting it makes the
	// restart below derive its index from the two files' directories.
	if err := raw.Remove("icx/A" + catalog.Suffix); err != nil {
		t.Fatal(err)
	}
	fs := &slowFS{FS: raw, write: 5 * time.Millisecond, read: 5 * time.Millisecond}
	reg := metrics.New()
	// Written on client 0's goroutine; world.Run's wait is the
	// happens-before edge to the assertions below.
	var tasksMidRead, overlapMidRead = int64(0), 0.0
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:        1,
			Profile:           hdf.NullProfile(),
			ActiveBuffering:   true,
			AsyncDrain:        true,
			DrainWriters:      2,
			ParallelRead:      true,
			ReadWorkers:       2,
			ReplicationFactor: 2,
			Metrics:           reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rank := cl.Comm().Rank()
		w := buildWindow(t, rank, 6)
		// Generation B: buffered and enqueued on the drain engine, NOT
		// synced — at 5 ms per file write it is still draining when the
		// read round below runs.
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] += 1000
			}
		})
		if err := cl.WriteAttribute("icx/B", w, "all", 2.0, 2); err != nil {
			return err
		}
		// Restart read of committed A while B drains. A committed
		// generation needs no flush barrier (serveRead), so the round is
		// admitted immediately on the read instance.
		w2 := zeroWindow(t, rank, 6)
		if err := cl.ReadAttribute("icx/A", w2, "all"); err != nil {
			return err
		}
		if rank == 0 {
			mid := reg.Snapshot()
			tasksMidRead = mid.Counters["iosched.write.tasks"]
			overlapMidRead = mid.Histograms["iosched.write.overlap_seconds"].Sum
		}
		if err := checkWindow(rank, w2); err != nil {
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

	snap := reg.Snapshot()
	t.Logf("write tasks mid-read=%d end=%d; write overlap mid=%.4fs end=%.4fs; read overlap=%.4fs",
		tasksMidRead, snap.Counters["iosched.write.tasks"],
		overlapMidRead, snap.Histograms["iosched.write.overlap_seconds"].Sum,
		snap.Histograms["iosched.read.overlap_seconds"].Sum)
	t.Logf("slowFS calls: %d writes, %d reads", fs.writes.Load(), fs.reads.Load())
	// The drain outlived the read: B's write-class tasks kept completing
	// after the restart returned — the read was not serialized behind the
	// drain queue.
	if end := snap.Counters["iosched.write.tasks"]; tasksMidRead >= end {
		t.Fatalf("write-class tasks at read completion = %d, at shutdown = %d; the drain finished before the read, no interleaving", tasksMidRead, end)
	}
	// And the read ran inside the drain, not before it: write-class
	// overlap accrued while the restart round was in flight (B's blocks
	// completing outside any flush barrier).
	if overlapMidRead <= 0 {
		t.Fatal("no write-class overlap accrued by the end of the read")
	}
	// The restart derived its index (catalog deleted), two files.
	if n := snap.Counters["rocpanda.restart.catalog_fallbacks"]; n == 0 {
		t.Fatal("restart did not take the derived-index fallback")
	}
	if n := snap.Counters["iosched.read.tasks"]; n < 2 {
		t.Fatalf("read-class tasks = %d, want >= 2 (one per file)", n)
	}
	// Both engines overlapped: drain work behind the application's back,
	// and reads behind the round's first ship.
	if ov := snap.Histograms["iosched.write.overlap_seconds"]; ov.Count == 0 || ov.Sum <= 0 {
		t.Fatalf("no write-class overlap recorded: %+v", ov)
	}
	if ov := snap.Histograms["iosched.read.overlap_seconds"]; ov.Count == 0 || ov.Sum <= 0 {
		t.Fatalf("no read-class overlap recorded: %+v", ov)
	}
}
