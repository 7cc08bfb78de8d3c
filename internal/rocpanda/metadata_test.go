package rocpanda

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/cluster"
	"genxio/internal/fssim"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

// readTally counts every ReadAt a world's ranks and their spawned workers
// make on files they opened.
type readTally struct{ calls, bytes atomic.Int64 }

// tallyCtx is a rank's mpi.Ctx whose filesystem views — its own and each
// spawned activity's — count into a readTally.
type tallyCtx struct {
	mpi.Ctx
	n *readTally
}

func (c tallyCtx) FS() rt.FS { return tallyFS{c.Ctx.FS(), c.n} }

func (c tallyCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.Ctx.Spawn(name, func(tc rt.TaskCtx) { fn(tallyTask{tc, c.n}) })
}

type tallyTask struct {
	rt.TaskCtx
	n *readTally
}

func (t tallyTask) FS() rt.FS { return tallyFS{t.TaskCtx.FS(), t.n} }

type tallyFS struct {
	rt.FS
	n *readTally
}

func (f tallyFS) Open(name string) (rt.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return tallyFile{file, f.n}, nil
}

type tallyFile struct {
	rt.File
	n *readTally
}

func (f tallyFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.n.calls.Add(1)
	f.n.bytes.Add(int64(n))
	return n, err
}

// TestRestartMetadataBatchOnSimulatedTuring: an R = 2, depth-3 delta chain
// restored through RestoreLatest on simulated Turing (NFS, one
// window-limited stream per reader), once inline and once with 4 read
// workers. The pool reads exactly the inline driver's bytes, walk and rounds
// together, with the inline driver's ReadAt calls but for one more per piece
// it cut a long read into (<prefix>cut_pieces: here each server's base
// directory), and restores the same panes bit-exact; but the restart's
// metadata (client 0's judge of the head, each server's chain load and the
// directories it plans from) takes at most 0.52 of the inline virtual
// seconds: the catalog blobs, the best copies' file checks and the
// directories go out as one batch each, every read costed by its bytes and
// submitted largest first, a directory longer than its batch's fair share
// cut across the workers. The platform runs noise-free, so every number repeats
// exactly.
func TestRestartMetadataBatchOnSimulatedTuring(t *testing.T) {
	const nClients, nblocks, gens = 4, 128, 4
	// Each delta rewrites a quarter of every client's panes (mutateDelta
	// m rewrites the pane at local index m), as the bench's features rows do.
	dirtied := make([][]int, gens)
	var all []int
	for g := 1; g < gens; g++ {
		for j := range nblocks / 4 {
			dirtied[g] = append(dirtied[g], g*nblocks/4+j)
		}
		all = append(all, dirtied[g]...)
	}
	type outcome struct {
		calls, bytes int64
		pieces       int64
		judge, chain float64
		base         string
		got          map[int]paneData
	}
	restart := func(pooled bool) outcome {
		plat := cluster.Turing()
		plat.NoiseFrac = 0
		reg := metrics.New()
		var n readTally
		var mu sync.Mutex
		o := outcome{got: make(map[int]paneData)}
		err := cluster.NewWorld(plat, 1).Run(nClients+2, func(ctx mpi.Ctx) error {
			cl, err := Init(tallyCtx{ctx, &n}, Config{
				NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true,
				MemcpyBW: plat.MemcpyBW, Metrics: reg,
				DeltaSnapshots: true, FullEvery: gens, ReplicationFactor: 2,
				ParallelRead: pooled, ReadWorkers: 4,
			})
			if err != nil || cl == nil {
				return err
			}
			rank := cl.Comm().Rank()
			w := buildWindow(t, rank, nblocks)
			for g := 0; g < gens; g++ {
				for _, m := range dirtied[g] {
					mutateDelta(w, m, nblocks)
				}
				if err := cl.WriteAttribute(fmt.Sprintf("mb/s%06d", g), w, "all", float64(g), g*10); err != nil {
					return err
				}
				if err := cl.Sync(); err != nil {
					return err
				}
			}
			cl.Comm().Barrier()
			calls0, bytes0 := n.calls.Load(), n.bytes.Load()
			rw := zeroWindow(t, rank, nblocks)
			base, err := cl.RestoreLatest("mb/", func(base string) error { return cl.ReadAttribute(base, rw, "all") })
			if err != nil {
				return err
			}
			cl.Comm().Barrier() // every server's round is done
			mu.Lock()
			if rank == 0 {
				o.calls, o.bytes, o.base = n.calls.Load()-calls0, n.bytes.Load()-bytes0, base
			}
			rw.EachPane(func(p *roccom.Pane) { o.got[p.ID] = capturePane(p) })
			mu.Unlock()
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		h := reg.Snapshot().Histograms
		judge, chain := h["rocpanda.restart.judge_seconds"], h["rocpanda.restart.chain_seconds"]
		if judge.Count != 1 || chain.Count != 2 {
			t.Fatalf("pooled %v: %d judged generations and %d chain loads, want 1 and 2", pooled, judge.Count, chain.Count)
		}
		o.judge, o.chain = judge.Sum, chain.Sum
		o.pieces = reg.Snapshot().Counters["rocpanda.restart.cut_pieces"]
		return o
	}
	inline, pooled := restart(false), restart(true)
	t.Logf("inline: %d reads, %d B, judge %.3f s, chain %.3f s; pooled: %d reads (%d cut pieces), %d B, judge %.3f s, chain %.3f s; ratio %.3f",
		inline.calls, inline.bytes, inline.judge, inline.chain, pooled.calls, pooled.pieces, pooled.bytes, pooled.judge, pooled.chain,
		(pooled.judge+pooled.chain)/(inline.judge+inline.chain))
	head := fmt.Sprintf("mb/s%06d", gens-1)
	for _, o := range []outcome{inline, pooled} {
		if o.base != head {
			t.Fatalf("restored %s, want the depth-3 head %s", o.base, head)
		}
		checkMxN(t, expectedDeltaPanes(t, nClients, nblocks, all), o.got)
	}
	if inline.pieces != 0 || pooled.pieces == 0 {
		t.Errorf("the inline driver cut %d pieces and the pool %d; want none and some", inline.pieces, pooled.pieces)
	}
	if pooled.calls != inline.calls+pooled.pieces || pooled.bytes != inline.bytes {
		t.Errorf("pooled restart read %d calls (%d cut pieces), %d B; inline %d calls, %d B", pooled.calls, pooled.pieces, pooled.bytes, inline.calls, inline.bytes)
	}
	if p, i := pooled.judge+pooled.chain, inline.judge+inline.chain; p > 0.52*i {
		t.Errorf("judge plus chain load: pooled %.3f s, inline %.3f s; want at most 0.52 of inline", p, i)
	}
}

// TestParallelReadRoundBalancedOnSimulatedTuring: one server's pooled read
// round on simulated Turing (NFS, one window-limited stream per read
// worker) over a depth-3 delta chain, so the share mixes a full file's
// 512 KB chunks and tails with the short runs of the delta files. The
// round's virtual seconds stay within 1.18× of its bytes over four streams:
// dealing the chunks by bytes gives every worker about a quarter of them,
// where dealing by index left one worker reading far more than the rest.
// The platform runs noise-free, so the ratio repeats exactly.
func TestParallelReadRoundBalancedOnSimulatedTuring(t *testing.T) {
	const nClients, nblocks, nodes, gens, workers = 2, 24, 4000, 4, 4
	// Each delta rewrites a few scattered panes of every client (mutateDelta
	// m rewrites the pane at local index m), breaking the full file's
	// planned extent into runs of several lengths.
	dirtied := [gens][]int{1: {5}, 2: {11, 12}, 3: {17, 20, 21}}
	plat := cluster.Turing()
	plat.NoiseFrac = 0
	reg := metrics.New()
	err := cluster.NewWorld(plat, 1).Run(nClients+1, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true,
			MemcpyBW: plat.MemcpyBW, Metrics: reg,
			DeltaSnapshots: true, FullEvery: gens,
			ParallelRead: true, ReadWorkers: workers,
		})
		if err != nil || cl == nil {
			return err
		}
		rank := cl.Comm().Rank()
		w := buildWindowNodes(t, rank, nblocks, nodes)
		for g := 0; g < gens; g++ {
			for _, m := range dirtied[g] {
				mutateDelta(w, m, nblocks)
			}
			if err := cl.WriteAttribute(fmt.Sprintf("bal/s%06d", g), w, "all", float64(g), g*10); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
		}
		rw := buildWindowNodes(t, rank, nblocks, nodes)
		if err := cl.ReadAttribute(fmt.Sprintf("bal/s%06d", gens-1), rw, "all"); err != nil {
			return err
		}
		var bad error
		w.EachPane(func(p *roccom.Pane) {
			q, _ := rw.Pane(p.ID)
			if bad == nil && !reflect.DeepEqual(capturePane(q), capturePane(p)) {
				bad = fmt.Errorf("client %d: pane %d differs after the restart", rank, p.ID)
			}
		})
		if bad != nil {
			return bad
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	scan, chain := s.Histograms["rocpanda.server.restart_scan_seconds"], s.Histograms["rocpanda.restart.chain_seconds"]
	if scan.Count != 1 || chain.Count != 1 {
		t.Fatalf("%d read rounds and %d chain loads, want 1 and 1", scan.Count, chain.Count)
	}
	bytes := s.Counters["rocpanda.restart.bytes_read"]
	files := s.Counters["rocpanda.restart.files_opened"]
	round := scan.Sum - chain.Sum
	ideal := float64(bytes) / (workers * fssim.DefaultStreamReadBW) // Turing's NFS streams
	t.Logf("round %.3f s for %d B from %d files; %d streams ideal %.3f s, ratio %.3f", round, bytes, files, workers, ideal, round/ideal)
	if files != gens {
		t.Fatalf("the round opened %d files, want the chain's %d", files, gens)
	}
	if round > 1.18*ideal {
		t.Errorf("read round took %.3f s, %.2f× its %d B over %d streams (%.3f s); want at most 1.18×", round, round/ideal, bytes, workers, ideal)
	}
}

// TestRestoreWalkChecksBalancedOnSimulatedTuring: client 0's file checks of
// a depth-3 chain on simulated Turing (NFS, one window-limited stream per
// read worker), pooled on 4 workers, where each of the full base's two
// directories is 4× a delta's. The checks go out as one batch, each costed
// by its directory's length from the catalog's section table and submitted
// largest first, and a base directory longer than the batch's fair share is
// cut: the byte deal gives each base directory's first piece a worker of its
// own and the deltas and the pieces' rest to the other two, so the check
// phase takes at most 1.2× the directories' bytes over four streams. The
// phase is the span of client 0's read tasks in the walk's second judgment
// of the head, whose chain is held: the check batch alone. The platform runs
// noise-free, so the ratio repeats exactly.
func TestRestoreWalkChecksBalancedOnSimulatedTuring(t *testing.T) {
	const nClients, nblocks, gens, workers = 4, 384, 4, 4
	dirtied := make([][]int, gens)
	for g := 1; g < gens; g++ {
		for j := range nblocks / 4 {
			dirtied[g] = append(dirtied[g], g*nblocks/4+j)
		}
	}
	plat := cluster.Turing()
	plat.NoiseFrac = 0
	reg, rec := metrics.New(), trace.New()
	var warm float64 // when the second walk starts, on client 0's clock
	world := cluster.NewWorld(plat, 1)
	err := world.Run(nClients+2, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true,
			MemcpyBW: plat.MemcpyBW, Metrics: reg, Trace: rec,
			DeltaSnapshots: true, FullEvery: gens,
			ParallelRead: true, ReadWorkers: workers,
		})
		if err != nil || cl == nil {
			return err
		}
		rank := cl.Comm().Rank()
		w := buildWindow(t, rank, nblocks)
		for g := 0; g < gens; g++ {
			for _, m := range dirtied[g] {
				mutateDelta(w, m, nblocks)
			}
			if err := cl.WriteAttribute(fmt.Sprintf("cb/s%06d", g), w, "all", float64(g), g*10); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
		}
		for i := range 2 {
			cl.Comm().Barrier()
			if rank == 0 && i == 1 {
				warm = ctx.Clock().Now()
			}
			rw := zeroWindow(t, rank, nblocks)
			if _, err := cl.RestoreLatest("cb/", func(base string) error { return cl.ReadAttribute(base, rw, "all") }); err != nil {
				return err
			}
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Histograms["rocpanda.restart.judge_seconds"].Count; n != 2 {
		t.Fatalf("%d judged generations, want the head twice", n)
	}
	// Client 0 reads nothing of the second restore but its checks.
	t0, t1, tasks := math.Inf(1), 0.0, 0
	for _, sp := range rec.Spans() {
		if sp.Rank == 0 && sp.Phase == trace.PhaseRead && sp.T0 >= warm {
			t0, t1, tasks = min(t0, sp.T0), max(t1, sp.T1), tasks+1
		}
	}
	// At R = 1 every file of the chain is a best copy, and each is checked.
	fs := world.FSModel().Backing()
	names, err := fs.List("cb/")
	if err != nil {
		t.Fatal(err)
	}
	var files int
	var dirs int64
	for _, name := range names {
		if _, _, _, ok := catalog.ParseServerFile(name); ok {
			d, err := hdf.ReadRawDir(fs, name)
			if err != nil {
				t.Fatal(err)
			}
			files, dirs = files+1, dirs+int64(len(d.Bytes))
		}
	}
	if files != 2*gens || tasks < files {
		t.Fatalf("%d server files checked in %d tasks, want %d files", files, tasks, 2*gens)
	}
	checks := t1 - t0
	ideal := float64(dirs) / (workers * fssim.DefaultStreamReadBW)
	t.Logf("check phase %.3f s in %d tasks for %d directory bytes of %d files; %d streams ideal %.3f s, ratio %.3f", checks, tasks, dirs, files, workers, ideal, checks/ideal)
	if checks > 1.2*ideal {
		t.Errorf("the check phase took %.3f s, %.2f× its %d directory bytes over %d streams (%.3f s); want at most 1.2×", checks, checks/ideal, dirs, workers, ideal)
	}
}

// TestPooledReadIsInlinePlusPieces: one server's restart of a depth-3 delta
// chain on simulated Turing, whose full file holds runs longer than a piece,
// once inline and once on 4 read workers. Every read of the restart, data
// and metadata alike, is one extent read under one cut rule: the pool reads
// exactly the inline driver's bytes, with the inline driver's ReadAt calls
// plus one for every window it cut a range into beyond the first
// (<prefix>cut_pieces), and both restore every pane bit-exact.
func TestPooledReadIsInlinePlusPieces(t *testing.T) {
	const nClients, nblocks, nodes, gens = 2, 24, 4000, 4
	dirtied := [gens][]int{1: {5}, 2: {11, 12}, 3: {17, 20, 21}}
	type outcome struct {
		calls, bytes, pieces int64
		got                  map[int]paneData
	}
	restart := func(pooled bool) outcome {
		plat := cluster.Turing()
		plat.NoiseFrac = 0
		reg := metrics.New()
		var n readTally
		var mu sync.Mutex
		o := outcome{got: make(map[int]paneData)}
		err := cluster.NewWorld(plat, 1).Run(nClients+1, func(ctx mpi.Ctx) error {
			cl, err := Init(tallyCtx{ctx, &n}, Config{
				NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true,
				MemcpyBW: plat.MemcpyBW, Metrics: reg,
				DeltaSnapshots: true, FullEvery: gens,
				ParallelRead: pooled, ReadWorkers: 4,
			})
			if err != nil || cl == nil {
				return err
			}
			rank := cl.Comm().Rank()
			w := buildWindowNodes(t, rank, nblocks, nodes)
			for g := 0; g < gens; g++ {
				for _, m := range dirtied[g] {
					mutateDelta(w, m, nblocks)
				}
				if err := cl.WriteAttribute(fmt.Sprintf("pp/s%06d", g), w, "all", float64(g), g*10); err != nil {
					return err
				}
				if err := cl.Sync(); err != nil {
					return err
				}
			}
			cl.Comm().Barrier()
			calls0, bytes0 := n.calls.Load(), n.bytes.Load()
			rw := buildWindowNodes(t, rank, nblocks, nodes)
			rw.EachPane(func(p *roccom.Pane) {
				pr, _ := p.Array("pressure")
				clear(pr.F64)
			})
			if err := cl.ReadAttribute(fmt.Sprintf("pp/s%06d", gens-1), rw, "all"); err != nil {
				return err
			}
			cl.Comm().Barrier() // the server's round is done
			mu.Lock()
			if rank == 0 {
				o.calls, o.bytes = n.calls.Load()-calls0, n.bytes.Load()-bytes0
			}
			var bad error
			w.EachPane(func(p *roccom.Pane) {
				q, _ := rw.Pane(p.ID)
				if o.got[p.ID] = capturePane(q); bad == nil && !reflect.DeepEqual(o.got[p.ID], capturePane(p)) {
					bad = fmt.Errorf("client %d: pane %d differs after the restart", rank, p.ID)
				}
			})
			mu.Unlock()
			if bad != nil {
				return bad
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		o.pieces = reg.Snapshot().Counters["rocpanda.restart.cut_pieces"]
		return o
	}
	inline, pooled := restart(false), restart(true)
	t.Logf("inline: %d reads, %d B; pooled: %d reads (%d cut pieces), %d B", inline.calls, inline.bytes, pooled.calls, pooled.pieces, pooled.bytes)
	if inline.pieces != 0 || pooled.pieces == 0 {
		t.Errorf("the inline driver cut %d pieces and the pool %d; want none and some", inline.pieces, pooled.pieces)
	}
	if pooled.bytes != inline.bytes {
		t.Errorf("pooled restart read %d B, inline %d B", pooled.bytes, inline.bytes)
	}
	if pooled.calls != inline.calls+pooled.pieces {
		t.Errorf("pooled restart read in %d calls, want the inline driver's %d plus its %d cut pieces", pooled.calls, inline.calls, pooled.pieces)
	}
}
