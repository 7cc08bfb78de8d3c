package rocpanda

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/fssim"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
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
// workers. The pool issues exactly the inline driver's reads — the same
// ReadAt calls and bytes, walk and rounds together — and restores the same
// panes bit-exact, but the restart's metadata (client 0's judge of the
// head, each server's chain load) takes at most 0.6 of the inline virtual
// seconds: the catalog blobs and the best copies' file checks go out as one
// concurrent batch each. The platform runs noise-free, so every number
// repeats exactly.
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
		return o
	}
	inline, pooled := restart(false), restart(true)
	t.Logf("inline: %d reads, %d B, judge %.3f s, chain %.3f s; pooled: %d reads, %d B, judge %.3f s, chain %.3f s",
		inline.calls, inline.bytes, inline.judge, inline.chain, pooled.calls, pooled.bytes, pooled.judge, pooled.chain)
	head := fmt.Sprintf("mb/s%06d", gens-1)
	for _, o := range []outcome{inline, pooled} {
		if o.base != head {
			t.Fatalf("restored %s, want the depth-3 head %s", o.base, head)
		}
		checkMxN(t, expectedDeltaPanes(t, nClients, nblocks, all), o.got)
	}
	if pooled.calls != inline.calls || pooled.bytes != inline.bytes {
		t.Errorf("pooled restart read %d calls, %d B; inline %d calls, %d B", pooled.calls, pooled.bytes, inline.calls, inline.bytes)
	}
	if p, i := pooled.judge+pooled.chain, inline.judge+inline.chain; p > 0.6*i {
		t.Errorf("judge plus chain load: pooled %.3f s, inline %.3f s; want at most 0.6 of inline", p, i)
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
