package rocpanda

// Fault-injection and recovery tests: server crashes at instrumented
// points (internal/faults), client failover to surviving servers, and the
// scan-based restart path recovering snapshots bit-exactly — or reporting
// them incomplete so the caller can fall back to the previous one.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// crashRunResult captures one crash-failover run for determinism checks.
type crashRunResult struct {
	trips       []faults.Trip
	crashedRank int              // world rank of the dead server
	crashed     map[string]int64 // its own counters
	adopted     int64
	clients     map[int]Metrics
}

// runMidBufferCrash writes one snapshot on 2 servers + 6 clients while
// server 1 dies at its 2nd buffered block; the orphaned clients must fail
// over to server 0 and complete the snapshot in degraded mode.
func runMidBufferCrash(t *testing.T, fs rt.FS) crashRunResult {
	t.Helper()
	plan := faults.NewCrashPlan(1, faults.MidBuffer, 2)
	res := crashRunResult{clients: make(map[int]Metrics)}
	var mu sync.Mutex
	var regs rankRegistries
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(8, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			Crash:           plan,
			RetryTimeout:    0.2,
			Metrics:         regs.forRank(ctx.Comm().Rank()),
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("cr/s0", w, "all", 1.0, 100); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		// Degraded in-run restart: the surviving server must scan every
		// snapshot file by itself.
		rw := zeroWindow(t, cl.Comm().Rank(), 2)
		if err := cl.ReadAttribute("cr/s0", rw, "all"); err != nil {
			return err
		}
		if err := checkWindow(cl.Comm().Rank(), rw); err != nil {
			return err
		}
		mu.Lock()
		res.clients[cl.Comm().Rank()] = cl.Metrics()
		mu.Unlock()
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Fired() {
		t.Fatal("crash plan never fired")
	}
	res.trips = plan.Trips()
	res.crashedRank, res.crashed = regs.crashed(t)
	res.adopted = regs.total("rocpanda.server.clients_adopted")
	return res
}

func TestCrashMidBufferFailoverAndRestart(t *testing.T) {
	fs := rt.NewMemFS()
	res := runMidBufferCrash(t, fs)

	if want := serverRanks(8, 2, Spread)[1]; res.crashedRank != want {
		t.Fatalf("rank %d crashed, want server 1 (rank %d)", res.crashedRank, want)
	}
	// Nth=2: the server dies having buffered exactly 2 blocks, before any
	// drain — no file, nothing acknowledged.
	if c := res.crashed; c["rocpanda.server.blocks_buffered"] != 2 || c["rocpanda.server.blocks_written"] != 0 || c["rocpanda.server.files_created"] != 0 {
		t.Fatalf("crashed server did unexpected work: %+v", c)
	}
	if res.adopted != 3 {
		t.Fatalf("survivor adopted %d clients, want 3", res.adopted)
	}
	var failovers, retries int
	for _, m := range res.clients {
		failovers += m.Failovers
		retries += m.Retries
	}
	if failovers != 3 || retries < 3 {
		t.Fatalf("client failovers=%d retries=%d, want 3 and >=3", failovers, retries)
	}
	// Degraded mode: the whole snapshot lives in the survivor's file.
	names, _ := fs.List("cr/s0_s")
	if len(names) != 1 {
		t.Fatalf("snapshot files %v, want the survivor's only", names)
	}

	// The killed run's snapshot must restart bit-exactly in a fresh,
	// healthy world (the e2e recovery path).
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(8, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		if err := cl.ReadAttribute("cr/s0", w, "all"); err != nil {
			return err
		}
		if err := checkWindow(cl.Comm().Rank(), w); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashInjectionDeterministic(t *testing.T) {
	// Same plan, two fresh runs: the server must die at the same operation
	// of the same stream, having done exactly the same amount of work.
	a := runMidBufferCrash(t, rt.NewMemFS())
	b := runMidBufferCrash(t, rt.NewMemFS())
	if !reflect.DeepEqual(a.trips, b.trips) {
		t.Fatalf("trips differ across runs: %v vs %v", a.trips, b.trips)
	}
	want := []faults.Trip{{Stream: "crash:1:mid-buffer", Op: 2}}
	if !reflect.DeepEqual(a.trips, want) {
		t.Fatalf("trips %v, want %v", a.trips, want)
	}
	if a.crashed["rocpanda.server.blocks_buffered"] != b.crashed["rocpanda.server.blocks_buffered"] ||
		a.crashed["rocpanda.server.blocks_written"] != b.crashed["rocpanda.server.blocks_written"] {
		t.Fatalf("crash-point state differs: %+v vs %+v", a.crashed, b.crashed)
	}
}

func TestCrashMidDrainIncompleteSnapshotFallsBack(t *testing.T) {
	// Server 1 (serving clients 2 and 3 of 4) dies while draining snapshot
	// B, after snapshot A was synced to disk. B's file on server 1 has no
	// directory; some of B's blocks die in its buffer. Restart of B must
	// report ErrIncompleteRestart and the clients fall back to A.
	fs := rt.NewMemFS()
	// Server 1 drains 4 blocks of A (2 clients x 2 panes), synced and
	// closed; the crash at the 6th drained block lands mid-snapshot-B.
	plan := faults.NewCrashPlan(1, faults.MidDrain, 6)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(6, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
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
		if err := cl.WriteAttribute("fb/A", w, "all", 1.0, 1); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		// Snapshot B carries different data, so a fallback to A is
		// detectable bit-for-bit.
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] += 1000
			}
		})
		if err := cl.WriteAttribute("fb/B", w, "all", 2.0, 2); err != nil {
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

	// Fresh, healthy world. Reading B must fail with ErrIncompleteRestart
	// on the clients whose panes died with server 1; the fallback to A is
	// collective (every client re-reads, agreed by an allreduce) and must
	// be bit-exact.
	var incomplete int
	var mu sync.Mutex
	reg := metrics.New()
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(6, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			RetryTimeout:    0.2,
			Metrics:         reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		err = cl.ReadAttribute("fb/B", w, "all")
		if err != nil {
			if !errors.Is(err, ErrIncompleteRestart) {
				return err
			}
			mu.Lock()
			incomplete++
			mu.Unlock()
		}
		if mpi.Agree(cl.Comm(), err) != nil {
			if err := cl.ReadAttribute("fb/A", w, "all"); err != nil {
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
	// With atomic creates the crashed server's partial file never became
	// visible: it is still a staged temporary, the committed name does not
	// exist, and the healthy rescan has nothing to skip.
	if skipped := reg.Snapshot().Counters["rocpanda.server.files_skipped"]; skipped != 0 {
		t.Fatalf("servers skipped %d files; the staged temporary should be invisible to the scan", skipped)
	}
	if tmps, _ := fs.List("fb/B_s001"); len(tmps) != 1 || !strings.HasSuffix(tmps[0], ".rhdf"+hdf.TmpSuffix) {
		t.Fatalf("crashed server's B residue %v, want exactly one staged .rhdf%s", tmps, hdf.TmpSuffix)
	}
	// Snapshot A must still be fully intact on disk (both servers' files).
	names, _ := fs.List("fb/A_s")
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

func TestDroppedAckFailoverDedupsRestart(t *testing.T) {
	// The network eats the first write ack from server 1 to client 2. The
	// client times out, declares the (alive) server dead and resends to
	// server 0 — duplicating its panes across two servers' files. The
	// wrongly-declared server must still be released at shutdown, and the
	// restart must dedup the duplicated panes bit-exactly.
	fs := rt.NewMemFS()
	// World ranks: servers at 0 and 3; clients 1,2 -> server 0, clients
	// 4,5 -> server 1. Drop the first tagWriteAck from rank 3 to rank 4.
	net := faults.NewNetPlan(7, faults.NetRule{Src: 3, Dst: 4, Tag: tagWriteAck, Nth: 1, Drop: true})
	var clientMetrics []Metrics
	var mu sync.Mutex
	world := mpi.NewChanWorld(fs, 1)
	world.SetSendHook(net.Hook())
	err := world.Run(6, func(ctx mpi.Ctx) error {
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
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("dup/s", w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		mu.Lock()
		clientMetrics = append(clientMetrics, cl.Metrics())
		mu.Unlock()
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Trips()) != 1 {
		t.Fatalf("net trips %v, want exactly the dropped ack", net.Trips())
	}
	var retries int
	for _, m := range clientMetrics {
		retries += m.Retries
	}
	if retries == 0 {
		t.Fatal("no client retried after the dropped ack")
	}
	// The falsely-declared server was released at shutdown and drained:
	// both files are complete and readable.
	names, _ := fs.List("dup/s_s")
	if len(names) != 2 {
		t.Fatalf("files %v, want 2", names)
	}
	for _, n := range names {
		r, err := hdf.Open(fs, n, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			t.Fatalf("%s: %v (wrongly-declared server not drained?)", n, err)
		}
		r.Close()
	}

	// Restart in a healthy world: client 2's panes exist in both files;
	// the read path must dedup them and every pane must be bit-exact.
	reg := metrics.New()
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(6, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:      2,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			Metrics:         reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		if err := cl.ReadAttribute("dup/s", w, "all"); err != nil {
			return err
		}
		if err := checkWindow(cl.Comm().Rank(), w); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 clients x 2 panes unique. Client 2's panes sit in both committed
	// files, and the catalog plans one copy of each: 8 blocks cross the wire.
	chain, err := snapshot.LoadChain(fs, "dup/s")
	if err != nil {
		t.Fatal(err)
	}
	if cat := chain[0].Catalog; len(cat.Files) != 2 || len(cat.PaneFiles("fluid", 2001)) != 2 {
		t.Fatalf("committed files %v; want both, each holding client 2's pane 2001", cat.Files)
	}
	if served := reg.Snapshot().Counters["rocpanda.server.reads_served"]; served != 8 {
		t.Fatalf("servers shipped %d blocks, want 8 (one copy of each pane)", served)
	}
}

// TestDroppedAckSyncCommitsEveryPane: after the one false positive a timed
// wait still has — the network eats server 1's first write ack to client 2
// (world rank 4), so client 2 declares the live server dead and the clients'
// Sync agrees on it — client 3, whose writes server 1 acked, syncs server 1
// too, and the file server 1 publishes joins the commit. The committed
// generation lists both servers' files, PanesForRestart deals all eight
// panes, and the in-run read before shutdown restores every client's panes
// bit-exact.
func TestDroppedAckSyncCommitsEveryPane(t *testing.T) {
	net := faults.NewNetPlan(7, faults.NetRule{Src: 3, Dst: 4, Tag: tagWriteAck, Nth: 1, Drop: true})
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	world.SetSendHook(net.Hook())
	dealt, readErrs := make([][]int, 4), make([]error, 4)
	err := world.Run(6, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true, RetryTimeout: 0.2})
		if err != nil || cl == nil {
			return err
		}
		me := cl.Comm().Rank()
		if err := cl.WriteAttribute("dup/s", buildWindow(t, me, 2), "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		if dealt[me], err = cl.PanesForRestart("dup/s", "fluid"); err != nil {
			return err
		}
		w := zeroWindow(t, me, 2)
		if readErrs[me] = cl.ReadAttribute("dup/s", w, "all"); readErrs[me] == nil {
			readErrs[me] = checkWindow(me, w)
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Trips()) != 1 {
		t.Fatalf("net trips %v, want exactly the dropped ack", net.Trips())
	}
	m, err := snapshot.Load(fs, "dup/s")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 2 {
		t.Fatalf("dup/s commits %v, want both servers' files", m.Files)
	}
	var all []int
	for _, ids := range dealt {
		all = append(all, ids...)
	}
	slices.Sort(all)
	if fmt.Sprint(all) != "[1 2 1001 1002 2001 2002 3001 3002]" {
		t.Fatalf("PanesForRestart dealt %v, want all eight panes", all)
	}
	for me, err := range readErrs {
		if err != nil {
			t.Errorf("client %d: in-run read: %v", me, err)
		}
	}
}

func TestReassignServer(t *testing.T) {
	// 3 servers, 9 clients, contiguous groups of 3.
	none := deadSet(0)
	for j := 0; j < 9; j++ {
		if idx, ok := reassignServer(3, 9, j, none); !ok || idx != j/3 {
			t.Fatalf("healthy assignment of client %d: %d %v", j, idx, ok)
		}
	}
	// Server 1 dead: its clients 3,4,5 are dealt round-robin over {0,2}.
	dead1 := deadSet(1 << 1)
	wants := map[int]int{3: 0, 4: 2, 5: 0}
	for j := 0; j < 9; j++ {
		idx, ok := reassignServer(3, 9, j, dead1)
		if !ok {
			t.Fatalf("client %d unassigned", j)
		}
		want := j / 3
		if w, orphan := wants[j]; orphan {
			want = w
		}
		if idx != want {
			t.Fatalf("client %d -> server %d, want %d", j, idx, want)
		}
	}
	// Only server 2 survives: everyone lands there.
	dead02 := deadSet(1<<0 | 1<<1)
	for j := 0; j < 9; j++ {
		if idx, ok := reassignServer(3, 9, j, dead02); !ok || idx != 2 {
			t.Fatalf("client %d -> %d %v, want 2", j, idx, ok)
		}
	}
	// All dead.
	if _, ok := reassignServer(2, 4, 0, deadSet(1<<0|1<<1)); ok {
		t.Fatal("assignment with no survivors")
	}
}

func TestOverflowPartialDrainBitExact(t *testing.T) {
	// The graceful-overflow satellite: a budget smaller than any block
	// forces a synchronous partial drain on every buffered block — and the
	// data read back afterwards must still be bit-exact.
	run := func(budget int64) map[string]int64 {
		reg := metrics.New()
		world := mpi.NewChanWorld(rt.NewMemFS(), 1)
		err := world.Run(4, func(ctx mpi.Ctx) error {
			cl, err := Init(ctx, Config{
				NumServers:        1,
				Profile:           hdf.NullProfile(),
				ActiveBuffering:   true,
				BufferBudgetBytes: budget,
				Metrics:           reg,
			})
			if err != nil {
				return err
			}
			if cl == nil {
				return nil
			}
			w := buildWindow(t, cl.Comm().Rank(), 3)
			if err := cl.WriteAttribute("oz/s", w, "all", 0, 0); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
			rw := zeroWindow(t, cl.Comm().Rank(), 3)
			if err := cl.ReadAttribute("oz/s", rw, "all"); err != nil {
				return err
			}
			if err := checkWindow(cl.Comm().Rank(), rw); err != nil {
				return err
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	roomy := run(1 << 30)
	if n := roomy["rocpanda.server.overflow_stalls"]; n != 0 {
		t.Fatalf("roomy buffer overflowed %d times", n)
	}
	tiny := run(1)
	// Every buffered block exceeds a 1-byte budget, so each one must
	// trigger exactly one synchronous drain — no more, no fewer.
	stalls, buffered := tiny["rocpanda.server.overflow_stalls"], tiny["rocpanda.server.blocks_buffered"]
	if stalls != buffered || stalls == 0 {
		t.Fatalf("overflows=%d buffered=%d, want equal and nonzero", stalls, buffered)
	}
	if written := tiny["rocpanda.server.blocks_written"]; written != buffered {
		t.Fatalf("wrote %d of %d blocks", written, buffered)
	}
}
