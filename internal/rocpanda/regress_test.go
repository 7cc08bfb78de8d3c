package rocpanda

import (
	"errors"
	"fmt"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// TestResentReadRequestDoesNotStartEarlyScan reproduces the failover
// scenario where a client resends its restart request (its timeout fired
// while the server was slow, not dead), so the server sees the same
// request twice. Counting the duplicate as a new requester starts the
// scan before every client has asked: the late client's panes are
// missing from the round and its restart comes back incomplete.
func TestResentReadRequestDoesNotStartEarlyScan(t *testing.T) {
	fs := rt.NewMemFS()
	const nClients = 3

	// Write a snapshot: 3 clients x 2 panes on one server.
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+1, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("resend/s", w, "all", 0, 0); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restart, with client 0 injecting a duplicate of its own request
	// before any client issues the real one.
	reg := metrics.New()
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(nClients+1, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true,
			Metrics: reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		if cl.Comm().Rank() == 0 {
			// The exact bytes ReadAttribute is about to send.
			ids := w.PaneIDs()
			req := readReq{File: "resend/s", Window: w.Name, Attr: "all",
				PaneIDs: make([]int32, len(ids)), Alive: []int32{0}}
			for i, id := range ids {
				req.PaneIDs[i] = int32(id)
			}
			cl.world.Send(cl.srvRanks[0], tagReadReq, encodeReadReq(req))
		}
		// Make sure the duplicate is in flight before anyone reads.
		cl.Comm().Barrier()
		readErr := cl.ReadAttribute("resend/s", w, "all")
		if readErr == nil {
			readErr = checkWindow(cl.Comm().Rank(), w)
		}
		// Shut down even on failure so the collective completes and the
		// test reports the error instead of deadlocking.
		if err := cl.Shutdown(); err != nil {
			return err
		}
		if readErr != nil {
			return fmt.Errorf("client %d: %w", cl.Comm().Rank(), readErr)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrIncompleteRestart) {
			t.Fatalf("duplicate request started a partial scan: %v", err)
		}
		t.Fatal(err)
	}
	// One full scan: every pane shipped exactly once.
	if got, want := reg.Snapshot().Counters["rocpanda.server.reads_served"], int64(nClients*2); got != want {
		t.Fatalf("reads_served = %d, want %d (one complete scan)", got, want)
	}
}

// TestConfigMetricsPopulated checks the registry threading end to end: a
// write/sync/read run with Config.Metrics set must leave client, server
// and hdf series in the snapshot.
func TestConfigMetricsPopulated(t *testing.T) {
	reg := metrics.New()
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("mx/s", w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		z := zeroWindow(t, cl.Comm().Rank(), 2)
		if err := cl.ReadAttribute("mx/s", z, "all"); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for _, name := range []string{
		"rocpanda.server.blocks_buffered",
		"rocpanda.server.blocks_written",
		"rocpanda.server.bytes_written",
		"rocpanda.server.files_created",
		"rocpanda.server.reads_served",
		"rocpanda.client.bytes_out",
		"hdf.datasets_written",
		// The committed generation carries a catalog, so the restart is
		// served by indexed reads — direct offsets, no hdf.lookups.
		"rocpanda.restart.catalog_hits",
		"rocpanda.restart.files_opened",
		"rocpanda.restart.bytes_read",
	} {
		if s.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	if s.Gauges["rocpanda.server.buf_bytes_peak"] == 0 {
		t.Error("buf_bytes_peak gauge not set")
	}
	for _, name := range []string{
		"rocpanda.client.visible_write_seconds",
		"rocpanda.client.visible_read_seconds",
		"rocpanda.client.sync_wait_seconds",
		"rocpanda.server.drain_seconds",
		"rocpanda.server.restart_scan_seconds",
	} {
		if s.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty", name)
		}
	}
}

// TestFailedReadRoundIsReadToItsEnd: a named-attribute read whose blocks
// will not install (the window has none of the panes) fails, and the next
// read, of another generation, restores that generation bit-exact. A read
// that returned at its first bad block would leave the rest of its round —
// a block and both servers' dones — to be taken for the next round's.
func TestFailedReadRoundIsReadToItsEnd(t *testing.T) {
	fs := rt.NewMemFS()
	cfg := Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true}
	writeTwoGenerations(t, fs, "round/", cfg)
	err := mpi.NewChanWorld(fs, 1).Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, cfg)
		if err != nil || cl == nil {
			return err
		}
		defer cl.Shutdown()
		me := cl.Comm().Rank()
		w := zeroWindow(t, me, 2)
		empty, err := roccom.New().NewWindow(w.Name)
		if err != nil {
			return err
		}
		if err := cl.ReadPanes("round/snap000000", empty, "pressure", w.PaneIDs()); err == nil {
			return fmt.Errorf("client %d: a read into a window without its panes succeeded", me)
		}
		if err := cl.ReadAttribute("round/snap000100", w, "all"); err != nil {
			return fmt.Errorf("client %d: the read after a failed round: %w", me, err)
		}
		return checkWindow(me, w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLateServerIsHeard: slow is not dead. A server whose first restart
// block is held 40 times RetryTimeout is still running (its send stalls), so
// no client's timed wait can expire: the read restores bit-exact on both
// clients and no server is declared dead. World ranks 0 and 2 are the
// servers.
func TestLateServerIsHeard(t *testing.T) {
	fs := rt.NewMemFS()
	cfg := Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true}
	writeTwoGenerations(t, fs, "late/", cfg)
	net := faults.NewNetPlan(1, faults.NetRule{Src: 2, Dst: -1, Tag: tagReadBlock, Nth: 1, Delay: 0.4})
	world := mpi.NewChanWorld(fs, 1)
	world.SetSendHook(net.Hook())
	cfg.RetryTimeout = 0.01
	cfg.Metrics = metrics.New()
	err := world.Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, cfg)
		if err != nil || cl == nil {
			return err
		}
		defer cl.Shutdown()
		me := cl.Comm().Rank()
		w := zeroWindow(t, me, 2)
		if err := cl.ReadAttribute("late/snap000100", w, "all"); err != nil {
			return fmt.Errorf("client %d: the read with a held block: %w", me, err)
		}
		return checkWindow(me, w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Trips()) != 1 {
		t.Fatalf("net trips %v, want the one held block", net.Trips())
	}
	if c := cfg.Metrics.Snapshot().Counters; c["rocpanda.client.failovers"] != 0 || c["rocpanda.client.retries"] != 0 {
		t.Fatalf("failovers %d, retries %d after a slow server, want 0 and 0", c["rocpanda.client.failovers"], c["rocpanda.client.retries"])
	}
}
