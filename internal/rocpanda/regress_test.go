package rocpanda

import (
	"errors"
	"fmt"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
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
