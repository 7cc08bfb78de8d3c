package rocpanda

import (
	"fmt"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// snapshotBytes sums the committed .rhdf payload sizes of a generation.
func snapshotBytes(t *testing.T, fs rt.FS, prefix string) int64 {
	t.Helper()
	var total int64
	for _, name := range listRHDF(t, fs, prefix) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += size
	}
	return total
}

// restartOnePane restarts the generation with client 0 wanting exactly
// one pane and every other client sending an empty (collective) request,
// recording restart counters in reg.
func restartOnePane(t *testing.T, fs rt.FS, file string, nClients, nServers, paneID int, reg *metrics.Registry) {
	t.Helper()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: nServers, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rc := roccom.New()
		w, err := rc.NewWindow("fluid")
		if err != nil {
			return err
		}
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
		var mine []int
		if cl.Comm().Rank() == 0 {
			mine = []int{paneID}
		}
		readErr := cl.ReadPanes(file, w, "all", mine)
		if readErr == nil && cl.Comm().Rank() == 0 {
			if _, ok := w.Pane(paneID); !ok {
				readErr = fmt.Errorf("pane %d not restored", paneID)
			}
		}
		if err := cl.Shutdown(); err != nil {
			return err
		}
		return readErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexedRestartReadsOnlyNeededFiles is the catalog's efficiency
// claim, counter-asserted: restarting a single pane must open only the
// one file that contains it and read only that pane's extents, not the
// whole snapshot.
func TestIndexedRestartReadsOnlyNeededFiles(t *testing.T) {
	fs := rt.NewMemFS()
	const nClients, nServers = 4, 2
	writeSnapshot(t, fs, "eff/s", nClients, nServers, 2)

	chain, err := snapshot.LoadChain(fs, "eff/s")
	if err != nil {
		t.Fatal(err)
	}
	cat := chain[0].Catalog
	panes := cat.Panes("fluid")
	if len(panes) != nClients*2 {
		t.Fatalf("pane universe %v, want %d panes", panes, nClients*2)
	}
	pane := panes[0]
	if plans := cat.PlanReads("fluid", map[int]bool{pane: true}); len(plans) != 1 {
		t.Fatalf("pane %d planned across %d files, want 1", pane, len(plans))
	}

	reg := metrics.New()
	restartOnePane(t, fs, "eff/s", nClients, nServers, pane, reg)
	s := reg.Snapshot()
	if got := s.Counters["rocpanda.restart.catalog_hits"]; got != nServers {
		t.Fatalf("catalog_hits = %d, want %d (every server indexed)", got, nServers)
	}
	if got := s.Counters["rocpanda.restart.catalog_fallbacks"]; got != 0 {
		t.Fatalf("catalog_fallbacks = %d, want 0", got)
	}
	if got := s.Counters["rocpanda.restart.files_opened"]; got != 1 {
		t.Fatalf("files_opened = %d, want 1 (only the pane's file)", got)
	}
	total := snapshotBytes(t, fs, "eff/s")
	read := int64(s.Counters["rocpanda.restart.bytes_read"])
	if read <= 0 || read >= total {
		t.Fatalf("bytes_read = %d, want in (0, %d): direct offset reads, not a scan", read, total)
	}
}

// TestMissingRecordReadsByScan: a generation whose commit record is gone
// is read as an uncommitted one is — what is on disk is the only
// description: each server derives the index of its share from the files'
// directories, counts a fallback, and still restarts every pane bit-exact.
// A record that is there but damaged is no such fallback: a catalog lives
// in its record, and a round of a generation whose record does not load
// fails (snapshot.ReadFailed).
func TestMissingRecordReadsByScan(t *testing.T) {
	fs := rt.NewMemFS()
	const nClients, nServers = 3, 1
	writeSnapshot(t, fs, "corr/s", nClients, nServers, 2)
	want := expectedPanes(t, nClients, 2)
	if err := fs.Remove("corr/s" + snapshot.Suffix); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	got := restartTopology(t, fs, "corr/s", nClients, nServers, reg)
	checkMxN(t, want, got)
	s := reg.Snapshot()
	if s.Counters["rocpanda.restart.catalog_fallbacks"] != nServers {
		t.Fatalf("catalog_fallbacks = %d, want %d", s.Counters["rocpanda.restart.catalog_fallbacks"], nServers)
	}
	if s.Counters["rocpanda.restart.catalog_hits"] != 0 {
		t.Fatalf("catalog_hits = %d, want 0", s.Counters["rocpanda.restart.catalog_hits"])
	}
}

// TestDerivedIndexRestartOnSimulatedTuring restarts one generation twice on
// the simulated Turing platform (NFS, HDF4 cost profile, 16 clients + 2
// servers): from its commit record, and with the record deleted. Both
// restore bit-exact, and the derived-index restart is the indexed one plus
// each file's directory read — it pays no per-dataset library lookups, which
// only the dataset-at-a-time reader it replaced ever paid. The log line is
// the number EXPERIMENTS.md quotes.
func TestDerivedIndexRestartOnSimulatedTuring(t *testing.T) {
	restart := func(deleteRecord bool) (visible float64) {
		plat := cluster.Turing()
		plat.NoiseFrac = 0
		reg := metrics.New()
		err := cluster.NewWorld(plat, 1).Run(16+2, func(ctx mpi.Ctx) error {
			cl, err := Init(ctx, Config{
				NumServers: 2, Profile: hdf.HDF4Profile(), ActiveBuffering: true,
				MemcpyBW: plat.MemcpyBW, Metrics: reg,
			})
			if err != nil || cl == nil {
				return err
			}
			rank := cl.Comm().Rank()
			if err := cl.WriteAttribute("tu/A", buildWindow(t, rank, 8), "all", 0, 0); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
			if deleteRecord && rank == 0 {
				if err := ctx.FS().Remove("tu/A" + snapshot.Suffix); err != nil {
					return err
				}
			}
			cl.Comm().Barrier()
			w := zeroWindow(t, rank, 8)
			if err := cl.ReadAttribute("tu/A", w, "all"); err != nil {
				return err
			}
			if rank == 0 {
				visible = cl.Metrics().VisibleRead
			}
			if err := checkWindow(rank, w); err != nil {
				return err
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		c := reg.Snapshot().Counters
		if derived := c["rocpanda.restart.catalog_fallbacks"] == 2; derived != deleteRecord || c["rocpanda.restart.catalog_hits"]+c["rocpanda.restart.catalog_fallbacks"] != 2 {
			t.Fatalf("record deleted %v: %d rounds indexed, %d derived", deleteRecord,
				c["rocpanda.restart.catalog_hits"], c["rocpanda.restart.catalog_fallbacks"])
		}
		return visible
	}
	indexed, derived := restart(false), restart(true)
	t.Logf("visible restart read on simulated Turing: %.4f s from the commit record, %.4f s from a derived index", indexed, derived)
	if derived < indexed || derived > 1.5*indexed {
		t.Fatalf("derived-index restart %.4f s against %.4f s indexed: want the same reads plus two directory reads", derived, indexed)
	}
}
