package rochdf

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/stats"
)

// buildWindow creates a "fluid" window with nblocks panes on this rank,
// with deterministic data derived from the rank.
func buildWindow(t testing.TB, rank, nblocks int) (*roccom.Roccom, *roccom.Window) {
	rc := roccom.New()
	w, err := rc.NewWindow("fluid")
	if err != nil {
		t.Fatal(err)
	}
	w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
	w.NewAttribute(roccom.AttrSpec{Name: "velocity", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 3})
	blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.4, Length: 1,
		BR: 1, BT: nblocks, BZ: 1, NodesPerBlock: 60, Spread: 0.2,
	}, 100*rank+1, stats.NewRNG(uint64(rank)+7))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		p, err := w.RegisterPane(b.ID, b)
		if err != nil {
			t.Fatal(err)
		}
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = float64(rank*1000+b.ID) + float64(i)*0.01
		}
	}
	return rc, w
}

// checkRestored verifies that a freshly built window restored from file
// matches the deterministic fill of buildWindow.
func checkRestored(rank int, w *roccom.Window) error {
	for _, id := range w.PaneIDs() {
		p, _ := w.Pane(id)
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			want := float64(rank*1000+id) + float64(i)*0.01
			if pr.F64[i] != want {
				return fmt.Errorf("rank %d pane %d pressure[%d] = %v, want %v", rank, id, i, pr.F64[i], want)
			}
		}
	}
	return nil
}

func runRochdf(t *testing.T, threaded bool) {
	t.Helper()
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	const nranks = 4
	err := world.Run(nranks, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		_, w := buildWindow(t, rank, 3)
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: threaded})
		if err := h.WriteAttribute("out/snap0000", w, "all", 0.0, 0); err != nil {
			return err
		}
		// Second window write into the same snapshot (multi-module).
		if err := h.WriteAttribute("out/snap0000", w, "pressure", 0.0, 0); err == nil {
			// duplicate dataset names are an error; the module must
			// surface it on the write or at sync.
			if err2 := h.Sync(); err2 == nil {
				return fmt.Errorf("duplicate datasets accepted")
			}
		}
		return h.Close()
	})
	// The duplicate write makes some rank error out; that's expected.
	// Run again cleanly.
	fs = rt.NewMemFS()
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(nranks, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		_, w := buildWindow(t, rank, 3)
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: threaded})
		for snap := 0; snap < 3; snap++ {
			base := fmt.Sprintf("out/snap%04d", snap)
			if err := h.WriteAttribute(base, w, "all", float64(snap)*0.1, snap*50); err != nil {
				return err
			}
		}
		if err := h.Sync(); err != nil {
			return err
		}
		m := h.Metrics()
		if m.WriteCalls != 3 || m.FilesCreated != 3 || m.BytesOut == 0 {
			return fmt.Errorf("metrics %+v", m)
		}
		if err := h.Close(); err != nil {
			return err
		}

		// Restart from the last snapshot into a fresh window with the
		// same pane IDs but zeroed data.
		_, w2 := buildWindow(t, rank, 3)
		w2.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] = 0
			}
		})
		ctx2 := ctx
		h2 := New(ctx2, Config{Profile: hdf.NullProfile()})
		if err := h2.ReadAttribute("out/snap0002", w2, "all"); err != nil {
			return err
		}
		return checkRestored(rank, w2)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One file per rank per snapshot (plus the commit manifest).
	names, _ := fs.List("out/snap0002")
	var rhdf []string
	manifests := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".rhdf") {
			rhdf = append(rhdf, n)
		} else if strings.HasSuffix(n, ".manifest") {
			manifests++
		}
	}
	if len(rhdf) != nranks {
		t.Fatalf("snapshot has %d files, want %d: %v", len(rhdf), nranks, names)
	}
	if manifests != 1 {
		t.Fatalf("snapshot has %d commit manifests, want 1: %v", manifests, names)
	}
}

func TestRochdfWriteRestart(t *testing.T)  { runRochdf(t, false) }
func TestTRochdfWriteRestart(t *testing.T) { runRochdf(t, true) }

func TestSingleAttributeRead(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		_, w := buildWindow(t, rank, 2)
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		if err := h.WriteAttribute("s", w, "all", 0, 0); err != nil {
			return err
		}
		// Zero just the pressure, then read only pressure back.
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] = 0
			}
		})
		if err := h.ReadAttribute("s", w, "pressure"); err != nil {
			return err
		}
		return checkRestored(rank, w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadMissingFileFails(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(1, func(ctx mpi.Ctx) error {
		_, w := buildWindow(t, 0, 1)
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		if err := h.ReadAttribute("absent", w, "all"); err == nil {
			return fmt.Errorf("missing file accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartNeedsSameProcessCount(t *testing.T) {
	fs := rt.NewMemFS()
	// Write with 2 ranks.
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		_, w := buildWindow(t, ctx.Comm().Rank(), 2)
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		return h.WriteAttribute("s", w, "all", 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Restart with 3 ranks: rank 2's file is missing.
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(3, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		_, w := buildWindow(t, rank, 2)
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		err := h.ReadAttribute("s", w, "all")
		if rank == 2 && err == nil {
			return fmt.Errorf("rank 2 restart should fail")
		}
		if rank < 2 && err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(1, func(ctx mpi.Ctx) error {
		_, w := buildWindow(t, 0, 1)
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: true})
		if err := h.WriteAttribute("s", w, "all", 0, 0); err != nil {
			return err
		}
		if err := h.Close(); err != nil {
			return err
		}
		if err := h.Close(); err != nil { // idempotent
			return err
		}
		if err := h.WriteAttribute("s2", w, "all", 0, 0); err == nil {
			return fmt.Errorf("write after close accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModuleIntegration(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		rc, w := buildWindow(t, ctx.Comm().Rank(), 2)
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: true})
		if err := rc.LoadModule(h.Module(), "RochdfIO"); err != nil {
			return err
		}
		svc, err := roccom.LoadedIO(rc, "RochdfIO")
		if err != nil {
			return err
		}
		if err := svc.WriteAttribute("m", w, "all", 0.1, 10); err != nil {
			return err
		}
		if err := svc.Sync(); err != nil {
			return err
		}
		return rc.UnloadModule("RochdfIO")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlapOnSimPlatform is the paper's core T-Rochdf claim: on a
// simulated platform the visible write time of T-Rochdf is tiny compared
// to non-threaded Rochdf writing the same data, while both eventually put
// the same bytes on disk.
func TestOverlapOnSimPlatform(t *testing.T) {
	run := func(threaded bool) (visible, total float64, bytes int64) {
		plat := cluster.Turing()
		plat.NoiseFrac = 0
		w := cluster.NewWorld(plat, 11)
		var vis float64
		err := w.Run(4, func(ctx mpi.Ctx) error {
			_, win := buildWindow(t, ctx.Comm().Rank(), 4)
			h := New(ctx, Config{
				Profile:  hdf.HDF4Profile(),
				Threaded: threaded,
				BufferBW: plat.MemcpyBW,
			})
			for snap := 0; snap < 3; snap++ {
				if err := h.WriteAttribute(fmt.Sprintf("snap%02d", snap), win, "all", 0, snap); err != nil {
					return err
				}
				// Computation phase between snapshots.
				ctx.Clock().Compute(2.0)
			}
			if err := h.Sync(); err != nil {
				return err
			}
			if ctx.Comm().Rank() == 0 {
				vis = h.Metrics().VisibleWrite
			}
			return h.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return vis, w.VirtualTime(), w.FSModel().BytesWritten()
	}
	visPlain, totalPlain, bytesPlain := run(false)
	visThr, totalThr, bytesThr := run(true)
	if visThr > visPlain/10 {
		t.Fatalf("T-Rochdf visible %.4fs vs Rochdf %.4fs; want >=10x reduction", visThr, visPlain)
	}
	if bytesThr != bytesPlain {
		t.Fatalf("bytes written differ: %d vs %d", bytesThr, bytesPlain)
	}
	if totalThr >= totalPlain {
		t.Fatalf("total time with overlap %.3fs should beat synchronous %.3fs", totalThr, totalPlain)
	}
}

// TestThreadedBlocksAtNextSnapshot checks the bounded-memory rule: the
// main thread must wait for the previous snapshot before buffering the
// next one, so with zero compute between snapshots the visible time of the
// second write includes the first write's disk time.
func TestThreadedBlocksAtNextSnapshot(t *testing.T) {
	plat := cluster.Turing()
	plat.NoiseFrac = 0
	w := cluster.NewWorld(plat, 3)
	err := w.Run(1, func(ctx mpi.Ctx) error {
		_, win := buildWindow(t, 0, 4)
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: true, BufferBW: plat.MemcpyBW})
		t0 := ctx.Clock().Now()
		if err := h.WriteAttribute("a", win, "all", 0, 0); err != nil {
			return err
		}
		first := ctx.Clock().Now() - t0
		t1 := ctx.Clock().Now()
		if err := h.WriteAttribute("b", win, "all", 0, 1); err != nil {
			return err
		}
		second := ctx.Clock().Now() - t1
		if second < 5*first {
			return fmt.Errorf("second write (%.5fs) should have blocked on the first's disk I/O (first %.5fs)", second, first)
		}
		return h.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileNamesContainRank(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		_, w := buildWindow(t, ctx.Comm().Rank(), 1)
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		return h.WriteAttribute("base", w, "all", 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List("base")
	if len(names) != 3 {
		t.Fatalf("files: %v", names)
	}
	for i, n := range names {
		if !strings.Contains(n, fmt.Sprintf("_p%05d", i)) {
			t.Fatalf("file %q lacks rank suffix", n)
		}
	}
}

// TestRanksShareDirectories restarts three ranks' committed files on two
// ranks through PanesForRestart, whose deal of the panes makes both plan
// from the middle file: each file's directory is read once between them —
// the middle one by one rank and sent to the other — and every pane
// restores bit-exact. With that directory damaged, the rank that reads it
// fails its pin and sends the failure, so neither rank waits for it, and
// neither plans from it: both report the restart incomplete.
func TestRanksShareDirectories(t *testing.T) {
	const writers, readers = 3, 2
	fs := rt.NewMemFS()
	if err := mpi.NewChanWorld(fs, 1).Run(writers, func(ctx mpi.Ctx) error {
		_, w := buildWindow(t, ctx.Comm().Rank(), 2)
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		if err := h.WriteAttribute("s", w, "all", 0, 0); err != nil {
			return err
		}
		if err := h.Sync(); err != nil {
			return err
		}
		return h.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var dirs int64
	for r := 0; r < writers; r++ {
		d, err := hdf.ReadRawDir(fs, catalog.RankFile("s", r))
		if err != nil {
			t.Fatal(err)
		}
		dirs += int64(len(d.Bytes))
	}

	restart := func(reg *metrics.Registry) []error {
		errs := make([]error, readers)
		if err := mpi.NewChanWorld(fs, 1).Run(readers, func(ctx mpi.Ctx) error {
			rank := ctx.Comm().Rank()
			h := New(ctx, Config{Profile: hdf.NullProfile(), Metrics: reg})
			defer h.Close()
			ids, err := h.PanesForRestart("s", "fluid")
			if err != nil {
				return err
			}
			w, err := roccom.New().NewWindow("fluid")
			if err != nil {
				return err
			}
			w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
			w.NewAttribute(roccom.AttrSpec{Name: "velocity", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 3})
			if errs[rank] = h.ReadPanes("s", w, "all", ids); errs[rank] != nil {
				return nil
			}
			for _, id := range ids {
				p, ok := w.Pane(id)
				if !ok {
					return fmt.Errorf("rank %d: pane %d not restored", rank, id)
				}
				pr, _ := p.Array("pressure")
				for i, v := range pr.F64 {
					if want := float64(id/100*1000+id) + float64(i)*0.01; v != want {
						return fmt.Errorf("rank %d pane %d pressure[%d] = %v, want %v", rank, id, i, v, want)
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return errs
	}

	reg := metrics.New()
	for _, err := range restart(reg) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Counters["rochdf.restart.dir_bytes_read"]; got != dirs {
		t.Errorf("the ranks read %d directory bytes; the %d files' directories are %d", got, writers, dirs)
	}

	mid := catalog.RankFile("s", 1)
	img, err := hdf.ReadFile(fs, mid)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x40 // the last byte of its directory
	if err := hdf.PublishFile(fs, mid, img); err != nil {
		t.Fatal(err)
	}
	for rank, err := range restart(metrics.New()) {
		if !errors.Is(err, snapshot.ErrIncompleteRestart) {
			t.Errorf("rank %d: restart over a damaged shared directory: %v, want ErrIncompleteRestart", rank, err)
		}
	}
}
