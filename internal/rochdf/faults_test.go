package rochdf

// Fault-injection tests: disk-full and short-write errors injected via
// internal/faults must surface through both Rochdf variants. The baseline
// fails the faulting WriteAttribute directly; T-Rochdf's background thread
// hits the error asynchronously, so it must surface at the next snapshot's
// WriteAttribute (which drains the previous one) or at Sync.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

func TestThreadedDrainErrorSurfacesAtNextSnapshot(t *testing.T) {
	// The first write touching rank 0's s0 file fails (disk full). The
	// faulting snapshot's WriteAttribute must still return nil — the write
	// only buffers — and the error must surface when the next snapshot
	// blocks on the previous one's drain.
	plan := faults.NewFSPlan(1, faults.FSRule{
		Op: faults.OpWrite, PathPrefix: "tr/s0_p00000", Nth: 1, Msg: "disk full",
	})
	fs := faults.WrapFS(rt.NewMemFS(), plan)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(1, func(ctx mpi.Ctx) error {
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: true})
		defer h.Close()
		_, w := buildWindow(t, ctx.Comm().Rank(), 2)
		if err := h.WriteAttribute("tr/s0", w, "all", 0, 0); err != nil {
			return errors.New("faulting snapshot's write failed synchronously: " + err.Error())
		}
		err := h.WriteAttribute("tr/s1", w, "all", 1, 1)
		if err == nil {
			return errors.New("drain error never surfaced at next snapshot")
		}
		if !errors.Is(err, faults.ErrInjected) {
			return errors.New("unexpected error: " + err.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trips()) == 0 {
		t.Fatal("fault plan never tripped")
	}
}

func TestThreadedDrainErrorSurfacesAtSync(t *testing.T) {
	// Fault on the last snapshot before sync: no later WriteAttribute
	// drains it, so Sync is the barrier where the error must appear.
	plan := faults.NewFSPlan(1, faults.FSRule{
		Op: faults.OpWrite, PathPrefix: "ts/s1_p00000", Nth: 1, Msg: "disk full",
	})
	fs := faults.WrapFS(rt.NewMemFS(), plan)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(1, func(ctx mpi.Ctx) error {
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: true})
		defer h.Close()
		_, w := buildWindow(t, ctx.Comm().Rank(), 2)
		if err := h.WriteAttribute("ts/s0", w, "all", 0, 0); err != nil {
			return err
		}
		if err := h.WriteAttribute("ts/s1", w, "all", 1, 1); err != nil {
			return errors.New("healthy s0 drain reported an error: " + err.Error())
		}
		if err := h.Sync(); !errors.Is(err, faults.ErrInjected) {
			return errors.New("sync did not surface the drain error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnthreadedWriteFailsSynchronously(t *testing.T) {
	// The baseline variant writes inside write_attribute, so the injected
	// failure must come back from the faulting call itself.
	plan := faults.NewFSPlan(1, faults.FSRule{
		Op: faults.OpWrite, PathPrefix: "uw/", Nth: 1, Msg: "disk full",
	})
	fs := faults.WrapFS(rt.NewMemFS(), plan)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(1, func(ctx mpi.Ctx) error {
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		defer h.Close()
		_, w := buildWindow(t, ctx.Comm().Rank(), 2)
		if err := h.WriteAttribute("uw/s0", w, "all", 0, 0); !errors.Is(err, faults.ErrInjected) {
			return errors.New("synchronous write did not fail with the injected error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnthreadedWriteFailureRefusesCommit(t *testing.T) {
	// Rank 1's write_attribute fails and says so — but the generation is
	// missing that rank's panes, so the collective Sync must fail on both
	// ranks and write no manifest, exactly as a failed background write does.
	plan := faults.NewFSPlan(1, faults.FSRule{Op: faults.OpWrite, PathPrefix: "uw/s0_p00001", Nth: 3})
	mem := rt.NewMemFS()
	world := mpi.NewChanWorld(faults.WrapFS(mem, plan), 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		defer h.Close()
		_, w := buildWindow(t, rank, 2)
		werr := h.WriteAttribute("uw/s0", w, "all", 0, 0)
		if failed := errors.Is(werr, faults.ErrInjected); failed != (rank == 1) {
			return fmt.Errorf("rank %d: WriteAttribute = %v", rank, werr)
		}
		if err := h.Sync(); err == nil {
			return fmt.Errorf("rank %d: Sync committed a generation missing rank 1's panes", rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := snapshot.Load(mem, "uw/s0"); err == nil {
		t.Fatalf("manifest written over a failed write: %+v", m.Files)
	}
}

func TestCommittedReadIgnoresLaterWriteFailure(t *testing.T) {
	// g0 is committed; g1's background write then fails (disk full). A
	// restart of g0 needs no flush — its commit record exists because one
	// already landed it — so it restores g0 bit-exact, and the failure
	// stays for the next Sync to report.
	plan := faults.NewFSPlan(1, faults.FSRule{
		Op: faults.OpWrite, PathPrefix: "zz/g1_p00000", Nth: 1, Msg: "no space left on device",
	})
	fs := faults.WrapFS(rt.NewMemFS(), plan)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(1, func(ctx mpi.Ctx) error {
		h := New(ctx, Config{Profile: hdf.NullProfile(), Threaded: true})
		defer h.Close()
		_, w := buildWindow(t, 0, 2)
		if err := h.WriteAttribute("zz/g0", w, "all", 0, 0); err != nil {
			return err
		}
		if err := h.Sync(); err != nil {
			return err
		}
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			clear(pr.F64)
		})
		h.WriteAttribute("zz/g1", w, "all", 1, 1) // buffered; its write fails in the background
		if err := h.ReadAttribute("zz/g0", w, "all"); err != nil {
			return fmt.Errorf("restart of the committed g0: %w", err)
		}
		if err := checkRestored(0, w); err != nil {
			return err
		}
		if err := h.Sync(); !errors.Is(err, faults.ErrInjected) {
			return fmt.Errorf("sync after the failed write: %v, want the injected error", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trips()) == 0 {
		t.Fatal("fault plan never tripped")
	}
}

func TestCRCLessOwnFileIsIncomplete(t *testing.T) {
	// An uncommitted generation's rank file is read as the rank's own file
	// (ReadRequest.Own). Rewritten as no writer leaves it — a pane dataset's
	// directory entry without its CRC bit over a flipped payload byte — the
	// file is refused whole, so the restart reports ErrIncompleteRestart
	// instead of installing the damaged bytes.
	fs := rt.NewMemFS()
	err := mpi.NewChanWorld(fs, 1).Run(1, func(ctx mpi.Ctx) error {
		h := New(ctx, Config{Profile: hdf.NullProfile()})
		defer h.Close()
		_, w := buildWindow(t, 0, 2)
		if err := h.WriteAttribute("nc/s0", w, "all", 0, 0); err != nil {
			return err
		}
		if err := dropCRC(fs, catalog.RankFile("nc/s0", 0)); err != nil {
			return err
		}
		if err := h.ReadAttribute("nc/s0", w, "all"); !errors.Is(err, snapshot.ErrIncompleteRestart) {
			return fmt.Errorf("restart from the CRC-less file: %v, want ErrIncompleteRestart", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// dropCRC rewrites the RHDF file name with its first pane dataset's CRC bit
// (bit 1 of the entry's flags byte) cleared and the first byte of that
// dataset's payload flipped.
func dropCRC(fs rt.FS, name string) error {
	img, err := hdf.ReadFile(fs, name)
	if err != nil {
		return err
	}
	_, _, sets, err := hdf.ScanDir(fs, name)
	if err != nil {
		return err
	}
	for _, d := range sets {
		if off, length := d.Extent(); strings.HasPrefix(d.Name, "/fluid/") && length > 0 {
			dirOff := int(binary.LittleEndian.Uint64(img[8:]))
			at := dirOff + bytes.Index(img[dirOff:], hdf.AppendStr(nil, d.Name))
			img[at+2+len(d.Name)+1] &^= 2 // past the name and the type byte
			img[off] ^= 1
			return hdf.PublishFile(fs, name, img)
		}
	}
	return fmt.Errorf("%s holds no pane dataset", name)
}
