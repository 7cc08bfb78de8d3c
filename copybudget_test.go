package genxio_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rochdf"
	"genxio/internal/rt"
)

// TestCopyBudget holds the data path to its necessary copies (DESIGN.md
// §4, "Copy budget"): four clients write four generations of two windows of
// large panes, sync, and restart the newest, and the Go heap allocations
// over that section, per state byte written or restored, stay under a
// ceiling. Rocpanda (two servers) needs wire + file per written byte and
// disk read + wire + window per restored one, 2.2 B a byte over this 4:1
// mix; it allocated 7.8 before panes were packed by view, gathered once in
// Send, decoded by alias and stored in a MemFS that never recopies.
// T-Rochdf, with no wire, needs its buffer copy + file and read + window,
// 2.0; it allocated 3.45.
func TestCopyBudget(t *testing.T) {
	ceilings := map[string]float64{"rocpanda-inline": 4, "trochdf": 3}
	for _, mod := range ioModules(nil) {
		ceiling, ok := ceilings[mod.name]
		if !ok {
			continue
		}
		t.Run(mod.name, func(t *testing.T) {
			got := allocPerStateByte(t, mod)
			t.Logf("%.2f bytes allocated per state byte (ceiling %.1f)", got, ceiling)
			if got > ceiling {
				t.Errorf("%s allocated %.2f bytes per state byte, ceiling %.1f", mod.name, got, ceiling)
			}
		})
	}
}

// allocPerStateByte runs the budget's write + restart under mod and returns
// TotalAlloc over it per state byte moved; the restored state must equal
// the source.
func allocPerStateByte(t *testing.T, mod ioModule) float64 {
	const clients, gens = 4, 4
	var state atomic.Int64
	var before, after runtime.MemStats
	err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(clients+mod.servers, func(ctx mpi.Ctx) error {
		svc, comm, closeSvc, err := mod.open(ctx)
		if err != nil || svc == nil {
			return err
		}
		ws := moduleWindows(t, comm.Rank(), 8000)
		var targets []*roccom.Window
		for _, w := range ws {
			w.EachPane(func(p *roccom.Pane) {
				sets, _ := roccom.PaneIOSets(w, p, "all")
				for _, s := range sets {
					state.Add(int64(len(s.Data)))
				}
			})
			targets = append(targets, emptyModuleWindow(t, w.Name))
		}
		comm.Barrier()
		if comm.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		comm.Barrier()
		for g := 0; g < gens; g++ {
			for _, w := range ws {
				if err := svc.WriteAttribute(fmt.Sprintf("b/g%d", g), w, "all", float64(g), g); err != nil {
					return err
				}
			}
		}
		if err := svc.Sync(); err != nil {
			return err
		}
		for i, w := range ws {
			if err := svc.ReadPanes(fmt.Sprintf("b/g%d", gens-1), targets[i], "all", w.PaneIDs()); err != nil {
				return err
			}
		}
		comm.Barrier()
		if comm.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		for i, w := range ws {
			if got, want := digestOf(windowLines(t, targets[i])), digestOf(windowLines(t, w)); got != want {
				return fmt.Errorf("client %d restored %s of %s, wrote %s", comm.Rank(), got, w.Name, want)
			}
		}
		return closeSvc()
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(state.Load()*(gens+1))
}

// TestTRochdfOwnsItsBufferedBlock is the view rule's one holder: T-Rochdf
// keeps a block past WriteAttribute, so it must copy the panes' views. The
// application overwrites every array the moment the call returns, before
// the background write has run — on the simulated platform that ordering
// is exact, since the writer only runs when the rank waits — and the
// restart must still return the bytes as they were at the call.
func TestTRochdfOwnsItsBufferedBlock(t *testing.T) {
	err := cluster.NewWorld(cluster.Turing(), 1).Run(2, func(ctx mpi.Ctx) error {
		h := rochdf.New(ctx, rochdf.Config{Profile: hdf.NullProfile(), Threaded: true})
		defer h.Close() // stops the writer on every path, so a failure reports as itself
		var want []string
		ids := make(map[string][]int)
		for _, w := range moduleWindows(t, ctx.Comm().Rank(), 80) {
			want = append(want, windowLines(t, w)...)
			ids[w.Name] = w.PaneIDs()
			if err := h.WriteAttribute("v/g0", w, "all", 0.5, 7); err != nil {
				return err
			}
			w.EachPane(func(p *roccom.Pane) { // the next step's state
				clear(p.Block.Coords)
				for _, attr := range []string{"pressure", "velocity"} {
					a, _ := p.Array(attr)
					for k := range a.F64 {
						a.F64[k] = -7
					}
				}
			})
		}
		if err := h.Sync(); err != nil {
			return err
		}
		var got []string
		for _, name := range moduleWindowNames {
			target := emptyModuleWindow(t, name)
			if err := h.ReadPanes("v/g0", target, "all", ids[name]); err != nil {
				return err
			}
			got = append(got, windowLines(t, target)...)
		}
		if digestOf(got) != digestOf(want) {
			return fmt.Errorf("rank %d restored %s, the windows held %s at the write", ctx.Comm().Rank(), digestOf(got), digestOf(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
