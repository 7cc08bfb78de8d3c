package rocman

import (
	"fmt"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/stats"
)

// TestMigrationTransparentToIO is the paper's dynamic-load-balancing
// claim: a pane migrates between compute processors mid-run and the next
// collective write captures it from its new owner, with the snapshot
// contents identical to the no-migration run.
func TestMigrationTransparentToIO(t *testing.T) {
	run := func(migrate bool) map[string]string {
		fs := rt.NewMemFS()
		world := mpi.NewChanWorld(fs, 1)
		err := world.Run(4, func(ctx mpi.Ctx) error {
			cl, err := rocpanda.Init(ctx, rocpanda.Config{
				NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true,
			})
			if err != nil {
				return err
			}
			if cl == nil {
				return nil
			}
			comm := cl.Comm()
			rc := roccom.New()
			w, _ := rc.NewWindow("fluid")
			w.NewAttribute(roccom.AttrSpec{Name: "p", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
			// Rank 0 owns panes 1,2; ranks 1,2 own 3 and 4.
			blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
				RInner: 0.1, ROuter: 0.3, Length: 1,
				BR: 1, BT: 4, BZ: 1, NodesPerBlock: 50, Spread: 0.2,
			}, 1, stats.NewRNG(3))
			if err != nil {
				return err
			}
			mine := map[int][]int{0: {0, 1}, 1: {2}, 2: {3}}[comm.Rank()]
			for _, bi := range mine {
				p, err := w.RegisterPane(blocks[bi].ID, blocks[bi])
				if err != nil {
					return err
				}
				arr, _ := p.Array("p")
				for i := range arr.F64 {
					arr.F64[i] = float64(blocks[bi].ID)*100 + float64(i)
				}
			}
			if migrate {
				// Move pane 2 from rank 0 to rank 1 mid-run.
				if err := MigratePane(comm, w, 2, 0, 1); err != nil {
					return err
				}
				if comm.Rank() == 0 {
					if _, ok := w.Pane(2); ok {
						return fmt.Errorf("pane 2 still on rank 0")
					}
				}
				if comm.Rank() == 1 {
					p, ok := w.Pane(2)
					if !ok {
						return fmt.Errorf("pane 2 missing on rank 1")
					}
					arr, _ := p.Array("p")
					if arr.F64[3] != 203 {
						return fmt.Errorf("migrated data wrong: %v", arr.F64[3])
					}
				}
			}
			if err := cl.WriteAttribute("m/s0", w, "all", 0, 0); err != nil {
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
		names := listRHDF(fs, "m/")
		out := map[string]string{}
		for _, name := range names {
			r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range r.Datasets() {
				if d.Name == "_meta" {
					continue
				}
				raw, _ := r.ReadData(d)
				out[d.Name] = string(raw)
			}
			r.Close()
		}
		return out
	}
	plain := run(false)
	migrated := run(true)
	if len(plain) == 0 || len(plain) != len(migrated) {
		t.Fatalf("dataset counts differ: %d vs %d", len(plain), len(migrated))
	}
	for name, v := range plain {
		if migrated[name] != v {
			t.Fatalf("dataset %s differs after migration", name)
		}
	}
}

func TestMigrateErrors(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		c := ctx.Comm()
		rc := roccom.New()
		w, _ := rc.NewWindow("fluid")
		w.NewAttribute(roccom.AttrSpec{Name: "p", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		// Migrating a pane the source does not own fails on the source;
		// self-migration is a no-op everywhere.
		if err := MigratePane(c, w, 9, 1, 1); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := MigratePane(c, w, 9, 1, 0); err == nil {
				return fmt.Errorf("missing pane accepted")
			}
			// Unblock the receiver with a real pane.
			blocks, _ := mesh.GenCylinder(mesh.CylinderSpec{
				RInner: 0.1, ROuter: 0.2, Length: 0.5,
				BR: 1, BT: 1, BZ: 1, NodesPerBlock: 30,
			}, 9, stats.NewRNG(1))
			p, _ := w.RegisterPane(9, blocks[0])
			_ = p
			if err := MigratePane(c, w, 9, 1, 0); err != nil {
				return err
			}
			return nil
		}
		// rank 0: receive the (eventually successful) migration.
		if err := MigratePane(c, w, 9, 1, 0); err != nil {
			return err
		}
		if _, ok := w.Pane(9); !ok {
			return fmt.Errorf("pane 9 not received")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceEvensLoad(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		c := ctx.Comm()
		rc := roccom.New()
		w, _ := rc.NewWindow("fluid")
		w.NewAttribute(roccom.AttrSpec{Name: "p", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		// Deliberately skewed: rank 0 owns everything.
		if c.Rank() == 0 {
			blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
				RInner: 0.1, ROuter: 0.3, Length: 1,
				BR: 1, BT: 6, BZ: 1, NodesPerBlock: 60,
			}, 1, stats.NewRNG(4))
			if err != nil {
				return err
			}
			for _, b := range blocks {
				p, _ := w.RegisterPane(b.ID, b)
				arr, _ := p.Array("p")
				for i := range arr.F64 {
					arr.F64[i] = float64(b.ID) + float64(i)*0.5
				}
			}
		}
		countNodes := func() (n int) {
			w.EachPane(func(p *roccom.Pane) { n += p.Block.NumNodes() })
			return n
		}
		// Rank 0 holds every node, so the largest count is the total.
		total := int(c.AllreduceMax(float64(countNodes())))
		moves, err := Rebalance(c, w, 10)
		if err != nil {
			return err
		}
		if moves == 0 {
			return fmt.Errorf("no moves planned for a fully skewed load")
		}
		nodes := countNodes()
		mean := total / 3
		if nodes > 2*mean {
			return fmt.Errorf("rank %d still holds %d of %d nodes after rebalance", c.Rank(), nodes, total)
		}
		// Migrated data intact.
		var bad bool
		w.EachPane(func(p *roccom.Pane) {
			arr, _ := p.Array("p")
			for i := range arr.F64 {
				if arr.F64[i] != float64(p.ID)+float64(i)*0.5 {
					bad = true
				}
			}
		})
		if bad {
			return fmt.Errorf("pane data corrupted by migration")
		}
		// A second rebalance from a balanced state is a no-op.
		moves2, err := Rebalance(c, w, 10)
		if err != nil {
			return err
		}
		if moves2 > moves {
			return fmt.Errorf("rebalance did not converge: %d then %d moves", moves, moves2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceEveryInRun(t *testing.T) {
	cfg := baseCfg(IORocpanda)
	cfg.FluidOnly = true
	cfg.RebalanceEvery = 4
	rep, _ := runReal(t, 4, cfg)
	if rep == nil || rep.Steps != 12 {
		t.Fatalf("report %+v", rep)
	}
	// Rebalancing without FluidOnly must be rejected.
	bad := baseCfg(IORochdf)
	bad.RebalanceEvery = 2
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	if err := world.Run(2, func(ctx mpi.Ctx) error {
		if _, err := Run(ctx, bad); err == nil {
			return fmt.Errorf("rebalance without FluidOnly accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
