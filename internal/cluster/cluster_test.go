package cluster

import (
	"fmt"
	"testing"

	"genxio/internal/fssim"
	"genxio/internal/mpi"
	"genxio/internal/rt"
	"genxio/internal/sim"
)

// quiet returns a Frost-like platform with noise disabled, for timing
// tests that need exact arithmetic.
func quiet() Platform {
	p := Frost()
	p.NoiseFrac = 0
	p.SendOverheadPerRank = 0
	return p
}

func TestVirtualTimeAdvances(t *testing.T) {
	w := NewWorld(quiet(), 1)
	err := w.Run(4, func(ctx mpi.Ctx) error {
		ctx.Clock().Compute(5)
		ctx.Comm().Barrier()
		ctx.Clock().Compute(2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vt := w.VirtualTime()
	if vt < 7 || vt > 7.1 {
		t.Fatalf("virtual time %v, want ~7", vt)
	}
}

func TestSendRecvOnSim(t *testing.T) {
	w := NewWorld(quiet(), 1)
	err := w.Run(2, func(ctx mpi.Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("data"))
		} else {
			data, st := c.Recv(0, 3)
			if string(data) != "data" || st.Source != 0 {
				return fmt.Errorf("recv %q %+v", data, st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	// With 2 ranks per node, ranks 0,1 share a node; 0,2 do not. The
	// platform's MemBW > LinkBW, and inter-node also pays latency and
	// two NIC passes.
	const size = 8 << 20
	measure := func(dst int) float64 {
		p := quiet()
		p.MemBW = 2 * p.LinkBW
		w := NewWorld(p, 1).WithRanksPerNode(2)
		var visible float64
		err := w.Run(4, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			switch c.Rank() {
			case 0:
				t0 := ctx.Clock().Now()
				c.Send(dst, 0, make([]byte, size))
				visible = ctx.Clock().Now() - t0
			case dst:
				c.Recv(0, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return visible
	}
	intra := measure(1)
	inter := measure(2)
	if intra >= inter {
		t.Fatalf("intra-node send %.4fs not cheaper than inter-node %.4fs", intra, inter)
	}
}

func TestServerNICSerializesIngest(t *testing.T) {
	// Many senders on distinct nodes target one receiver: the receiver's
	// NIC must serialize the transfers, so total receive time scales
	// with the number of senders even though sends overlap.
	const size = 4 << 20
	recvAll := func(nsenders int) float64 {
		w := NewWorld(quiet(), 1).WithRanksPerNode(1) // every rank its own node
		var last float64
		err := w.Run(nsenders+1, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 0 {
				for i := 0; i < nsenders; i++ {
					c.Recv(mpi.AnySource, 0)
				}
				last = ctx.Clock().Now()
				return nil
			}
			c.Send(0, 0, make([]byte, size))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return last
	}
	t2 := recvAll(2)
	t8 := recvAll(8)
	// One pipelined source-side stage plus 2 (resp. 8) serialized
	// destination-NIC stages: expect a ratio of (1+8)/(1+2) = 3.
	if t8 < 2.7*t2 {
		t.Fatalf("ingest of 8 senders (%.4f) should be ~3x of 2 senders (%.4f)", t8, t2)
	}
}

func TestNoiseHitsOnlySaturatedNodes(t *testing.T) {
	// Fixed work per rank; 16 ranks/node vs 15 ranks/node on the Frost
	// platform. The saturated configuration must be measurably slower,
	// and the 15-per-node configuration must be essentially noise-free.
	const work = 10.0
	run := func(rpn, n int) float64 {
		p := Frost()
		w := NewWorld(p, 42).WithRanksPerNode(rpn)
		err := w.Run(n, func(ctx mpi.Ctx) error {
			for step := 0; step < 5; step++ {
				ctx.Clock().Compute(work / 5)
				ctx.Comm().Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.VirtualTime()
	}
	t16 := run(16, 64) // 4 nodes, saturated
	t15 := run(15, 60) // 4 nodes, one idle CPU each
	if t15 > work*1.02 {
		t.Fatalf("15/node config took %.3f, want ~%.1f (noise should be absorbed)", t15, work)
	}
	if t16 < work*1.02 {
		t.Fatalf("16/node config took %.3f, want measurably more than %.1f", t16, work)
	}
}

func TestNoisePenaltyGrowsWithScale(t *testing.T) {
	run := func(n int) float64 {
		w := NewWorld(Frost(), 7).WithRanksPerNode(16)
		err := w.Run(n, func(ctx mpi.Ctx) error {
			for step := 0; step < 10; step++ {
				ctx.Clock().Compute(1)
				ctx.Comm().Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.VirtualTime()
	}
	small := run(16)  // 1 node
	large := run(256) // 16 nodes
	if large <= small {
		t.Fatalf("barrier-amplified noise should grow with scale: %d nodes %.3f vs 1 node %.3f",
			16, large, small)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		w := NewWorld(Turing(), 99)
		err := w.Run(8, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			for i := 0; i < 3; i++ {
				ctx.Clock().Compute(0.5)
				if max := c.AllreduceMax(float64(c.Rank())); max != 7 {
					return fmt.Errorf("max %v", max)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.VirtualTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
	w := NewWorld(Turing(), 100)
	w.Run(8, func(ctx mpi.Ctx) error {
		ctx.Clock().Compute(0.5)
		ctx.Comm().Barrier()
		ctx.Clock().Compute(0.5)
		ctx.Comm().Barrier()
		ctx.Clock().Compute(0.5)
		ctx.Comm().Barrier()
		return nil
	})
	if w.VirtualTime() == a {
		t.Log("different seed coincidentally equal (unlikely but not fatal)")
	}
}

func TestSimFSChargesTime(t *testing.T) {
	w := NewWorld(quiet(), 1)
	err := w.Run(1, func(ctx mpi.Ctx) error {
		f, err := ctx.FS().Create("big")
		if err != nil {
			return err
		}
		t0 := ctx.Clock().Now()
		f.WriteAt(make([]byte, 32<<20), 0)
		f.Close()
		if el := ctx.Clock().Now() - t0; el <= 0.05 {
			return fmt.Errorf("32MB write charged only %.4fs", el)
		}
		// And the data is really there.
		g, err := ctx.FS().Open("big")
		if err != nil {
			return err
		}
		sz, _ := g.Size()
		if sz != 32<<20 {
			return fmt.Errorf("size %d", sz)
		}
		return g.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.FSModel().BytesWritten() != 32<<20 {
		t.Fatalf("accounting %d", w.FSModel().BytesWritten())
	}
}

func TestSpawnAndQueue(t *testing.T) {
	// A rank offloads writes to a background task via a queue: the rank's
	// visible time must not include the background write time.
	w := NewWorld(quiet(), 1)
	var visible, total float64
	err := w.Run(1, func(ctx mpi.Ctx) error {
		q := ctx.NewQueue(4)
		done := ctx.NewQueue(4)
		ctx.Spawn("io", func(tc rt.TaskCtx) {
			for {
				v, ok := q.Get(tc.Clock())
				if !ok {
					return
				}
				f, err := tc.FS().Create(v.(string))
				if err != nil {
					t.Error(err)
					return
				}
				f.WriteAt(make([]byte, 16<<20), 0)
				f.Close()
				done.Put(tc.Clock(), nil)
			}
		})
		t0 := ctx.Clock().Now()
		q.Put(ctx.Clock(), "bg.dat")
		visible = ctx.Clock().Now() - t0
		ctx.Clock().Compute(1)
		// Wait for the background write before finishing.
		done.Get(ctx.Clock())
		q.Close()
		total = ctx.Clock().Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visible > 0.001 {
		t.Fatalf("enqueue cost %.5fs should be ~0", visible)
	}
	if total <= 0.05 {
		t.Fatalf("total %.4fs should include the background write", total)
	}
}

func TestSplitOnSimWorld(t *testing.T) {
	// The Rocpanda init pattern on the simulated platform.
	w := NewWorld(quiet(), 3).WithRanksPerNode(4)
	err := w.Run(8, func(ctx mpi.Ctx) error {
		c := ctx.Comm()
		isServer := c.Rank()%4 == 0
		color := 0
		if isServer {
			color = 1
		}
		sub := c.Split(color, c.Rank())
		if isServer && sub.Size() != 2 {
			return fmt.Errorf("server comm size %d", sub.Size())
		}
		if !isServer && sub.Size() != 6 {
			return fmt.Errorf("client comm size %d", sub.Size())
		}
		sub.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorAndPanicPropagate(t *testing.T) {
	w := NewWorld(quiet(), 1)
	sentinel := fmt.Errorf("rank failure")
	err := w.Run(2, func(ctx mpi.Ctx) error {
		if ctx.Comm().Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	w2 := NewWorld(quiet(), 1)
	err = w2.Run(1, func(ctx mpi.Ctx) error {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

// TestDeadlockReported: a run whose blocked waits are all untimed is a
// deadlock. A timed receive expires only when nothing else can happen —
// never while its sender still computes — the earliest virtual deadline
// first, ties broken by rank, with the clock then reading at least the
// deadline.
func TestDeadlockReported(t *testing.T) {
	// expire is a timed receive from rank 0 that must expire at or after
	// its deadline.
	expire := func(ctx mpi.Ctx, timeout float64) error {
		deadline := ctx.Clock().Now() + timeout
		if _, _, err := ctx.Comm().RecvTimed(0, []int{0}, timeout); err != mpi.ErrTimedOut {
			return fmt.Errorf("rank %d: %v, want ErrTimedOut", ctx.Comm().Rank(), err)
		}
		if now := ctx.Clock().Now(); now < deadline {
			return fmt.Errorf("rank %d expired at %g, before its deadline %g", ctx.Comm().Rank(), now, deadline)
		}
		return nil
	}
	rows := []struct {
		name     string
		n        int
		main     func(ctx mpi.Ctx) error
		deadlock bool
	}{
		{"untimed-recv-never-sent", 2, func(ctx mpi.Ctx) error {
			if ctx.Comm().Rank() == 0 {
				ctx.Comm().Recv(1, 0) // never sent
			}
			return nil
		}, true},
		{"timed-recv-of-a-computing-sender", 2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 1 {
				ctx.Clock().Compute(5)
				c.Send(0, 0, []byte("late"))
				return nil
			}
			if data, _, err := c.RecvTimed(1, []int{0}, 1); err != nil || string(data) != "late" {
				return fmt.Errorf("received %q, %v", data, err)
			}
			return nil
		}, false},
		{"quiescent-expires-the-timed-recv", 2, func(ctx mpi.Ctx) error {
			if ctx.Comm().Rank() == 0 {
				ctx.Comm().Recv(1, 1)
				return nil
			}
			if err := expire(ctx, 3); err != nil {
				return err
			}
			ctx.Comm().Send(0, 1)
			return nil
		}, false},
		{"earliest-deadline-first-ties-by-rank", 4, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() > 0 {
				// Deadlines 2, 1, 2: rank 2 first, then rank 1 before rank 3.
				if err := expire(ctx, float64(1+c.Rank()%2)); err != nil {
					return err
				}
				c.Send(0, 1, []byte{byte(c.Rank())})
				return nil
			}
			var order []byte
			for range 3 {
				data, _ := c.Recv(mpi.AnySource, 1)
				order = append(order, data...)
			}
			if fmt.Sprint(order) != "[2 1 3]" {
				return fmt.Errorf("expired in rank order %v, want [2 1 3]", order)
			}
			return nil
		}, false},
		{"untimed-after-an-expiry", 2, func(ctx mpi.Ctx) error {
			if ctx.Comm().Rank() == 1 {
				if err := expire(ctx, 1); err != nil {
					return err
				}
			}
			ctx.Comm().Recv(1-ctx.Comm().Rank(), 0)
			return nil
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			err := NewWorld(quiet(), 1).Run(row.n, row.main)
			if _, ok := err.(*sim.DeadlockError); ok != row.deadlock || !ok && err != nil {
				t.Fatalf("err = %v, want deadlock %v", err, row.deadlock)
			}
		})
	}
}

func TestNodePlacementSim(t *testing.T) {
	w := NewWorld(quiet(), 1).WithRanksPerNode(3)
	err := w.Run(7, func(ctx mpi.Ctx) error {
		if want := ctx.Comm().Rank() / 3; ctx.Node() != want {
			return fmt.Errorf("rank %d on node %d, want %d", ctx.Comm().Rank(), ctx.Node(), want)
		}
		if ctx.ProcsPerNode() != 3 {
			return fmt.Errorf("ppn %d", ctx.ProcsPerNode())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPFSOnFrostScalesBeyondNFS(t *testing.T) {
	// Sanity: writing the same volume from 8 ranks finishes much faster
	// on Frost (GPFS) than on Turing (NFS).
	const size = 8 << 20
	run := func(p Platform) float64 {
		w := NewWorld(p, 5)
		p2 := w
		err := p2.Run(8, func(ctx mpi.Ctx) error {
			f, err := ctx.FS().Create(fmt.Sprintf("f%d", ctx.Comm().Rank()))
			if err != nil {
				return err
			}
			f.WriteAt(make([]byte, size), 0)
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.VirtualTime()
	}
	turing := run(Turing())
	frost := run(Frost())
	if frost > turing/2 {
		t.Fatalf("frost %.3fs vs turing %.3fs", frost, turing)
	}
}

func TestFSVariantsUsable(t *testing.T) {
	// Direct use of fssim models through the world, exercising List/Stat
	// via the simulated FS view.
	w := NewWorld(quiet(), 1)
	err := w.Run(2, func(ctx mpi.Ctx) error {
		c := ctx.Comm()
		name := fmt.Sprintf("snap/f%d", c.Rank())
		f, err := ctx.FS().Create(name)
		if err != nil {
			return err
		}
		f.WriteAt([]byte{1, 2, 3}, 0)
		f.Close()
		c.Barrier()
		names, err := ctx.FS().List("snap/")
		if err != nil {
			return err
		}
		if len(names) != 2 {
			return fmt.Errorf("List = %v", names)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var _ fssim.Model = w.FSModel()
}

func TestBurstNoiseOnlyOnSaturatedNodes(t *testing.T) {
	// Direct check of the burst model: a saturated node accumulates
	// burst penalties over many steps; a node with an idle CPU never
	// does, whatever the rates.
	run := func(rpn int) float64 {
		p := Frost()
		p.NoiseFrac = 0 // isolate bursts
		w := NewWorld(p, 123).WithRanksPerNode(rpn)
		err := w.Run(rpn*4, func(ctx mpi.Ctx) error {
			for s := 0; s < 50; s++ {
				ctx.Clock().Compute(0.2)
				ctx.Comm().Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.VirtualTime()
	}
	saturated := run(16)
	idle := run(15)
	if idle > 10.15 { // ~10s work + barrier traffic, no bursts
		t.Fatalf("idle-CPU config took %.3f, want ~10 (no bursts)", idle)
	}
	if saturated < idle+0.08 { // expected burst penalty ~0.17s at this rate
		t.Fatalf("saturated config took %.3f, want clearly above idle %.3f", saturated, idle)
	}
}
