package mpi_test

import (
	"fmt"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// quiet is Frost without OS noise, so virtual times compare exactly.
func quiet() cluster.Platform {
	p := cluster.Frost()
	p.NoiseFrac = 0
	return p
}

// TestGatherSend pins Send's contract on both backends (the goroutine world
// and the simulated one): the payload is the segments concatenated; changing
// every segment after Send returns leaves the delivered bytes alone (the
// one gathering copy — TestSendBufferReusable, for many segments); no
// segments and a nil one deliver an empty payload, which the Rocpanda
// server's empty control messages rely on. On the simulated world a
// two-segment send also costs exactly what its concatenation does.
func TestGatherSend(t *testing.T) {
	worlds := map[string]func() mpi.World{
		"chan": func() mpi.World { return mpi.NewChanWorld(rt.NewMemFS(), 1) },
		"sim":  func() mpi.World { return cluster.NewWorld(quiet(), 1) },
	}
	for name, world := range worlds {
		t.Run(name, func(t *testing.T) {
			err := world().Run(2, func(ctx mpi.Ctx) error {
				c := ctx.Comm()
				if c.Rank() == 0 {
					segs := [][]byte{[]byte("head-"), nil, []byte("body"), {}, []byte("-tail")}
					c.Send(1, 1, segs...)
					for _, s := range segs {
						copy(s, "XXXXXXXX")
					}
					c.Send(1, 2)
					c.Send(1, 3, nil)
					return nil
				}
				if got, _ := c.Recv(0, 1); string(got) != "head-body-tail" {
					return fmt.Errorf("delivered %q, want the segments concatenated before they changed", got)
				}
				for _, tag := range []int{2, 3} {
					if got, st := c.Recv(0, tag); len(got) != 0 || st.Size != 0 {
						return fmt.Errorf("tag %d delivered %q, want an empty payload", tag, got)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	// Virtual time: the sender's visible cost and the arrival, across nodes.
	costs := func(segs ...[]byte) (sent, arrived float64) {
		w := cluster.NewWorld(quiet(), 1).WithRanksPerNode(1)
		err := w.Run(2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 0 {
				c.Send(1, 0, segs...)
				sent = ctx.Clock().Now()
			} else {
				c.Recv(0, 0)
				arrived = ctx.Clock().Now()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sent, arrived
	}
	a, b := make([]byte, 3<<20), make([]byte, 1<<20)
	s2, a2 := costs(a, b)
	s1, a1 := costs(append(a, b...))
	if s2 != s1 || a2 != a1 || a1 <= 0 {
		t.Fatalf("two segments: sent %v, arrived %v; their concatenation: sent %v, arrived %v", s2, a2, s1, a1)
	}
}
