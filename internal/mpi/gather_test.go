package mpi_test

import (
	"fmt"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// TestGatherBackToBack pins the per-source match in Gather: two gathers
// in a row, where one rank has sent both of its contributions before
// another has sent its first. Receiving from any source let the first
// gather take the fast rank's second payload, overwrite that rank's slot
// and leave the slow rank's slot empty. The ordering is forced with
// messages, so it holds on the goroutine world and on the simulated one.
func TestGatherBackToBack(t *testing.T) {
	const n = 4
	const tagGo = 9
	worlds := map[string]func() mpi.World{
		"chan": func() mpi.World { return mpi.NewChanWorld(rt.NewMemFS(), 1) },
		"sim":  func() mpi.World { return cluster.NewWorld(cluster.Turing(), 1) },
	}
	for name, newWorld := range worlds {
		for _, root := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/root%d", name, root), func(t *testing.T) {
				fast, slow := (root+1)%n, (root+2)%n
				payload := func(call, rank int) []byte {
					return []byte(fmt.Sprintf("call %d rank %d", call, rank))
				}
				err := newWorld().Run(n, func(ctx mpi.Ctx) error {
					c := ctx.Comm()
					if c.Rank() == slow {
						c.Recv(fast, tagGo)
					}
					for call := 0; call < 2; call++ {
						got := c.Gather(root, payload(call, c.Rank()))
						if c.Rank() != root {
							continue
						}
						for r := 0; r < n; r++ {
							if want := payload(call, r); string(got[r]) != string(want) {
								return fmt.Errorf("gather %d slot %d = %q, want %q", call, r, got[r], want)
							}
						}
					}
					if c.Rank() == fast {
						c.Send(slow, tagGo, nil)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
