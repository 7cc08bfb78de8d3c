package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"genxio/internal/rt"
)

// runWorld runs main on n goroutine ranks and fails the test on error.
func runWorld(t *testing.T, n int, main func(Ctx) error) {
	t.Helper()
	w := NewChanWorld(rt.NewMemFS(), 1)
	if err := w.Run(n, main); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runWorld(t, 2, func(ctx Ctx) error {
		c := ctx.Comm()
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []byte("ping"))
		case 1:
			data, st := c.Recv(0, 7)
			if string(data) != "ping" {
				return fmt.Errorf("data = %q", data)
			}
			if st.Source != 0 || st.Tag != 7 || st.Size != 4 {
				return fmt.Errorf("status = %+v", st)
			}
		}
		return nil
	})
}

func TestSendBufferReusable(t *testing.T) {
	runWorld(t, 2, func(ctx Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			buf := []byte("aaaa")
			c.Send(1, 0, buf)
			copy(buf, "bbbb") // must not affect the message in flight
			c.Send(1, 0, buf)
		} else {
			first, _ := c.Recv(0, 0)
			second, _ := c.Recv(0, 0)
			if string(first) != "aaaa" || string(second) != "bbbb" {
				return fmt.Errorf("got %q, %q", first, second)
			}
		}
		return nil
	})
}

func TestPairwiseOrdering(t *testing.T) {
	const k = 100
	runWorld(t, 2, func(ctx Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				data, _ := c.Recv(0, 5)
				if data[0] != byte(i) {
					return fmt.Errorf("message %d arrived out of order: %d", i, data[0])
				}
			}
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runWorld(t, 4, func(ctx Ctx) error {
		c := ctx.Comm()
		if c.Rank() != 0 {
			c.Send(0, c.Rank()+10, []byte{byte(c.Rank())})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			data, st := c.Recv(AnySource, AnyTag)
			if int(data[0]) != st.Source || st.Tag != st.Source+10 {
				return fmt.Errorf("mismatched status %+v data %v", st, data)
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("sources = %v", seen)
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	runWorld(t, 2, func(ctx Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
		} else {
			// Receive tag 2 first even though tag 1 arrived earlier.
			data2, _ := c.Recv(0, 2)
			data1, _ := c.Recv(0, 1)
			if string(data2) != "two" || string(data1) != "one" {
				return fmt.Errorf("tag matching broken: %q %q", data1, data2)
			}
		}
		return nil
	})
}

func TestProbeThenRecv(t *testing.T) {
	runWorld(t, 2, func(ctx Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			c.Send(1, 9, make([]byte, 123))
		} else {
			st := c.Probe(AnySource, AnyTag)
			if st.Size != 123 || st.Source != 0 || st.Tag != 9 {
				return fmt.Errorf("probe status %+v", st)
			}
			data, _ := c.Recv(st.Source, st.Tag)
			if len(data) != 123 {
				return fmt.Errorf("recv after probe: %d bytes", len(data))
			}
		}
		return nil
	})
}

func TestIprobe(t *testing.T) {
	runWorld(t, 2, func(ctx Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			// Nothing pending yet.
			if _, ok := c.Iprobe(AnySource, AnyTag); ok {
				return fmt.Errorf("Iprobe matched on empty inbox")
			}
			c.Send(1, 0, []byte("go"))
			data, _ := c.Recv(1, 3)
			if string(data) != "done" {
				return fmt.Errorf("got %q", data)
			}
		} else {
			c.Recv(0, 0)
			c.Send(0, 3, []byte("done"))
		}
		return nil
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	phase := make(map[int]int)
	runWorld(t, n, func(ctx Ctx) error {
		c := ctx.Comm()
		for ph := 0; ph < 3; ph++ {
			mu.Lock()
			phase[c.Rank()] = ph
			// Every rank must be in the same or adjacent phase.
			for r, p := range phase {
				if p < ph-1 || p > ph+1 {
					mu.Unlock()
					return fmt.Errorf("rank %d at phase %d while rank %d at %d", c.Rank(), ph, r, p)
				}
			}
			mu.Unlock()
			c.Barrier()
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		runWorld(t, n, func(ctx Ctx) error {
			c := ctx.Comm()
			root := n / 2
			var data []byte
			if c.Rank() == root {
				data = []byte("the payload")
			}
			got := c.Bcast(root, data)
			if string(got) != "the payload" {
				return fmt.Errorf("n=%d rank=%d got %q", n, c.Rank(), got)
			}
			return nil
		})
	}
}

func TestGather(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		runWorld(t, n, func(ctx Ctx) error {
			c := ctx.Comm()
			root := 0
			mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
			got := c.Gather(root, mine)
			if c.Rank() != root {
				if got != nil {
					return fmt.Errorf("non-root got %v", got)
				}
				return nil
			}
			for r := 0; r < n; r++ {
				want := bytes.Repeat([]byte{byte(r)}, r+1)
				if !bytes.Equal(got[r], want) {
					return fmt.Errorf("gather[%d] = %v, want %v", r, got[r], want)
				}
			}
			return nil
		})
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 16} {
		runWorld(t, n, func(ctx Ctx) error {
			c := ctx.Comm()
			x := float64(c.Rank() + 1)
			if max := c.AllreduceMax(x); max != float64(n) {
				return fmt.Errorf("max=%v want %v", max, float64(n))
			}
			if min := c.AllreduceMin(x); min != 1 {
				return fmt.Errorf("min=%v", min)
			}
			return nil
		})
	}
}

func TestSplitClientsServers(t *testing.T) {
	// The Rocpanda pattern: world of 9 ranks, rank 0 a server, the rest
	// clients. Clients get a compact communicator, and traffic on the
	// child communicator does not leak into the parent.
	const n = 9
	runWorld(t, n, func(ctx Ctx) error {
		c := ctx.Comm()
		isServer := c.Rank() == 0
		color := 1
		if isServer {
			color = 2
		}
		sub := c.Split(color, c.Rank())
		if isServer {
			if sub.Size() != 1 || sub.Rank() != 0 {
				return fmt.Errorf("server sub comm %d/%d", sub.Rank(), sub.Size())
			}
			return nil
		}
		if sub.Size() != n-1 {
			return fmt.Errorf("client comm size %d", sub.Size())
		}
		if sub.Rank() != c.Rank()-1 {
			return fmt.Errorf("client rank %d from world %d", sub.Rank(), c.Rank())
		}
		if sub.Global() != c.Rank() {
			return fmt.Errorf("global %d != world rank %d", sub.Global(), c.Rank())
		}
		// Exercise the sub communicator.
		if max := sub.AllreduceMax(float64(sub.Rank())); max != float64(n-2) {
			return fmt.Errorf("client allreduce = %v", max)
		}
		sub.Barrier()
		return nil
	})
}

func TestSplitByKeyReorders(t *testing.T) {
	const n = 6
	runWorld(t, n, func(ctx Ctx) error {
		c := ctx.Comm()
		// Reverse ordering by key.
		sub := c.Split(0, n-c.Rank())
		wantRank := n - 1 - c.Rank()
		if sub.Rank() != wantRank {
			return fmt.Errorf("world %d got sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Rank 0 of sub is world rank n-1.
		var data []byte
		if sub.Rank() == 0 {
			data = binary.LittleEndian.AppendUint32(nil, uint32(c.Rank()))
		}
		got := binary.LittleEndian.Uint32(sub.Bcast(0, data))
		if got != n-1 {
			return fmt.Errorf("bcast from sub root came from world %d", got)
		}
		return nil
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	runWorld(t, 4, func(ctx Ctx) error {
		c := ctx.Comm()
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("negative color returned a communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		sub.Barrier()
		return nil
	})
}

func TestNestedSplit(t *testing.T) {
	runWorld(t, 8, func(ctx Ctx) error {
		c := ctx.Comm()
		half := c.Split(c.Rank()/4, c.Rank())
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		// Pairs are (0,1),(2,3),(4,5),(6,7).
		lo := float64(c.Rank() / 2 * 2)
		if min, max := quarter.AllreduceMin(float64(c.Rank())), quarter.AllreduceMax(float64(c.Rank())); min != lo || max != lo+1 {
			return fmt.Errorf("rank %d pair min, max %v, %v want %v, %v", c.Rank(), min, max, lo, lo+1)
		}
		return nil
	})
}

func TestSendNegativeTagPanics(t *testing.T) {
	w := NewChanWorld(rt.NewMemFS(), 1)
	err := w.Run(2, func(ctx Ctx) error {
		if ctx.Comm().Rank() == 0 {
			ctx.Comm().Send(1, -5, nil) // panics; recovered by the world
		}
		return nil
	})
	if err == nil {
		t.Fatal("negative application tag did not fail the rank")
	}
}

func TestRankErrorPropagates(t *testing.T) {
	w := NewChanWorld(rt.NewMemFS(), 1)
	sentinel := fmt.Errorf("boom")
	err := w.Run(3, func(ctx Ctx) error {
		if ctx.Comm().Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestNodePlacement(t *testing.T) {
	w := NewChanWorld(rt.NewMemFS(), 4)
	err := w.Run(8, func(ctx Ctx) error {
		want := ctx.Comm().Rank() / 4
		if ctx.Node() != want {
			return fmt.Errorf("rank %d node %d, want %d", ctx.Comm().Rank(), ctx.Node(), want)
		}
		if ctx.ProcsPerNode() != 4 {
			return fmt.Errorf("ppn = %d", ctx.ProcsPerNode())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedFS(t *testing.T) {
	runWorld(t, 4, func(ctx Ctx) error {
		c := ctx.Comm()
		name := fmt.Sprintf("rank%d.dat", c.Rank())
		f, err := ctx.FS().Create(name)
		if err != nil {
			return err
		}
		f.WriteAt([]byte{byte(c.Rank())}, 0)
		f.Close()
		c.Barrier()
		// Every rank sees every file.
		names, err := ctx.FS().List("rank")
		if err != nil {
			return err
		}
		if len(names) != 4 {
			return fmt.Errorf("rank %d sees %v", c.Rank(), names)
		}
		return nil
	})
}

func TestTreeShape(t *testing.T) {
	for n := 1; n <= 33; n++ {
		seen := map[int]int{}
		for r := 1; r < n; r++ {
			p := treeParent(r, n)
			if p < 0 || p >= r {
				t.Fatalf("n=%d parent(%d)=%d", n, r, p)
			}
			seen[r] = p
		}
		// children must be the inverse of parent.
		for r := 0; r < n; r++ {
			for _, kid := range treeChildren(r, n) {
				if seen[kid] != r {
					t.Fatalf("n=%d child %d of %d has parent %d", n, kid, r, seen[kid])
				}
				delete(seen, kid)
			}
		}
		if len(seen) != 0 {
			t.Fatalf("n=%d unclaimed children %v", n, seen)
		}
	}
}
