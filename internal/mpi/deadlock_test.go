package mpi_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"genxio/internal/cluster"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// TestChanWorldDeadlockReported is cluster's TestDeadlockReported for the
// goroutine world: when every goroutine of a run is blocked in one of the
// world's waits, Run returns a *DeadlockError naming each rank or rank/task
// and its wait, and the errors of ranks that had already returned.
func TestChanWorldDeadlockReported(t *testing.T) {
	rows := []struct {
		name     string
		n        int
		main     func(ctx mpi.Ctx) error
		blocked  []string
		returned []string
	}{
		{"each-receives-from-the-other", 2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			c.Recv(1-c.Rank(), 0)
			return nil
		}, []string{"rank 0: recv", "rank 1: recv"}, nil},
		{"peer-left-a-collective", 2, func(ctx mpi.Ctx) error {
			if ctx.Comm().Rank() == 0 {
				return errors.New("gone")
			}
			ctx.Comm().Barrier()
			return nil
		}, []string{"rank 1: recv"}, []string{"rank 0: gone"}},
		{"task-parked-in-a-queue", 1, func(ctx mpi.Ctx) error {
			q := ctx.NewQueue(1)
			ctx.Spawn("io", func(tc rt.TaskCtx) { q.Get(tc.Clock()) })
			ctx.Comm().Recv(mpi.AnySource, 0)
			return nil
		}, []string{"rank 0/io: get", "rank 0: recv"}, nil},
		{"untimed-after-an-expiry", 2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 0 {
				if _, _, err := c.RecvTimed(1, []int{0}, 1); err != mpi.ErrTimedOut {
					return fmt.Errorf("timed receive: %v, want ErrTimedOut", err)
				}
			}
			c.Recv(1-c.Rank(), 0)
			return nil
		}, []string{"rank 0: recv", "rank 1: recv"}, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(row.n, row.main)
			var d *mpi.DeadlockError
			if !errors.As(err, &d) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if !slices.Equal(d.Blocked, row.blocked) || !slices.Equal(d.Returned, row.returned) {
				t.Fatalf("blocked %q, returned %q; want %q, %q", d.Blocked, d.Returned, row.blocked, row.returned)
			}
		})
	}
}

// TestChanWorldNoFalseDeadlock: a goroutine that sleeps is running, so a
// peer blocked on what it will do after the sleep is not a deadlock, and a
// timed receive waiting on it does not expire however short its timeout. A
// timed receive expires only when every goroutine is blocked — at once,
// however long its timeout — and the earliest deadline first.
func TestChanWorldNoFalseDeadlock(t *testing.T) {
	rows := []struct {
		name string
		n    int
		main func(ctx mpi.Ctx) error
	}{
		{"send-after-sleep", 2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 1 {
				time.Sleep(time.Millisecond)
				c.Send(0, 0, []byte("late"))
				return nil
			}
			if data, _ := c.Recv(1, 0); string(data) != "late" {
				return fmt.Errorf("received %q", data)
			}
			return nil
		}},
		{"put-after-sleep", 1, func(ctx mpi.Ctx) error {
			q := ctx.NewQueue(1)
			ctx.Spawn("io", func(tc rt.TaskCtx) {
				time.Sleep(time.Millisecond)
				q.Put(tc.Clock(), "late")
				q.Close()
			})
			if v, ok := q.Get(ctx.Clock()); !ok || v != "late" {
				return fmt.Errorf("got %v, %v", v, ok)
			}
			if _, ok := q.Get(ctx.Clock()); ok {
				return errors.New("a closed, drained queue returned an item")
			}
			return nil
		}},
		{"timed-recv-after-sleep", 2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 1 {
				time.Sleep(time.Millisecond)
				c.Send(0, 0, []byte("late"))
				return nil
			}
			if data, _, err := c.RecvTimed(1, []int{0}, 1e-6); err != nil || string(data) != "late" {
				return fmt.Errorf("received %q, %v", data, err)
			}
			return nil
		}},
		{"quiescent-expires-the-timed-recv", 2, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() == 1 {
				c.Recv(0, 1)
				return nil
			}
			t0 := time.Now()
			if _, _, err := c.RecvTimed(1, []int{0}, 60); err != mpi.ErrTimedOut {
				return fmt.Errorf("timed receive: %v, want ErrTimedOut", err)
			}
			if waited := time.Since(t0); waited > 30*time.Second {
				return fmt.Errorf("expired after %v, not at quiescence", waited)
			}
			c.Send(1, 1)
			return nil
		}},
		{"earliest-deadline-first", 3, func(ctx mpi.Ctx) error {
			c := ctx.Comm()
			if c.Rank() > 0 {
				// Rank 2's deadline is a second before rank 1's.
				if _, _, err := c.RecvTimed(0, []int{0}, float64(3-c.Rank())); err != mpi.ErrTimedOut {
					return fmt.Errorf("rank %d: %v, want ErrTimedOut", c.Rank(), err)
				}
				c.Send(0, 1, []byte{byte(c.Rank())})
				return nil
			}
			var order []byte
			for range 2 {
				data, _ := c.Recv(mpi.AnySource, 1)
				order = append(order, data...)
			}
			if !slices.Equal(order, []byte{2, 1}) {
				return fmt.Errorf("expired in rank order %v, want [2 1]", order)
			}
			return nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(row.n, row.main); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAgree pins the failure agreement on both backends: with no failure
// every rank gets the minimum; with ranks 2 and 3 failing, each failing rank
// gets its own error and each clean rank ErrPeerFailed naming rank 2.
func TestAgree(t *testing.T) {
	worlds := map[string]func() mpi.World{
		"chan": func() mpi.World { return mpi.NewChanWorld(rt.NewMemFS(), 1) },
		"sim":  func() mpi.World { return cluster.NewWorld(quiet(), 1) },
	}
	rows := []struct {
		name    string
		failing []int
	}{
		{"no-failure", nil},
		{"ranks-2-3-fail", []int{2, 3}},
	}
	for name, world := range worlds {
		for _, row := range rows {
			t.Run(name+"/"+row.name, func(t *testing.T) {
				err := world().Run(4, func(ctx mpi.Ctx) error {
					c := ctx.Comm()
					var own error
					if slices.Contains(row.failing, c.Rank()) {
						own = fmt.Errorf("rank %d's own failure", c.Rank())
					}
					min, err := mpi.AgreeMin(c, float64(c.Rank()+1), own)
					for _, got := range []error{err, mpi.Agree(c, own)} {
						switch {
						case own != nil && got != own:
							return fmt.Errorf("rank %d: %v, want its own error", c.Rank(), got)
						case own == nil && row.failing == nil && got != nil:
							return fmt.Errorf("rank %d: %v with no failure", c.Rank(), got)
						case own == nil && row.failing != nil && (!errors.Is(got, mpi.ErrPeerFailed) || !strings.Contains(got.Error(), "rank 2")):
							return fmt.Errorf("rank %d: %v, want ErrPeerFailed naming rank 2", c.Rank(), got)
						}
					}
					if row.failing == nil && min != 1 {
						return fmt.Errorf("rank %d: min %v, want 1", c.Rank(), min)
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
