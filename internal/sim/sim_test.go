package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestWaitAdvancesTime(t *testing.T) {
	env := NewEnv()
	var at []float64
	env.Spawn("a", func(p *Proc) {
		p.Wait(1.5)
		at = append(at, env.Now())
		p.Wait(2.5)
		at = append(at, env.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 1.5 || at[1] != 4.0 {
		t.Fatalf("timestamps = %v, want [1.5 4]", at)
	}
	if env.Now() != 4.0 {
		t.Fatalf("final time = %v, want 4", env.Now())
	}
}

func TestNegativeAndZeroWait(t *testing.T) {
	env := NewEnv()
	env.Spawn("a", func(p *Proc) {
		p.Wait(-5)
		if env.Now() != 0 {
			t.Errorf("negative wait moved time to %v", env.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() string {
		env := NewEnv()
		var log []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			env.Spawn(name, func(p *Proc) {
				p.Wait(1)
				log = append(log, p.Name())
				p.Wait(1)
				log = append(log, p.Name())
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs: %q vs %q", i, got, first)
		}
	}
	// Same-time wakeups must preserve spawn order.
	if !strings.HasPrefix(first, "p0,p1,p2,p3,p4") {
		t.Fatalf("tie-break order wrong: %q", first)
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	r := env.NewResource("disk", 1)
	var finish []float64
	for i := 0; i < 4; i++ {
		env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Use(p, 10)
			finish = append(finish, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40}
	for i, f := range finish {
		if f != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if bt := r.BusyTime(); bt != 40 {
		t.Fatalf("busy time = %v, want 40", bt)
	}
	if u := r.Utilization(); u != 1.0 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	r := env.NewResource("nics", 2)
	var finish []float64
	for i := 0; i < 4; i++ {
		env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Use(p, 10)
			finish = append(finish, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: pairs finish at 10 and 20.
	want := []float64{10, 10, 20, 20}
	for i, f := range finish {
		if f != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFCFS(t *testing.T) {
	env := NewEnv()
	r := env.NewResource("d", 1)
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("w%d", i)
		arrive := float64(i) * 0.1
		env.Spawn(name, func(p *Proc) {
			p.Wait(arrive)
			r.Acquire(p)
			order = append(order, p.Name())
			p.Wait(5)
			r.Release()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "w0,w1,w2,w3,w4" {
		t.Fatalf("service order %q not FCFS", got)
	}
	if r.AvgWait() <= 0 {
		t.Fatal("expected nonzero average queueing delay")
	}
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	env := NewEnv()
	m := env.NewMailbox("mb")
	any := func(interface{}) bool { return true }
	var got interface{}
	var at float64
	env.Spawn("rx", func(p *Proc) {
		got = m.Get(p, any, 0)
		at = env.Now()
	})
	env.Spawn("tx", func(p *Proc) {
		p.Wait(7)
		m.Put("hello")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" || at != 7 {
		t.Fatalf("got %v at %v", got, at)
	}
	if m.Len() != 0 {
		t.Fatalf("mailbox kept %d messages after Get", m.Len())
	}
}

func TestMailboxMatching(t *testing.T) {
	env := NewEnv()
	m := env.NewMailbox("mb")
	isEven := func(v interface{}) bool { return v.(int)%2 == 0 }
	isOdd := func(v interface{}) bool { return v.(int)%2 == 1 }
	var evens, odds []int
	env.Spawn("tx", func(p *Proc) {
		for i := 1; i <= 6; i++ {
			m.Put(i)
		}
	})
	env.Spawn("rxEven", func(p *Proc) {
		p.Wait(1)
		for i := 0; i < 3; i++ {
			evens = append(evens, m.Get(p, isEven, 0).(int))
		}
	})
	env.Spawn("rxOdd", func(p *Proc) {
		p.Wait(1)
		for i := 0; i < 3; i++ {
			odds = append(odds, m.Get(p, isOdd, 0).(int))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(evens) != "[2 4 6]" || fmt.Sprint(odds) != "[1 3 5]" {
		t.Fatalf("evens=%v odds=%v; matching broke FIFO", evens, odds)
	}
}

func TestMailboxProbeDoesNotConsume(t *testing.T) {
	env := NewEnv()
	m := env.NewMailbox("mb")
	any := func(interface{}) bool { return true }
	var probed, got interface{}
	env.Spawn("rx", func(p *Proc) {
		probed = m.Probe(p, any)
		got = m.Get(p, any, 0)
	})
	env.Spawn("tx", func(p *Proc) {
		p.Wait(2)
		m.Put("msg")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if probed != "msg" || got != "msg" {
		t.Fatalf("probed=%v got=%v", probed, got)
	}
}

func TestMailboxTryProbe(t *testing.T) {
	env := NewEnv()
	m := env.NewMailbox("mb")
	any := func(interface{}) bool { return true }
	env.Spawn("p", func(p *Proc) {
		if _, ok := m.TryProbe(any); ok {
			t.Error("TryProbe on empty mailbox returned ok")
		}
		m.Put(9)
		v, ok := m.TryProbe(any)
		if !ok || v != 9 {
			t.Errorf("TryProbe = %v,%v", v, ok)
		}
		if m.Len() != 1 {
			t.Error("TryProbe consumed the message")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("never", 1)
	env.Spawn("stuck", func(p *Proc) {
		q.Get(p)
	})
	err := env.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "stuck") {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestDaemonDoesNotBlockCompletion(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.SpawnDaemon("noise", func(p *Proc) {
		for {
			p.Wait(1)
			ticks++
		}
	})
	env.Spawn("main", func(p *Proc) {
		p.Wait(5.5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("daemon ticked %d times, want 5", ticks)
	}
	if env.Now() != 5.5 {
		t.Fatalf("end time %v, want 5.5", env.Now())
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childAt float64
	env.Spawn("parent", func(p *Proc) {
		p.Wait(2)
		env.Spawn("child", func(c *Proc) {
			c.Wait(3)
			childAt = env.Now()
		})
		p.Wait(10)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 5 {
		t.Fatalf("child finished at %v, want 5", childAt)
	}
}

func TestRunTwiceFails(t *testing.T) {
	env := NewEnv()
	env.Spawn("a", func(p *Proc) {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env := NewEnv()
	r := env.NewResource("r", 1)
	env.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on unmatched Release")
			}
		}()
		r.Release()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
