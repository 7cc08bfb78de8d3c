// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel with virtual time.
//
// Each simulated process is a goroutine, but exactly one process runs at a
// time: the scheduler resumes the process with the earliest pending wakeup,
// waits for it to block (on a timed Wait, a Resource, a Queue or a
// Mailbox) or to finish, and then advances virtual time to the next wakeup.
// All ties are broken by sequence number, so runs are fully deterministic.
// A Mailbox receive with a deadline expires only when no wakeup is pending
// at all: the earliest deadline first, ties broken by spawn order.
//
// The kernel is the substrate for the simulated cluster platforms used to
// reproduce the paper's evaluation: network links, disks, and file servers
// are modelled as Resources, and message passing as matched Mailboxes.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Env is a discrete-event simulation environment. The zero value is not
// usable; create one with NewEnv.
type Env struct {
	now     float64
	seq     int64
	cal     calendar
	yield   chan struct{} // signalled when the running process parks or exits
	live    int           // non-daemon processes not yet finished
	procs   map[*Proc]struct{}
	running *Proc
	stopped bool
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env {
	return &Env{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Proc is a simulated process. A Proc may only call its blocking methods
// (Wait, Queue.Get, ...) from its own goroutine while it is the running
// process.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	daemon bool
	done   bool
	// block describes what the process is currently blocked on, for
	// deadlock reports.
	block string
	id    int64 // spawn order
	// A receive with a deadline: when, and how to withdraw it (nil outside
	// one).
	deadline float64
	expire   func()
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// entry is a calendar entry: wake proc p at time t.
type entry struct {
	t   float64
	seq int64
	p   *Proc
}

type calendar []entry

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].t != c[j].t {
		return c[i].t < c[j].t
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int)       { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x interface{}) { *c = append(*c, x.(entry)) }
func (c *calendar) Pop() interface{} {
	old := *c
	n := len(old)
	x := old[n-1]
	*c = old[:n-1]
	return x
}

func (e *Env) schedule(p *Proc, t float64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.cal, entry{t: t, seq: e.seq, p: p})
}

// Spawn creates a process named name running fn and schedules it to start at
// the current virtual time. It may be called before Run or from a running
// process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon creates a daemon process. Daemon processes do not keep Run
// alive: the simulation ends when all non-daemon processes have finished,
// abandoning any daemons still blocked.
func (e *Env) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Env) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{}), daemon: daemon, id: e.seq}
	e.procs[p] = struct{}{}
	if !daemon {
		e.live++
	}
	go func() {
		<-p.resume // wait for the scheduler to start us
		fn(p)
		p.done = true
		delete(e.procs, p)
		if !p.daemon {
			e.live--
		}
		e.yield <- struct{}{}
	}()
	e.schedule(p, e.now)
	return p
}

// park blocks the calling process and hands control back to the scheduler.
// The process resumes when the scheduler sends on p.resume.
func (p *Proc) park(what string) {
	p.block = what
	p.env.yield <- struct{}{}
	<-p.resume
	p.block = ""
}

// Wait advances the process's local time by d seconds of virtual time.
// Negative or NaN durations are treated as zero.
func (p *Proc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.env.schedule(p, p.env.now+d)
	p.park(fmt.Sprintf("wait(%g)", d))
}

// DeadlockError reports that the simulation cannot make progress: the
// calendar is empty but non-daemon processes remain blocked.
type DeadlockError struct {
	Time    float64
	Blocked []string // "name: what" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%g, %d blocked: %v", d.Time, len(d.Blocked), d.Blocked)
}

// Run executes the simulation until every non-daemon process has finished.
// When no wakeup is pending, the earliest receive deadline expires, leaving
// the clock at the later of now and the deadline; with none, Run returns a
// *DeadlockError. Run must be called at most once per Env.
func (e *Env) Run() error {
	if e.stopped {
		return fmt.Errorf("sim: Run called twice")
	}
	for e.live > 0 {
		if e.cal.Len() == 0 {
			var p *Proc // the earliest receive deadline, ties by spawn order
			for q := range e.procs {
				if q.expire != nil && (p == nil || q.deadline < p.deadline || q.deadline == p.deadline && q.id < p.id) {
					p = q
				}
			}
			if p == nil {
				e.stopped = true
				return e.deadlock()
			}
			p.expire()
			p.expire = nil
			e.now = max(e.now, p.deadline)
			e.schedule(p, e.now)
		}
		ent := heap.Pop(&e.cal).(entry)
		if ent.p.done {
			continue
		}
		e.now = ent.t
		e.running = ent.p
		ent.p.resume <- struct{}{}
		<-e.yield
		e.running = nil
	}
	e.stopped = true
	return nil
}

func (e *Env) deadlock() error {
	var blocked []string
	for p := range e.procs {
		if !p.daemon {
			blocked = append(blocked, p.name+": "+p.block)
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: e.now, Blocked: blocked}
}
