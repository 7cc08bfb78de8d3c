package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genxio/internal/rt"
)

// ChanWorld is the real backend: every rank is a goroutine, messages move
// through in-process mailboxes, time is wall time, and files go to the
// world's shared filesystem. Use it to run the I/O libraries for real
// (tests, examples, cmd/genx); use internal/cluster for the simulated
// platforms.
type ChanWorld struct {
	fs   rt.FS
	ppn  int // ranks per (pretend) node, for Ctx.Node()
	hook SendHook
}

// SetSendHook installs a fault-injection hook consulted on every
// transport-level send. It must be set before Run; the zero verdict
// delivers normally.
func (w *ChanWorld) SetSendHook(h SendHook) { w.hook = h }

// NewChanWorld returns a world whose ranks share the filesystem fs and are
// grouped procsPerNode ranks per node (>= 1).
func NewChanWorld(fs rt.FS, procsPerNode int) *ChanWorld {
	if procsPerNode < 1 {
		procsPerNode = 1
	}
	return &ChanWorld{fs: fs, ppn: procsPerNode}
}

// Run implements World: it launches n goroutine ranks running main and
// waits for them and the tasks they spawn. The first rank error (by rank
// order) is returned; a rank panic is that rank's error. When every
// goroutine left is blocked in a world wait (an inbox receive or probe, a
// queue get or put), the earliest timed receive among them expires (ties by
// rank); with none, Run returns a *DeadlockError, leaving them parked.
func (w *ChanWorld) Run(n int, main func(Ctx) error) error {
	if n < 1 {
		return fmt.Errorf("mpi: world size %d < 1", n)
	}
	run := &chanRun{errs: make([]error, n), end: make(chan struct{}), inboxes: make([]*inbox, n)}
	run.count.Store(int64(n) << 32)
	inboxes := run.inboxes
	for i := range inboxes {
		inboxes[i] = &inbox{who: fmt.Sprintf("rank %d", i)}
		inboxes[i].init(run)
	}
	wall := rt.NewWallClock()
	for r := 0; r < n; r++ {
		go func(r int) {
			defer func() {
				if p := recover(); p != nil {
					run.errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
				run.add(-1, 0)
			}()
			comm := NewWorldComm(&chanEndpoint{rank: r, inboxes: inboxes, hook: w.hook})
			clock := &chanClock{wall, inboxes[r].who}
			run.errs[r] = main(&chanCtx{comm: comm, clock: clock, fs: w.fs, node: r / w.ppn, ppn: w.ppn, run: run})
		}(r)
	}
	<-run.end
	return run.err
}

// DeadlockError reports a ChanWorld run whose every goroutine left was
// blocked in a wait only another of them could end.
type DeadlockError struct {
	Blocked  []string // "who: wait" for each blocked rank or rank/task
	Returned []string // "rank r: error" for each rank that had returned one
}

func (d *DeadlockError) Error() string {
	msg := fmt.Sprintf("mpi: deadlock, %d blocked: %v", len(d.Blocked), d.Blocked)
	if len(d.Returned) > 0 {
		msg += fmt.Sprintf("; returned: %v", d.Returned)
	}
	return msg
}

// chanRun is one Run's accounting: its live goroutines (ranks, all counted
// before any starts, and spawned tasks) and the waits they are blocked in.
// A wait counts from just before its goroutine sleeps until the waker hands
// it back, before waking it, so no goroutine is counted blocked after the
// event that ends its wait. A sleeping or polling goroutine is running.
type chanRun struct {
	count   atomic.Int64 // live goroutines << 32 + blocked waits
	mu      sync.Mutex   // guards sets
	sets    []*waitSet
	inboxes []*inbox      // by rank
	errs    []error       // each rank's, set before it retires
	end     chan struct{} // closed once err is the outcome
	err     error
}

// add counts live goroutines started (live > 0) or retired (live < 0), and
// waits begun (blocked > 0) or handed back (blocked < 0). The one call that
// leaves every live goroutine blocked, or none live, settles the run: after
// it nothing runs but what settling wakes.
func (r *chanRun) add(live, blocked int) {
	if v := r.count.Add(int64(live)<<32 + int64(blocked)); v>>32 <= v&(1<<32-1) {
		r.settle(v>>32 == 0)
	}
}

// settle expires the earliest timed receive, ties going to the lower rank,
// on a goroutine of its own (settle may hold the lock of the wait just
// begun). With none it ends the run: with its first rank error when no
// goroutine is left (done), else with a DeadlockError naming every wait.
func (r *chanRun) settle(done bool) {
	var first *inbox
	for _, b := range r.inboxes {
		if !b.at.IsZero() && (first == nil || b.at.Before(first.at)) {
			first = b
		}
	}
	if first != nil {
		go first.expire()
		return
	}
	defer close(r.end)
	if r.err = cmp.Or(r.errs...); done {
		return
	}
	d := &DeadlockError{}
	for _, s := range r.sets {
		for _, w := range s.asleep {
			d.Blocked = append(d.Blocked, w.who+": "+w.what)
		}
	}
	sort.Strings(d.Blocked)
	for rank, err := range r.errs {
		if err != nil {
			d.Returned = append(d.Returned, fmt.Sprintf("rank %d: %v", rank, err))
		}
	}
	r.err = d
}

// waitSet is a mutex, guarding what its sleepers wait on, and a condition
// variable whose sleepers the run counts as blocked.
type waitSet struct {
	sync.Mutex
	cond   sync.Cond
	run    *chanRun
	asleep []waiter
	wakes  int // unlockWake calls that woke sleepers
}

type waiter struct{ who, what string }

func (s *waitSet) init(run *chanRun) {
	s.run, s.cond.L = run, &s.Mutex
	run.mu.Lock()
	run.sets = append(run.sets, s)
	run.mu.Unlock()
}

// sleep blocks who, counted as waiting in what, until the next unlockWake.
// The caller holds the lock.
func (s *waitSet) sleep(who, what string) {
	s.asleep = append(s.asleep, waiter{who, what})
	s.run.add(0, 1)
	for n := s.wakes; n == s.wakes; {
		s.cond.Wait()
	}
}

// unlockWake releases the lock after a change a sleeper may wait for: it
// hands every sleeper back to the running count, unlocks, then wakes them.
func (s *waitSet) unlockWake() {
	n := len(s.asleep)
	if n > 0 {
		s.run.add(0, -n)
		s.asleep, s.wakes = s.asleep[:0], s.wakes+1
	}
	s.Unlock()
	if n > 0 {
		s.cond.Broadcast()
	}
}

type chanCtx struct {
	comm  Comm
	clock *chanClock
	fs    rt.FS
	node  int
	ppn   int
	run   *chanRun
}

func (c *chanCtx) Comm() Comm        { return c.comm }
func (c *chanCtx) Clock() rt.Clock   { return c.clock }
func (c *chanCtx) FS() rt.FS         { return c.fs }
func (c *chanCtx) Node() int         { return c.node }
func (c *chanCtx) ProcsPerNode() int { return c.ppn }

// Spawn implements Ctx: a goroutine named rank/task, with the rank's
// filesystem and its own view of the wall clock; Run waits for it.
func (c *chanCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.run.add(1, 0)
	go func() {
		defer c.run.add(-1, 0)
		fn(&chanCtx{clock: &chanClock{c.clock.WallClock, c.clock.who + "/" + name}, fs: c.fs})
	}()
}

// NewQueue implements Ctx.
func (c *chanCtx) NewQueue(capacity int) rt.Queue {
	q := &chanQueue{cap: max(capacity, 1)}
	q.init(c.run)
	return q
}

// chanClock is the world's wall clock as one rank or task sees it; its name
// says who waits on a queue.
type chanClock struct {
	*rt.WallClock
	who string
}

// chanQueue is the world's rt.Queue, with Go-channel semantics.
type chanQueue struct {
	waitSet
	items  []interface{}
	cap    int
	closed bool
}

func (q *chanQueue) Put(c rt.Clock, v interface{}) {
	q.Lock()
	defer q.unlockWake()
	for len(q.items) >= q.cap && !q.closed {
		q.sleep(c.(*chanClock).who, "put")
	}
	if q.closed {
		panic("mpi: put on a closed queue")
	}
	q.items = append(q.items, v)
}

func (q *chanQueue) Get(c rt.Clock) (interface{}, bool) {
	q.Lock()
	defer q.unlockWake()
	for len(q.items) == 0 && !q.closed {
		q.sleep(c.(*chanClock).who, "get")
	}
	return q.pop()
}

func (q *chanQueue) TryGet(rt.Clock) (interface{}, bool) {
	q.Lock()
	defer q.unlockWake()
	return q.pop()
}

// pop takes the head item. The caller holds the lock.
func (q *chanQueue) pop() (interface{}, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items[0], q.items = nil, q.items[1:]
	return v, true
}

func (q *chanQueue) Close() {
	q.Lock()
	q.closed = true
	q.unlockWake()
}

// chanEndpoint implements Endpoint over shared in-process inboxes.
type chanEndpoint struct {
	rank    int
	inboxes []*inbox
	hook    SendHook
}

func (e *chanEndpoint) GlobalRank() int { return e.rank }
func (e *chanEndpoint) NumRanks() int   { return len(e.inboxes) }

func (e *chanEndpoint) Send(dst int, m *Message) {
	if e.hook != nil {
		v := e.hook(e.rank, dst, m.Tag, len(m.Data))
		if v.Delay > 0 {
			// Stall the sender itself so per-stream FIFO order holds.
			time.Sleep(time.Duration(v.Delay * float64(time.Second)))
		}
		if v.Drop {
			return
		}
	}
	e.inboxes[dst].put(m)
}

func (e *chanEndpoint) RecvMatch(pred func(*Message) bool, timeout float64) *Message {
	b := e.inboxes[e.rank]
	b.Lock()
	defer b.Unlock()
	if timeout > 0 {
		b.at = time.Now().Add(time.Duration(timeout * float64(time.Second)))
		defer func() { b.at = time.Time{} }()
	}
	i := b.match(pred, "recv")
	if i < 0 {
		return nil
	}
	m := b.q[i]
	b.q = append(b.q[:i], b.q[i+1:]...)
	return m
}

func (e *chanEndpoint) ProbeMatch(pred func(*Message) bool) *Message {
	b := e.inboxes[e.rank]
	b.Lock()
	defer b.Unlock()
	return b.q[b.match(pred, "probe")]
}

func (e *chanEndpoint) TryProbeMatch(pred func(*Message) bool) (*Message, bool) {
	b := e.inboxes[e.rank]
	b.Lock()
	defer b.Unlock()
	if i := b.match(pred, ""); i >= 0 {
		return b.q[i], true
	}
	return nil, false
}

// inbox is a rank's matched FIFO of messages. The rank consumes; any rank
// produces.
type inbox struct {
	waitSet
	who     string
	q       []*Message
	at      time.Time // the deadline of the rank's timed receive; zero outside one
	expired bool      // settling expired that receive
}

func (b *inbox) put(m *Message) {
	b.Lock()
	b.q = append(b.q, m)
	b.unlockWake()
}

// match returns the index of the earliest message matching pred. With a
// wait named it sleeps in that wait until one arrives, or returns -1 once
// settling expires a timed receive; with none it returns -1 at once. The
// caller holds the lock.
func (b *inbox) match(pred func(*Message) bool, what string) int {
	for {
		i := slices.IndexFunc(b.q, pred)
		if i >= 0 || what == "" || b.expired {
			b.expired = false
			return i
		}
		b.sleep(b.who, what)
	}
}

// expire ends the rank's timed receive.
func (b *inbox) expire() {
	b.Lock()
	b.expired = true
	b.unlockWake()
}
