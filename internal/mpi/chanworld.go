package mpi

import (
	"fmt"
	"sync"
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
// waits for all of them. The first rank error (by rank order) is returned;
// a rank panic is recovered and reported as that rank's error.
func (w *ChanWorld) Run(n int, main func(Ctx) error) error {
	if n < 1 {
		return fmt.Errorf("mpi: world size %d < 1", n)
	}
	inboxes := make([]*inbox, n)
	for i := range inboxes {
		inboxes[i] = newInbox()
	}
	clock := rt.NewWallClock()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			ep := &chanEndpoint{rank: r, inboxes: inboxes, hook: w.hook}
			ctx := &chanCtx{
				comm:  NewWorldComm(ep),
				clock: clock,
				fs:    w.fs,
				node:  r / w.ppn,
				ppn:   w.ppn,
				wg:    &wg,
			}
			errs[r] = main(ctx)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type chanCtx struct {
	comm  Comm
	clock rt.Clock
	fs    rt.FS
	node  int
	ppn   int
	wg    *sync.WaitGroup
}

func (c *chanCtx) Comm() Comm        { return c.comm }
func (c *chanCtx) Clock() rt.Clock   { return c.clock }
func (c *chanCtx) FS() rt.FS         { return c.fs }
func (c *chanCtx) Node() int         { return c.node }
func (c *chanCtx) ProcsPerNode() int { return c.ppn }

// Spawn implements Ctx: background activities are plain goroutines sharing
// the rank's clock and filesystem; Run waits for them.
func (c *chanCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn(&chanTaskCtx{clock: c.clock, fs: c.fs})
	}()
}

// NewQueue implements Ctx.
func (c *chanCtx) NewQueue(capacity int) rt.Queue { return rt.NewGoQueue(capacity) }

type chanTaskCtx struct {
	clock rt.Clock
	fs    rt.FS
}

func (t *chanTaskCtx) Clock() rt.Clock { return t.clock }
func (t *chanTaskCtx) FS() rt.FS       { return t.fs }

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

func (e *chanEndpoint) RecvMatch(pred func(*Message) bool) *Message {
	return e.inboxes[e.rank].recvMatch(pred)
}

func (e *chanEndpoint) ProbeMatch(pred func(*Message) bool) *Message {
	return e.inboxes[e.rank].probeMatch(pred)
}

func (e *chanEndpoint) TryProbeMatch(pred func(*Message) bool) (*Message, bool) {
	return e.inboxes[e.rank].tryProbeMatch(pred)
}

// inbox is a matched FIFO of messages guarded by a mutex and condition
// variable. One goroutine (the owning rank) consumes; any rank produces.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []*Message
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) put(m *Message) {
	b.mu.Lock()
	b.q = append(b.q, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *inbox) recvMatch(pred func(*Message) bool) *Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.q {
			if pred(m) {
				b.q = append(b.q[:i], b.q[i+1:]...)
				return m
			}
		}
		b.cond.Wait()
	}
}

func (b *inbox) probeMatch(pred func(*Message) bool) *Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for _, m := range b.q {
			if pred(m) {
				return m
			}
		}
		b.cond.Wait()
	}
}

func (b *inbox) tryProbeMatch(pred func(*Message) bool) (*Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.q {
		if pred(m) {
			return m, true
		}
	}
	return nil, false
}
