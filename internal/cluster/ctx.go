package cluster

import (
	"fmt"

	"genxio/internal/mpi"
	"genxio/internal/rt"
	"genxio/internal/sim"
)

// simCtx is the per-rank mpi.Ctx on a simulated platform.
type simCtx struct {
	world  *World
	rank   int
	nranks int
	proc   *sim.Proc
	node   *node
	nodes  []*node
	boxes  []*sim.Mailbox
	clock  *simClock
	comm   mpi.Comm
	fs     rt.FS
	tasks  int
}

func (c *simCtx) Comm() mpi.Comm    { return c.comm }
func (c *simCtx) Clock() rt.Clock   { return c.clock }
func (c *simCtx) Node() int         { return c.node.id }
func (c *simCtx) ProcsPerNode() int { return c.world.rpn }

func (c *simCtx) FS() rt.FS {
	if c.fs == nil {
		c.fs = c.world.fsModel.View(c.proc)
	}
	return c.fs
}

// Spawn implements mpi.Ctx: the background activity becomes its own
// simulation process on the same node, with its own clock identity and
// filesystem view.
func (c *simCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.tasks++
	pname := fmt.Sprintf("rank%d.%s%d", c.rank, name, c.tasks)
	c.proc.Env().Spawn(pname, func(p *sim.Proc) {
		clock := &simClock{p: p, node: c.node, plat: c.clock.plat}
		fn(&simTaskCtx{clock: clock, fs: c.world.fsModel.View(p)})
	})
}

// NewQueue implements mpi.Ctx.
func (c *simCtx) NewQueue(capacity int) rt.Queue {
	c.tasks++
	return &simQueue{q: c.proc.Env().NewQueue(fmt.Sprintf("rank%d.q%d", c.rank, c.tasks), capacity)}
}

type simTaskCtx struct {
	clock rt.Clock
	fs    rt.FS
}

func (t *simTaskCtx) Clock() rt.Clock { return t.clock }
func (t *simTaskCtx) FS() rt.FS       { return t.fs }

// simQueue adapts sim.Queue to rt.Queue; the rt.Clock argument carries the
// calling process's identity.
type simQueue struct {
	q *sim.Queue
}

func procOf(c rt.Clock) *sim.Proc {
	sc, ok := c.(*simClock)
	if !ok {
		panic("cluster: queue used with a non-simulation clock")
	}
	return sc.p
}

func (s *simQueue) Put(c rt.Clock, v interface{}) { s.q.Put(procOf(c), v) }

func (s *simQueue) Get(c rt.Clock) (interface{}, bool) { return s.q.Get(procOf(c)) }

func (s *simQueue) TryGet(c rt.Clock) (interface{}, bool) { return s.q.TryGet(procOf(c)) }

func (s *simQueue) Close() { s.q.Close() }

// simEndpoint implements mpi.Endpoint with the platform's network model.
type simEndpoint struct {
	ctx *simCtx
}

func (e *simEndpoint) GlobalRank() int { return e.ctx.rank }
func (e *simEndpoint) NumRanks() int   { return e.ctx.nranks }

// messageHeaderBytes approximates per-message envelope overhead on the
// wire.
const messageHeaderBytes = 64

// Send charges the sender's CPU overhead and source-side occupancy, then
// hands the message to a delivery daemon that models propagation and
// destination-side occupancy. A send never blocks on the receiver.
func (e *simEndpoint) Send(dst int, m *mpi.Message) {
	c := e.ctx
	plat := c.clock.plat
	size := float64(len(m.Data) + messageHeaderBytes)

	overhead := plat.SendOverhead + plat.SendOverheadPerRank*float64(c.nranks)
	c.proc.Wait(overhead)

	srcNode := c.node
	dstNode := c.nodes[dst/c.world.rpn]
	box := c.boxes[dst]
	if srcNode == dstNode {
		// Intra-node: one pass over the shared memory bus.
		srcNode.bus.Use(c.proc, size/plat.MemBW)
		box.Put(m)
		return
	}
	// Inter-node: occupy the source NIC, then propagate and occupy the
	// destination NIC from a delivery daemon so the sender is released
	// (eager protocol) while server-side ingest still serializes.
	srcNode.nic.Use(c.proc, size/plat.LinkBW)
	env := c.proc.Env()
	env.SpawnDaemon("msg", func(d *sim.Proc) {
		d.Wait(plat.LinkLatency)
		dstNode.nic.Use(d, size/plat.LinkBW)
		box.Put(m)
	})
}

func wrapPred(pred func(*mpi.Message) bool) func(interface{}) bool {
	return func(v interface{}) bool { return pred(v.(*mpi.Message)) }
}

// RecvMatch implements mpi.Endpoint; a timed wait's deadline is virtual.
func (e *simEndpoint) RecvMatch(pred func(*mpi.Message) bool, timeout float64) *mpi.Message {
	m, _ := e.ctx.boxes[e.ctx.rank].Get(e.ctx.proc, wrapPred(pred), timeout).(*mpi.Message)
	return m // nil when the wait expired
}

func (e *simEndpoint) ProbeMatch(pred func(*mpi.Message) bool) *mpi.Message {
	v := e.ctx.boxes[e.ctx.rank].Probe(e.ctx.proc, wrapPred(pred))
	return v.(*mpi.Message)
}

func (e *simEndpoint) TryProbeMatch(pred func(*mpi.Message) bool) (*mpi.Message, bool) {
	v, ok := e.ctx.boxes[e.ctx.rank].TryProbe(wrapPred(pred))
	if !ok {
		return nil, false
	}
	return v.(*mpi.Message), true
}
