package rocpanda

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"genxio/internal/catalog"
	"genxio/internal/delta"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/snapshot"
)

// ErrIncompleteRestart reports that a restart could not recover every
// requested pane: the snapshot is incomplete, typically because a server
// died mid-snapshot and left a file without a directory, or died with
// blocks still buffered in memory. Callers should fall back to the previous
// (complete) snapshot. It is the restart-read service's, shared by every
// I/O module.
var ErrIncompleteRestart = snapshot.ErrIncompleteRestart

// errDrainFailed reports that a server could not land all of its buffered
// output (a block write or file close failed). Sync and Shutdown surface
// it on every client — the commit allreduce spreads one server's failure
// to all — and the affected generations get no manifest.
var errDrainFailed = snapshot.ErrDrainFailed

// Metrics accumulates a client's application-visible I/O costs.
type Metrics struct {
	VisibleWrite float64 // time inside write_attribute (send + buffer ack)
	VisibleRead  float64 // time inside read_attribute
	SyncWait     float64 // time inside sync
	WriteCalls   int
	BytesOut     int64 // payload bytes shipped to the server
	Retries      int   // operations retried after a server wait expired
	Failovers    int   // servers this client declared dead
}

// Client is a compute process's handle to the Rocpanda service. It
// implements roccom.IOService.
type Client struct {
	ctx        mpi.Ctx
	world      mpi.Comm // world communicator (servers reachable here)
	comm       mpi.Comm // client communicator (the application's world)
	myServer   int      // world rank of this client's originally assigned server
	srvRanks   []int    // world ranks of all servers
	numServers int
	blockOH    float64 // per-block client-side protocol cost
	shutdown   bool

	// Snapshot-commit state: the generations written since the last commit
	// (client 0 writes the manifests once all servers have drained), and the
	// first write ack that arrived damaged, or step the caller failed (Fail)
	// — the generation it belonged to must not commit, so every later Sync
	// reports it.
	pending *snapshot.Pending
	ackErr  error
	rd      *snapshot.Reader // the restore walk and the pane universe (newReader)

	// Delta snapshots (Config.DeltaSnapshots): which panes were last
	// shipped at which dirty epoch, how many generations this client has
	// started (the full/delta cadence input — identical on every client,
	// writes being collective), and the chain state of the last committed
	// generation (what the next delta's manifest records).
	deltaOn   bool
	fullEvery int
	tracker   *delta.Tracker
	genCount  int
	lastBase  string
	lastDepth int

	// Fault tolerance (see failover.go).
	nClients  int     // client-communicator size
	myIdx     int     // this client's index in the client communicator
	timeout   float64 // RetryTimeout; 0 disables
	dead      deadSet // servers believed dead
	acked     deadSet // servers that acked this client's writes since its last sync
	contacted []int   // world ranks of servers this client announced itself to

	m  Metrics
	mx clMx
}

// clMx holds a client's registry handles (nil-safe no-ops when
// Config.Metrics is unset).
type clMx struct {
	visibleWrite *metrics.Histogram
	visibleRead  *metrics.Histogram
	syncWait     *metrics.Histogram
	bytesOut     *metrics.Counter
	retries      *metrics.Counter
	failovers    *metrics.Counter

	// Delta snapshots (Config.DeltaSnapshots).
	dirtyPanes *metrics.Counter
	cleanPanes *metrics.Counter
	deltaSaved *metrics.Counter
}

func newClMx(r *metrics.Registry) clMx {
	return clMx{
		visibleWrite: r.Histogram("rocpanda.client.visible_write_seconds", nil),
		visibleRead:  r.Histogram("rocpanda.client.visible_read_seconds", nil),
		syncWait:     r.Histogram("rocpanda.client.sync_wait_seconds", nil),
		bytesOut:     r.Counter("rocpanda.client.bytes_out"),
		retries:      r.Counter("rocpanda.client.retries"),
		failovers:    r.Counter("rocpanda.client.failovers"),

		dirtyPanes: r.Counter("rocpanda.write.dirty_panes"),
		cleanPanes: r.Counter("rocpanda.write.clean_panes"),
		deltaSaved: r.Counter("rocpanda.write.delta_bytes_saved"),
	}
}

// Comm returns the client communicator that replaces MPI_COMM_WORLD for
// the application, as in the paper's initialization scheme.
func (c *Client) Comm() mpi.Comm { return c.comm }

// NumServers returns the number of dedicated I/O servers.
func (c *Client) NumServers() int { return c.numServers }

// Metrics returns the accumulated client-visible costs.
func (c *Client) Metrics() Metrics { return c.m }

// WriteAttribute implements roccom.IOService: a collective write. Each
// client ships its panes to its server and returns as soon as the server
// has buffered them (active buffering) or written them (write-through).
func (c *Client) WriteAttribute(file string, w *roccom.Window, attr string, tm float64, step int) error {
	if c.shutdown {
		return fmt.Errorf("rocpanda: write after shutdown")
	}
	t0 := c.ctx.Clock().Now()
	defer func() {
		d := c.ctx.Clock().Now() - t0
		c.m.VisibleWrite += d
		c.m.WriteCalls++
		c.mx.visibleWrite.Observe(d)
	}()

	gen, fresh := c.pending.Begin(file, int64(step), tm)
	if fresh && c.deltaOn {
		// First collective write of a new generation: decide full vs delta
		// once, for every window written into it. The cadence input is the
		// per-client generation count, identical across clients since
		// writes are collective.
		gen.Delta = !delta.IsFull(c.genCount, c.fullEvery)
		c.genCount++
		gen.Panes = make(map[string][]int)
	}

	ids := w.PaneIDs()
	if c.deltaOn {
		gen.Panes[w.Name] = ids
	}
	var epochs map[int]uint64
	if gen.Delta {
		// Delta generation: ship only panes dirtied since their last ship.
		// Capture each pane's dirty epoch before shipping so a concurrent
		// re-dirty (in principle) would not be marked clean.
		dirty, clean, saved := c.tracker.Partition(w)
		c.mx.dirtyPanes.Add(int64(len(dirty)))
		c.mx.cleanPanes.Add(int64(len(clean)))
		c.mx.deltaSaved.Add(saved)
		ids = dirty
		epochs = make(map[int]uint64, len(ids))
		for _, id := range ids {
			epochs[id] = w.DirtyEpoch(id)
		}
	} else if c.deltaOn {
		c.mx.dirtyPanes.Add(int64(len(ids)))
		epochs = make(map[int]uint64, len(ids))
		for _, id := range ids {
			epochs[id] = w.DirtyEpoch(id)
		}
	}

	// Each pane is one block message, shipped as the wire codec's segments:
	// header bytes between views of the pane's arrays, gathered by Send.
	blocks := make([][][]byte, 0, len(ids))
	sizes := make([]int64, 0, len(ids))
	var bytes int64
	for _, id := range ids {
		p, _ := w.Pane(id)
		sets, err := roccom.PaneIOSets(w, p, attr)
		if err != nil {
			return err
		}
		segs := roccom.IOSetSegments(sets)
		var n int64
		for _, s := range segs {
			n += int64(len(s))
		}
		bytes += n
		blocks = append(blocks, segs)
		sizes = append(sizes, n)
	}
	c.m.BytesOut += bytes
	c.mx.bytesOut.Add(bytes)

	hdr := writeHdr{
		File: file, Window: w.Name, Attr: attr,
		Time: tm, Step: int32(step),
		NBlocks: int32(len(blocks)), Bytes: bytes,
	}
	enc := encodeWriteHdr(hdr)
	// Ship header and blocks, then wait for the ack, which arrives when
	// the server has safely buffered (or written) everything. A timed-out
	// ack fails the whole write over to a surviving server and resends it
	// from scratch (blocks may then exist in two servers' files; restart
	// dedupes) — from the same pane views, which nothing changes meanwhile.
	var damaged error
	err := c.withFailover("write "+file, func(target int) bool {
		c.world.Send(target, tagWriteHdr, enc)
		for _, segs := range blocks {
			if c.blockOH > 0 {
				c.ctx.Clock().Compute(c.blockOH)
			}
			c.world.Send(target, tagWriteBlock, segs...)
		}
		data, _, ok := c.recv(target, tagWriteAck)
		if ok && len(data) > 0 {
			damaged = fmt.Errorf("rocpanda: unexpected %d-byte ack payload", len(data))
		}
		if ok {
			c.acked |= 1 << slices.Index(c.srvRanks, target)
		}
		return ok
	})
	if err == nil && damaged != nil {
		// A write ack carries nothing; one that does is protocol damage, and
		// whether the server took the blocks is unknown. Fail this write and
		// let the next Sync's allreduce refuse the generation.
		err = fmt.Errorf("rocpanda: write %s: %w", file, damaged)
		if c.ackErr == nil {
			c.ackErr = err
		}
	}
	if err == nil && c.deltaOn {
		// The server has the bytes; record each pane's shipped epoch so the
		// next delta skips it unless it dirties again.
		for i, id := range ids {
			c.tracker.MarkShipped(w.Name, id, epochs[id], sizes[i])
		}
	}
	return err
}

// ReadAttribute implements roccom.IOService: collective restart. The
// window's registered pane IDs define this client's wanted blocks; every
// client sends its list to every server, and servers ship back the blocks
// found in their round-robin share of the snapshot files — by direct
// offset reads planned from the generation's block catalog, or from the
// same catalog derived from the files' directories where it has none.
func (c *Client) ReadAttribute(file string, w *roccom.Window, attr string) error {
	return c.ReadPanes(file, w, attr, w.PaneIDs())
}

// ReadPanes is ReadAttribute with an explicit wanted-pane list, the M×N
// building block: a restart run's panes come from the repartitioner (see
// PanesForRestart), not from what this rank happened to write — with attr
// "all" the panes need not be registered in the window yet. The call is
// collective over the clients even when this rank wants nothing (an empty
// list still sends the request, so servers see every requester).
func (c *Client) ReadPanes(file string, w *roccom.Window, attr string, ids []int) error {
	if c.shutdown {
		return fmt.Errorf("rocpanda: read after shutdown")
	}
	t0 := c.ctx.Clock().Now()
	defer func() {
		d := c.ctx.Clock().Now() - t0
		c.m.VisibleRead += d
		c.mx.visibleRead.Observe(d)
	}()

	// Agree on the surviving servers first (collective), so every client
	// sends to the same set and the round-robin file assignment covers
	// every snapshot file even in degraded mode.
	if c.timeout > 0 {
		c.shareDeaths()
	}
	alive := c.dead.alive(c.numServers)
	if len(alive) == 0 {
		return fmt.Errorf("rocpanda: restart of %q: all %d servers failed", file, c.numServers)
	}

	req := readReq{File: file, Window: w.Name, Attr: attr,
		PaneIDs: make([]int32, len(ids)), Alive: make([]int32, len(alive))}
	if c.myIdx == 0 { // every client's Reader was handed the same head record
		req.Head = c.rd.Given(file)
	}
	for i, id := range ids {
		req.PaneIDs[i] = int32(id)
	}
	for i, si := range alive {
		req.Alive[i] = int32(si)
	}
	enc := encodeReadReq(req)
	asked := make(map[int]bool, len(alive)) // world ranks; each reports once
	for _, si := range alive {
		c.world.Send(c.srvRanks[si], tagReadReq, enc)
		asked[c.srvRanks[si]] = true
	}

	// The round is read to its last done, whatever a block held: a message
	// left unread would be taken for the next round's. A failure sticks in
	// the receiver and is returned after the round. Only the restart tags
	// are received, so a stale write ack of a failed-over operation is never
	// misread. A pane can arrive more than once: a client whose write ack
	// the network dropped resent the write elsewhere, duplicating the pane
	// across two servers' files. First arrival wins (the copies are
	// identical); recovered panes are counted once.
	rcv := snapshot.NewReceiver(w, attr, ids)
	for len(asked) > 0 {
		data, st, ok := c.recv(mpi.AnySource, tagReadBlock, tagReadDone)
		if !ok {
			// The wait expired with servers still owing their done: they
			// are dead (or cut off), and every message they did send has
			// been taken. Mark them so the next attempt — typically the
			// caller falling back a generation — agrees on the survivors.
			for rank := range asked {
				c.markDeadRank(rank)
			}
			rcv.Fail(fmt.Errorf("rocpanda: restart of %q stalled (%d of %d servers reported)",
				file, len(alive)-len(asked), len(alive)))
			break
		}
		if st.Tag == tagReadDone {
			delete(asked, st.Source)
		} else if sets, err := roccom.DecodeIOSets(data); err != nil {
			rcv.Fail(err)
		} else {
			rcv.Deliver(sets) // a failure sticks: Complete reports it
		}
	}
	// A read that fails on one client fails on all: the panes it lacks may
	// sit in a file no server could read, or with a server declared dead on
	// a lost message, and a client whose share held none of them must not
	// go on to a next collective read its peers never make.
	err := rcv.Complete(file)
	if peer := mpi.Agree(c.comm, err); err == nil && peer != nil {
		err = fmt.Errorf("rocpanda: restart of %q: %w: %w", file, ErrIncompleteRestart, peer)
	}
	return err
}

// Sync implements roccom.IOService: it blocks until this client's server
// has drained all buffered output to the filesystem and closed the files.
func (c *Client) Sync() error {
	if c.shutdown {
		return fmt.Errorf("rocpanda: sync after shutdown")
	}
	t0 := c.ctx.Clock().Now()
	defer func() {
		d := c.ctx.Clock().Now() - t0
		c.m.SyncWait += d
		c.mx.syncWait.Observe(d)
	}()
	// Sync is collective: align the clients first, so no server starts a
	// long synchronous drain while a peer's collective write is still
	// being ingested (which would charge the drain to that write's
	// visible time).
	c.comm.Barrier()
	if c.timeout > 0 {
		// Coordinator agreement: merge death observations so a client
		// whose server died since its last contact learns it here instead
		// of through its own timeout.
		c.shareDeaths()
	}
	var drainErr error
	var published []catalog.Report // what the server reported, if this client's sync was its first
	err := c.withFailover("sync", func(target int) bool {
		c.world.Send(target, tagSync, nil)
		data, _, ok := c.recv(target, tagSyncAck)
		if ok {
			published, drainErr = decodeAck(data)
		}
		return ok
	})
	// A server that acked this client's writes of the epoch and has since
	// been declared dead holds panes no survivor has. After a peer's dropped
	// ack it is alive: sync it too, so the files it publishes join the
	// commit and the generation's pane universe is whole. Its timed wait
	// expires only if it really is gone; the commit then proceeds on what
	// survives, as before, and a read of the lost panes finds them missing.
	for i, rank := range c.srvRanks {
		if err != nil || !c.acked.has(i) || !c.dead.has(i) {
			continue
		}
		c.world.Send(rank, tagSync, nil)
		if data, _, ok := c.recv(rank, tagSyncAck); ok {
			ps, e := decodeAck(data)
			published = append(published, ps...)
			drainErr = cmp.Or(drainErr, e)
		}
	}
	c.acked = 0
	// The server answered, but some of its output never landed (a failed
	// block write or file close), or an earlier write's ack was damaged:
	// the generation is incomplete and must not commit.
	if err == nil {
		err = drainErr
	}
	if err == nil {
		err = c.ackErr
	}
	// Each client enters the commit allreduce only after its own server's
	// sync ack, so it is also the barrier behind every server's drain.
	return c.pending.Commit(err, published, c.chainInfo)
}

// chainInfo is the commit protocol's per-generation hook: for a delta it
// gathers the chain facts the manifest records, and either way it advances
// this client's chain state.
func (c *Client) chainInfo(g *snapshot.PendingGen) *snapshot.ChainInfo {
	if !c.deltaOn {
		return nil
	}
	if !g.Delta {
		c.lastBase, c.lastDepth = g.Base, 0
		return nil
	}
	// A delta's manifest must record the generation's global pane
	// universe, and panes live where their owners are — no single client
	// knows the whole set, so gather every client's local universe to the
	// committer. Collective: every client's pending list is identical
	// (writes are collective).
	blob, _ := json.Marshal(g.Panes)
	parts := c.comm.Gather(0, blob)
	var chain *snapshot.ChainInfo
	if c.myIdx == 0 {
		chain = &snapshot.ChainInfo{
			Base:  c.lastBase,
			Depth: c.lastDepth + 1,
			Panes: mergeUniverses(parts),
		}
	}
	// Chain state advances on every client, commit outcome regardless: if
	// the commit fails, the next delta chains to an uncommitted base,
	// LoadChain refuses it, and restore falls back — the same degradation a
	// lost manifest already gets.
	c.lastBase, c.lastDepth = g.Base, c.lastDepth+1
	return chain
}

// mergeUniverses unions the clients' per-window pane universes into one
// sorted global set per window.
func mergeUniverses(parts [][]byte) map[string][]int {
	seen := make(map[string]map[int]bool)
	for _, blob := range parts {
		var local map[string][]int
		if json.Unmarshal(blob, &local) != nil {
			continue // cannot happen: we marshaled it ourselves
		}
		for w, ids := range local {
			if seen[w] == nil {
				seen[w] = make(map[int]bool)
			}
			for _, id := range ids {
				seen[w][id] = true
			}
		}
	}
	merged := make(map[string][]int, len(seen))
	for w, set := range seen {
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		merged[w] = ids
	}
	return merged
}

// PanesForRestart returns the panes this client should recover from a
// committed generation: the generation's pane universe for the window
// (from the block catalog, or the same catalog derived from the files'
// directories when the committed one is missing or damaged), cut into
// contiguous runs over the current client count (catalog.Repartition).
// Every client computes the same assignment with no communication, so a
// run may restart with any topology — more clients, fewer, different
// server counts — and ReadPanes with attr "all" rebuilds panes this rank
// never wrote. The universe comes from the client's Reader
// (snapshot.Reader.PaneUniverse): from the chain it holds of base (client
// 0's RestoreLatest judged it; any client held a full generation's index on
// an earlier restart), else from a fresh read of the head's commit record.
// rochdf.Rochdf deals the same way.
func (c *Client) PanesForRestart(base, window string) ([]int, error) {
	ids, err := c.rd.PaneUniverse(base, window)
	if err != nil {
		return nil, err
	}
	return catalog.Repartition(ids, c.nClients)[c.myIdx], nil
}

// RestoreLatest walks the snapshot generations under prefix newest-first
// — skipping uncommitted and damaged ones — and calls restore with each
// candidate base until one succeeds on every client, returning that base.
// Collective over the clients; restore is typically a ReadAttribute (or
// several). It is the restore walk on the client's Reader
// (snapshot.Reader.Restore): client 0 judges each generation through the
// driver the servers read with, counting on rocpanda.restart.*.
func (c *Client) RestoreLatest(prefix string, restore func(base string) error) (string, error) {
	if c.shutdown {
		return "", fmt.Errorf("rocpanda: restore after shutdown")
	}
	return c.rd.Restore(c.comm, prefix, restore)
}

// Fail records a step the caller could not finish on this client: from then
// on every Sync and Shutdown refuses to commit, on every client, as after a
// damaged write ack.
func (c *Client) Fail(err error) {
	if c.ackErr == nil {
		c.ackErr = err
	}
}

// Shutdown is collective over the clients: it drains the servers and
// releases them from their service loops. The client communicator remains
// usable; further I/O calls fail.
func (c *Client) Shutdown() error {
	if c.shutdown {
		return nil
	}
	c.shutdown = true
	// Collective: no client may trigger its server's final drain while a
	// peer is still mid-operation.
	c.comm.Barrier()
	if c.timeout > 0 {
		c.shareDeaths()
	}
	// Release every server this client ever announced itself to, dead or
	// not: sends never block on the receiver, and a server we wrongly
	// declared dead still holds us in its served set — it must get our
	// shutdown or it would wait forever. Acks are awaited from servers
	// believed alive, and, as Sync does, from one declared dead that acked
	// writes since the last sync: its published files join the commit.
	for _, t := range c.contacted {
		c.world.Send(t, tagShutdown, nil)
	}
	var drainErr error
	var published []catalog.Report
	for _, t := range c.contacted {
		if i := slices.Index(c.srvRanks, t); c.dead.has(i) && !c.acked.has(i) {
			continue
		}
		data, _, ok := c.recv(t, tagShutdownAck)
		if !ok {
			c.markDeadRank(t) // died during shutdown; nothing left to do
			continue
		}
		ps, err := decodeAck(data)
		if err != nil && drainErr == nil {
			drainErr = fmt.Errorf("rocpanda: shutdown: %w", err)
		}
		published = append(published, ps...)
	}
	// Generations written but never synced drain as the servers shut
	// down; commit them now so the last snapshot of a run is restorable,
	// unless some server's drain failed. (A server that merely timed out
	// does not count: the commit proceeds on what survives, and restart
	// falls back a generation if the snapshot proves incomplete.)
	if drainErr == nil {
		drainErr = c.ackErr
	}
	return c.pending.Commit(drainErr, published, c.chainInfo)
}

// Module returns a roccom.Module exposing this client as the
// interchangeable I/O service named at load time (e.g. "RocpandaIO").
func (c *Client) Module() roccom.Module { return roccom.IOModule(c, c.Shutdown) }
