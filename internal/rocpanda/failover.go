package rocpanda

// Server failover. Rocpanda has no standby processes: when an I/O server
// dies, its clients are redistributed over the surviving servers and the
// run continues in degraded mode. The "coordinator" is not a process but a
// deterministic protocol every client executes identically:
//
//   - Detection. With Config.RetryTimeout set, every client-side wait for
//     a server response is bounded. A timed-out wait declares that server
//     dead (a false positive merely degrades service, it never corrupts
//     data: the wrongly-declared server keeps its buffered blocks and
//     drains them at its own shutdown).
//
//   - Agreement. At every collective boundary (sync, restart read,
//     shutdown) the clients merge their death observations with one
//     AllreduceMax per server, so the surviving set is agreed before any
//     operation that depends on it.
//
//   - Reassignment. Clients of dead servers are redistributed round-robin
//     over the surviving servers, in client-index order — a pure function
//     of (server count, client count, dead set), so every client computes
//     the same answer with no extra messages.
//
//   - Adoption. A reassigned client announces itself to its new server
//     with tagAdopt before its first retried operation; the server counts
//     it from then on for sync and shutdown accounting
//     (rocpanda.server.clients_adopted). Because every failed-over
//     operation ends with an acknowledged message on the new server, the
//     adoption is always registered before the client proceeds to any
//     later collective.

import (
	"fmt"

	"genxio/internal/mpi"
)

// reassignServer returns the server index serving client j of n once the
// servers in dead have failed. Clients whose original server survives keep
// it; orphaned clients are dealt round-robin, in client-index order, over
// the surviving servers. ok is false when no server survives.
func reassignServer(m, n, j int, dead map[int]bool) (idx int, ok bool) {
	assign := func(j int) int { return j * m / n }
	orig := assign(j)
	if !dead[orig] {
		return orig, true
	}
	var alive []int
	for i := 0; i < m; i++ {
		if !dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return 0, false
	}
	k := 0 // j's position among the orphaned clients
	for jj := 0; jj < j; jj++ {
		if dead[assign(jj)] {
			k++
		}
	}
	return dealt(alive, k), true
}

// dealt is the one round-robin rule over the surviving servers: item k —
// an orphaned client by its position, a snapshot file by its home index —
// goes to alive[k mod len(alive)].
func dealt(alive []int, k int) int { return alive[k%len(alive)] }

// currentServer returns the world rank of the server this client should
// talk to under the present dead set.
func (c *Client) currentServer() (int, bool) {
	idx, ok := reassignServer(c.numServers, c.nClients, c.myIdx, c.dead)
	if !ok {
		return 0, false
	}
	return c.srvRanks[idx], true
}

// aliveIdxs returns the indices of servers not believed dead, in order.
func (c *Client) aliveIdxs() []int {
	var alive []int
	for i := 0; i < c.numServers; i++ {
		if !c.dead[i] {
			alive = append(alive, i)
		}
	}
	return alive
}

// markDeadRank records a server (by world rank) as dead.
func (c *Client) markDeadRank(worldRank int) {
	for i, r := range c.srvRanks {
		if r == worldRank && !c.dead[i] {
			c.dead[i] = true
			c.m.Failovers++
			c.mx.failovers.Inc()
		}
	}
}

// shareDeaths is the coordinator's agreement step: one AllreduceMax per
// server merges every client's death observations, so all clients leave
// with the same surviving set. Collective over the client communicator;
// only called when fault tolerance is enabled (RetryTimeout > 0).
func (c *Client) shareDeaths() {
	for i := 0; i < c.numServers; i++ {
		v := 0.0
		if c.dead[i] {
			v = 1
		}
		if c.comm.AllreduceMax(v) > 0 {
			c.dead[i] = true
		}
	}
}

// ensureAdopted announces this client to target (world rank) if target is
// not its originally assigned server and no announcement was sent yet.
func (c *Client) ensureAdopted(target int) {
	if target == c.myServer {
		return
	}
	for _, t := range c.contacted {
		if t == target {
			return
		}
	}
	c.contacted = append(c.contacted, target)
	c.world.Send(target, tagAdopt, nil)
}

// recvTimeout receives the earliest message matching (src, tag), waiting
// at most RetryTimeout seconds (forever when timeouts are disabled).
func (c *Client) recvTimeout(src, tag int) ([]byte, mpi.Status, bool) {
	if c.timeout <= 0 {
		data, st := c.world.Recv(src, tag)
		return data, st, true
	}
	return c.recvWithin(src, []int{tag}, c.timeout, c.timeout/8)
}

// recvWithin is the one timed wait: the earliest message from src carrying
// one of tags, or false after budget seconds. It polls with exponential
// backoff from retryPoll up to pollCap, so it behaves on both the wall-clock
// and virtual-time backends.
func (c *Client) recvWithin(src int, tags []int, budget, pollCap float64) ([]byte, mpi.Status, bool) {
	clock := c.ctx.Clock()
	deadline := clock.Now() + budget
	poll := retryPoll
	for {
		for _, tag := range tags {
			if _, ok := c.world.Iprobe(src, tag); ok {
				data, st := c.world.Recv(src, tag)
				return data, st, true
			}
		}
		now := clock.Now()
		if now >= deadline {
			return nil, mpi.Status{}, false
		}
		sleep := poll
		if now+sleep > deadline {
			sleep = deadline - now
		}
		clock.Sleep(sleep)
		if poll < pollCap {
			poll *= 2
		}
	}
}

// withFailover runs op against the client's current server until it
// succeeds, declaring the target dead and failing over on every timeout.
// op must send its request(s) to target and report whether the server's
// response arrived in time.
func (c *Client) withFailover(what string, op func(target int) bool) error {
	for attempt := 0; ; attempt++ {
		target, ok := c.currentServer()
		if !ok {
			return fmt.Errorf("rocpanda: %s: all %d servers failed", what, c.numServers)
		}
		c.ensureAdopted(target)
		if op(target) {
			return nil
		}
		c.m.Retries++
		c.mx.retries.Inc()
		c.markDeadRank(target)
		if attempt+1 > c.numServers {
			return fmt.Errorf("rocpanda: %s: no responsive server after %d attempts", what, attempt+1)
		}
	}
}
