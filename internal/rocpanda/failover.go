package rocpanda

// Server failover. Rocpanda has no standby processes: when an I/O server
// dies, its clients are redistributed over the surviving servers and the
// run continues in degraded mode. The "coordinator" is not a process but a
// deterministic protocol every client executes identically:
//
//   - Detection. With Config.RetryTimeout set, every client-side wait for
//     a server response is a timed receive (mpi.Comm.RecvTimed). The world
//     expires it only when every live process is blocked in a world wait:
//     the server's answer can no longer come. So a slow server, however
//     slow, is never declared dead; a crashed one, or one whose answer the
//     network dropped or a partition cut off, is, at a deterministic point.
//     RetryTimeout only orders the expiries and, on the simulated
//     platforms, is the virtual time detection costs.
//
//   - Agreement. At every collective boundary (sync, restart read,
//     shutdown) the clients merge their death observations with one
//     AllreduceOr over the dead set as a bitset, so the surviving set is
//     agreed before any operation that depends on it.
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
	"slices"

	"genxio/internal/mpi"
)

// deadSet is the servers believed dead: bit i for server index i (failover
// allows at most 64 servers; Init checks).
type deadSet uint64

func (d deadSet) has(i int) bool { return d>>i&1 != 0 }

// alive returns the indices of the m servers not in d, in order.
func (d deadSet) alive(m int) []int {
	var alive []int
	for i := 0; i < m; i++ {
		if !d.has(i) {
			alive = append(alive, i)
		}
	}
	return alive
}

// reassignServer returns the server index serving client j of n once the
// servers in dead have failed. Clients whose original server survives keep
// it; orphaned clients are dealt round-robin, in client-index order, over
// the surviving servers. ok is false when no server survives.
func reassignServer(m, n, j int, dead deadSet) (idx int, ok bool) {
	assign := func(j int) int { return j * m / n }
	orig := assign(j)
	if !dead.has(orig) {
		return orig, true
	}
	alive := dead.alive(m)
	if len(alive) == 0 {
		return 0, false
	}
	k := 0 // j's position among the orphaned clients
	for jj := 0; jj < j; jj++ {
		if dead.has(assign(jj)) {
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

// markDeadRank records a server (by world rank) as dead.
func (c *Client) markDeadRank(worldRank int) {
	if i := slices.Index(c.srvRanks, worldRank); !c.dead.has(i) {
		c.dead |= 1 << i
		c.m.Failovers++
		c.mx.failovers.Inc()
	}
}

// shareDeaths is the coordinator's agreement step: one AllreduceOr over the
// dead set merges every client's death observations, so all clients leave
// with the same surviving set. Collective over the client communicator;
// only called when fault tolerance is enabled (RetryTimeout > 0).
func (c *Client) shareDeaths() {
	c.dead = deadSet(c.comm.AllreduceOr(uint64(c.dead)))
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

// recv receives the earliest message from src carrying one of tags; ok is
// false when the timed wait expired (never, with timeouts disabled).
func (c *Client) recv(src int, tags ...int) (data []byte, st mpi.Status, ok bool) {
	data, st, err := c.world.RecvTimed(src, tags, c.timeout)
	return data, st, err == nil
}

// withFailover runs op against the client's current server until it
// succeeds, declaring the target dead and failing over on every expired
// wait. op must send its request(s) to target and report whether the
// server's response arrived.
func (c *Client) withFailover(what string, op func(target int) bool) error {
	for {
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
		c.markDeadRank(target) // so the loop ends once no server is left
	}
}
