// Package rocpanda implements the paper's client-server collective I/O
// library (a special edition of the Panda parallel I/O library adapted to
// GENx): some processors are dedicated as I/O servers, and the compute
// clients ship whole data blocks — irregular, per-client collections of
// datasets — to their server instead of defining any global data
// distribution. The design follows Section 4.1 and Figure 2:
//
//   - Initialization splits MPI_COMM_WORLD into a client communicator
//     (returned to the application, which uses it for everything) and the
//     server ranks, which enter the server routine and never return to the
//     application. Servers are placed on distinct SMP nodes by spreading
//     them across the global rank space (ranks 0, T/m, 2T/m, ...).
//
//   - Collective write: every client sends a header plus its data blocks
//     to its assigned server; with active buffering (Section 6.1) the
//     server only buffers them (memory-speed) and acknowledges, so the
//     client-visible cost is the transfer, not the file I/O. Servers
//     drain buffers to scientific-format files while clients compute,
//     checking for new requests between block writes (non-blocking probe)
//     and blocking in probe when idle — leaving their CPU to the OS.
//     If the buffer budget is exceeded the server drains synchronously
//     to make room, which delays the acknowledgement (graceful overflow).
//     All of it is the write service Rochdf and T-Rochdf also run
//     (internal/snapshot.Writer, fed from the MPI stream): the in-loop
//     drain is its zero-worker driver, a background writer pool the other.
//
//   - Collective read (restart): every client sends its wanted block list
//     to every server; snapshot files are assigned to servers round-robin
//     by their home index (base_sHHH[rN].rhdf goes to survivor HHH mod
//     the survivor count); each server finds the requested blocks in its
//     files — through the generation's block catalogs, committed or
//     derived from the files' directories — and ships them to the owning clients, so a
//     run may restart with a different number of servers than wrote the
//     files. A full generation and a delta chain follow the same plan,
//     executed by the restart-read service Rochdf and T-Rochdf also run
//     (internal/snapshot.Reader); a server adds the request accumulation,
//     the deal and the shipping (server.serveRead).
package rocpanda

import (
	"fmt"

	"genxio/internal/delta"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/snapshot"
	"genxio/internal/trace"
)

// Placement controls where the dedicated servers sit in the global rank
// space.
type Placement int

// Placements.
const (
	// Spread places servers at global ranks 0, T/m, 2T/m, ... so each
	// lands on a different SMP node (the paper's choice).
	Spread Placement = iota
	// Packed places servers on the last m global ranks (an ablation:
	// servers share nodes, clients saturate the rest).
	Packed
)

// Config configures Rocpanda initialization.
type Config struct {
	// NumServers is the number of dedicated I/O server processes, at least
	// 1 (the paper typically runs >= 8 clients per server).
	NumServers int
	// Placement selects server placement (default Spread).
	Placement Placement
	// Profile is the scientific-library cost model (HDF4 in the paper),
	// charged per dataset the servers create; restart reads go straight
	// to the extents and charge none.
	Profile hdf.CostProfile
	// ActiveBuffering enables the paper's overlap scheme. When false the
	// server writes each block before acknowledging (write-through; the
	// ablation baseline).
	ActiveBuffering bool
	// AsyncDrain picks the write service's driver (snapshot.Writer). Off,
	// the request loop drains one buffered block whenever its probe comes
	// back empty — the paper's server. On, the same steps move onto a
	// background writer pool: blocks go to disk while the loop keeps
	// absorbing client writes. Requires ActiveBuffering; output files are
	// byte-identical either way.
	AsyncDrain bool
	// DrainWriters sizes the background writer pool (AsyncDrain only).
	// Blocks route to writers by destination file, so extra writers help
	// only when snapshot generations overlap. Clamped to [1, 8]; default 1.
	DrainWriters int
	// BufferBudgetBytes bounds the server-side buffer — the bytes queued
	// to the write service, under either driver (the budget rule is stated
	// in internal/snapshot/writer.go); 0 means unbounded.
	BufferBudgetBytes int64
	// ParallelRead picks the read service's driver (snapshot.Reader). Off,
	// the request loop runs each file's reads itself, one file at a time —
	// the paper's restart. On, the same reads move onto a pool of read
	// workers: the planned extents are
	// read concurrently, with disk reads of one file pipelined against the
	// network shipping of another. Restored panes are bit-identical either
	// way (clients dedupe on first arrival, and all shipping stays on the
	// server's request loop in plan order).
	ParallelRead bool
	// ReadWorkers sizes the read-worker pool (ParallelRead only). Clamped
	// to [1, 8]; default 4.
	ReadWorkers int
	// ReadBudgetBytes bounds the read bytes in flight to the worker pool
	// (ParallelRead only), so a restart cannot balloon server memory: a
	// task that would overrun the budget waits for outstanding reads to
	// complete first. 0 means unbounded; a one-byte budget degenerates to
	// one read at a time.
	ReadBudgetBytes int64
	// ReplicationFactor is the number of copies of each pane block the
	// servers keep per generation. With R >= 2 every server writes its
	// blocks to its primary file and to R-1 byte-identical replica files
	// homed at the other servers' file sets (base_sHHHrN.rhdf), routed
	// through the same sink or writer pool as the primaries. At restart a
	// failed open, read, or CRC on any planned copy retries the affected
	// panes against the remaining copies (rocpanda.restart.replica_reads,
	// .repaired_panes), so a generation falls back only when some pane is
	// bad in every copy. <= 1 writes primaries only, byte-identical to
	// the unreplicated layout.
	ReplicationFactor int
	// MemcpyBW is the server's buffer-copy bandwidth (bytes/s) charged
	// per buffered block on simulated platforms; <= 0 charges nothing.
	MemcpyBW float64
	// PerBlockOverhead is the client-side protocol cost charged per data
	// block shipped (packing, handshake bookkeeping); <= 0 charges
	// nothing. On simulated platforms this models the per-message cost
	// of the era's MPI stacks, which dominates a single sender's
	// throughput and underlies Figure 3(a)'s ramp from 1 to 15
	// processors per node.
	PerBlockOverhead float64
	// Compress stores snapshot datasets deflate-compressed on the
	// servers.
	Compress bool
	// DeltaSnapshots enables incremental snapshot generations
	// (internal/delta): a collective write ships only the panes whose data
	// changed since they were last shipped — tracked through per-pane
	// dirty epochs, see roccom.Window.MarkDirty — and the generation
	// commits as a delta chained to the previous one (the manifest records
	// BaseGeneration, ChainDepth, and the global pane universe). Restart
	// resolves each pane to the newest chain link holding it through the
	// links' block catalogs; a broken link fails the head generation and
	// restore falls back past the whole chain.
	DeltaSnapshots bool
	// FullEvery makes every Nth generation of a run a full snapshot (all
	// panes shipped, chain depth reset), bounding chain length and the
	// blast radius of a lost base. The first generation of a run is always
	// full; <= 0 chains every later generation to it. Delta mode only.
	FullEvery int
	// RetainGenerations, when positive, prunes all but the newest N
	// snapshot generations (files and manifests) after each commit. Zero
	// keeps everything.
	RetainGenerations int
	// Metrics, if set, receives rocpanda.client.* and rocpanda.server.*
	// counters, gauges and latency histograms from every rank sharing the
	// registry — the only tally the servers keep (a server that dies to an
	// injected crash counts in rocpanda.server.crashes). Every rank builds
	// its own Config, so a caller wanting a per-server view hands each rank
	// its own registry. A nil registry disables all recording at no cost.
	Metrics *metrics.Registry
	// Trace, if set, receives background-drain phase spans from the writer
	// pool (servers record on timeline rows after the client ranks). A nil
	// recorder disables recording at no cost.
	Trace *trace.Recorder

	// Fault tolerance (internal/faults).

	// Crash, if set, kills the matching server at the configured point of
	// its service loop — deterministic fault injection for exercising the
	// failover and restart paths.
	Crash *faults.CrashPlan
	// RetryTimeout, when positive, turns failover on: every client-side
	// wait for a server response becomes a timed receive of this many
	// seconds (mpi.Comm.RecvTimed), which expires only once the response
	// can no longer come. An expired wait declares that server dead and
	// fails the client over to a surviving server, per the coordinator's
	// deterministic reassignment. Zero disables failover: a dead server
	// then hangs its clients until the world reports the deadlock, as
	// plain MPI would hang. At most 64 servers with failover on.
	RetryTimeout float64
}

// serverRanks returns the global ranks acting as servers.
func serverRanks(total, m int, placement Placement) []int {
	ranks := make([]int, m)
	switch placement {
	case Packed:
		for i := range ranks {
			ranks[i] = total - m + i
		}
	default:
		for i := range ranks {
			ranks[i] = i * total / m
		}
	}
	return ranks
}

// Init performs Rocpanda initialization; every rank of the world must call
// it. On client ranks it returns a Client whose Comm is the new client
// communicator. On server ranks it runs the server routine until shutdown
// and then returns (nil, nil) — the rank's main function should simply
// return. With fewer than 2 ranks, or m >= total, Init fails.
func Init(ctx mpi.Ctx, cfg Config) (*Client, error) {
	world := ctx.Comm()
	total := world.Size()
	m := cfg.NumServers
	if m < 1 || m > total-m {
		return nil, fmt.Errorf("rocpanda: %d servers with world size %d (need at least as many clients as servers)", m, total)
	}
	if cfg.RetryTimeout > 0 && m > 64 {
		return nil, fmt.Errorf("rocpanda: failover tracks at most 64 servers, not %d", m)
	}

	srvRanks := serverRanks(total, m, cfg.Placement)
	isServer := false
	myServerIdx := -1
	for i, r := range srvRanks {
		if r == world.Rank() {
			isServer = true
			myServerIdx = i
		}
	}
	var clientRanks []int
	srvSet := make(map[int]bool, m)
	for _, r := range srvRanks {
		srvSet[r] = true
	}
	for r := 0; r < total; r++ {
		if !srvSet[r] {
			clientRanks = append(clientRanks, r)
		}
	}
	n := len(clientRanks)

	// Split the world as the paper describes; the client communicator is
	// what the application computes with from now on.
	color := 0
	if isServer {
		color = 1
	}
	sub := world.Split(color, world.Rank())

	// Client j (in client-communicator order) is served by server
	// j*m/n: contiguous, equal-sized groups.
	assign := func(j int) int { return j * m / n }

	if isServer {
		groups := make(map[int][]int) // server idx -> world ranks of its clients
		for j, wr := range clientRanks {
			groups[assign(j)] = append(groups[assign(j)], wr)
		}
		s := &server{
			ctx:        ctx,
			world:      world,
			idx:        myServerIdx,
			numServers: m,
			myClients:  groups[myServerIdx],
			allClients: clientRanks,
			cfg:        cfg,
			mx:         newSrvMx(cfg.Metrics),
		}
		s.run()
		return nil, nil
	}

	myIdx := -1
	for j, wr := range clientRanks {
		if wr == world.Rank() {
			myIdx = j
		}
	}
	origServer := srvRanks[assign(myIdx)]
	cl := &Client{
		ctx:        ctx,
		world:      world,
		comm:       sub,
		myServer:   origServer,
		srvRanks:   srvRanks,
		numServers: m,
		blockOH:    cfg.PerBlockOverhead,
		pending:    snapshot.NewPending(sub, ctx.FS(), ctx.Clock(), cfg.RetainGenerations, cfg.Metrics),
		rd:         newReader(ctx, &cfg, nil, myIdx),
		nClients:   n,
		myIdx:      myIdx,
		timeout:    cfg.RetryTimeout,
		contacted:  []int{origServer},
		deltaOn:    cfg.DeltaSnapshots,
		fullEvery:  cfg.FullEvery,
		mx:         newClMx(cfg.Metrics),
	}
	if cfg.DeltaSnapshots {
		cl.tracker = delta.NewTracker()
	}
	return cl, nil
}
