// Package cluster implements the simulated evaluation platforms: an
// mpi.World whose ranks run in virtual time on modelled nodes, CPUs,
// network links, and shared filesystems. The same Rocpanda/Rochdf library
// code that runs for real on mpi.ChanWorld runs here unmodified, which is
// how the paper's performance tables and figures are regenerated.
//
// The model captures the effects the paper's results hinge on:
//
//   - Message cost: per-message sender CPU overhead (growing mildly with
//     world size, as on Turing's loaded message system), NIC occupancy at
//     both ends for inter-node transfers (so a Rocpanda server's ingest
//     serializes at its NIC), and a shared per-node memory bus for
//     intra-node transfers (so 15 clients feeding the co-located server
//     share the SMP bus, the 1→15 ramp of Figure 3(a)).
//
//   - OS noise: each node continuously generates operating-system work.
//     If the node has an idle CPU the work is absorbed there for free —
//     this is why leaving one processor per SMP node idle ("15NS") or
//     giving it to a mostly-blocked I/O server ("15S") keeps computation
//     fast, while using all 16 CPUs ("16NS") lets the noise land on
//     compute processes. Barriers turn the per-process noise into a max
//     across all processes, so the 16NS penalty grows with scale
//     (Figure 3(b)).
//
//   - Shared filesystems: fssim's NFS (Turing) and GPFS (Frost) models.
package cluster

import (
	"fmt"

	"genxio/internal/fssim"
	"genxio/internal/mpi"
	"genxio/internal/sim"
	"genxio/internal/stats"
)

// Platform holds the calibrated constants of a simulated machine.
// Bandwidths are bytes/s, latencies and overheads seconds.
type Platform struct {
	Name        string
	CPUsPerNode int

	// Network.
	LinkBW       float64 // inter-node bandwidth per node NIC
	LinkLatency  float64 // inter-node propagation latency
	MemBW        float64 // intra-node transfer bandwidth (shared bus)
	SendOverhead float64 // per-message sender CPU cost
	// SendOverheadPerRank grows the per-message cost with world size,
	// modelling a message system that does not scale (Turing).
	SendOverheadPerRank float64

	// MemcpyBW is the local buffer-copy bandwidth used by buffering I/O
	// schemes (T-Rochdf local buffers, Rocpanda server-side buffers).
	MemcpyBW float64

	// OS noise: when a node has no idle CPU, every compute interval is
	// stretched by NoiseFrac*(1+|N(0,1)|*NoiseSigma) on average, and the
	// node additionally suffers bursts (daemon wakeups, page flushes) at
	// NoiseBurstRate per saturated node-second, each stretching the
	// victim's interval by NoiseBurstFrac. Barriers turn the per-node
	// burst probability into a max across nodes, which is what makes the
	// all-CPUs-busy configuration degrade with scale (Figure 3(b)).
	NoiseFrac      float64
	NoiseSigma     float64
	NoiseBurstRate float64
	NoiseBurstFrac float64

	// NewFS builds the platform's shared filesystem model.
	NewFS func(env *sim.Env) fssim.Model
}

// Turing returns the development platform of Section 7.1: dual-CPU Linux
// nodes on Myrinet with a single-server NFS shared filesystem. It is a
// shared, unscheduled cluster, so noise is high.
func Turing() Platform {
	return Platform{
		Name:                "turing",
		CPUsPerNode:         2,
		LinkBW:              100e6,
		LinkLatency:         20e-6,
		MemBW:               700e6,
		SendOverhead:        30e-6,
		SendOverheadPerRank: 1.2e-6,
		MemcpyBW:            70e6,
		NoiseFrac:           0.02,
		NoiseSigma:          1.0,
		NewFS: func(env *sim.Env) fssim.Model {
			return fssim.NewNFS(env, fssim.NFSParams{})
		},
	}
}

// Frost returns the production platform of Section 7.2: 16-way POWER3 SMP
// nodes on SP Switch2 with a two-server GPFS filesystem.
func Frost() Platform {
	return Platform{
		Name:        "frost",
		CPUsPerNode: 16,
		LinkBW:      350e6,
		LinkLatency: 18e-6,
		// Effective intra-node MPI bandwidth for data-sized messages on
		// the 375 MHz POWER3 SMPs (both-side copies through the shared
		// bus), calibrated to Figure 3(a)'s per-node apparent
		// throughput.
		MemBW:               28e6,
		SendOverhead:        45e-6,
		SendOverheadPerRank: 0.05e-6,
		MemcpyBW:            300e6,
		NoiseFrac:           0.004,
		NoiseSigma:          1.0,
		NoiseBurstRate:      0.06,
		NoiseBurstFrac:      0.35,
		NewFS: func(env *sim.Env) fssim.Model {
			return fssim.NewGPFS(env, fssim.GPFSParams{})
		},
	}
}

// World is a simulated mpi.World on a Platform.
type World struct {
	plat Platform
	seed uint64
	rpn  int // ranks per node; defaults to CPUsPerNode

	// set by Run
	env     *sim.Env
	fsModel fssim.Model
	endTime float64
}

// NewWorld returns a world on platform p. All model randomness derives
// from seed.
func NewWorld(p Platform, seed uint64) *World {
	return &World{plat: p, seed: seed, rpn: p.CPUsPerNode}
}

// WithRanksPerNode overrides how many ranks are placed per node (the
// paper's 15-vs-16-processors-per-node configurations). It returns w.
func (w *World) WithRanksPerNode(k int) *World {
	if k >= 1 {
		w.rpn = k
	}
	return w
}

// VirtualTime returns the virtual end time of the last Run.
func (w *World) VirtualTime() float64 { return w.endTime }

// FSModel returns the filesystem model of the last Run (for traffic
// accounting).
func (w *World) FSModel() fssim.Model { return w.fsModel }

// node models one SMP node.
type node struct {
	id   int
	bus  *sim.Resource // intra-node transfer bus
	nic  *sim.Resource // inter-node link interface
	cpus int
	busy int // activities currently computing on this node
	rng  *stats.RNG
}

// Run implements mpi.World. It builds the platform, runs n ranks in
// virtual time, and returns the first rank error, a simulation deadlock
// error, or nil.
func (w *World) Run(n int, main func(mpi.Ctx) error) error {
	if n < 1 {
		return fmt.Errorf("cluster: world size %d < 1", n)
	}
	env := sim.NewEnv()
	w.env = env
	w.fsModel = w.plat.NewFS(env)
	rootRNG := stats.NewRNG(w.seed ^ 0x9e3779b97f4a7c15)

	numNodes := (n + w.rpn - 1) / w.rpn
	nodes := make([]*node, numNodes)
	for i := range nodes {
		nodes[i] = &node{
			id:   i,
			bus:  env.NewResource(fmt.Sprintf("node%d.bus", i), 1),
			nic:  env.NewResource(fmt.Sprintf("node%d.nic", i), 1),
			cpus: w.plat.CPUsPerNode,
			rng:  rootRNG.Split(),
		}
	}

	mailboxes := make([]*sim.Mailbox, n)
	for i := range mailboxes {
		mailboxes[i] = env.NewMailbox(fmt.Sprintf("rank%d", i))
	}

	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		nd := nodes[r/w.rpn]
		env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			clock := &simClock{p: p, node: nd, plat: &w.plat}
			ctx := &simCtx{
				world:  w,
				rank:   r,
				nranks: n,
				proc:   p,
				node:   nd,
				nodes:  nodes,
				boxes:  mailboxes,
				clock:  clock,
			}
			ctx.comm = mpi.NewWorldComm(&simEndpoint{ctx: ctx})
			defer func() {
				if pv := recover(); pv != nil {
					errs[r] = fmt.Errorf("cluster: rank %d panicked: %v", r, pv)
				}
			}()
			errs[r] = main(ctx)
		})
	}
	err := env.Run()
	w.endTime = env.Now()
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// simClock implements rt.Clock for one simulated activity.
type simClock struct {
	p    *sim.Proc
	node *node
	plat *Platform
}

func (c *simClock) Now() float64 { return c.p.Env().Now() }

// Compute charges CPU work, stretched by OS noise when the node has no
// idle CPU to absorb it.
func (c *simClock) Compute(d float64) {
	if d <= 0 {
		return
	}
	nd := c.node
	nd.busy++
	if nd.busy >= nd.cpus {
		if c.plat.NoiseFrac > 0 {
			jitter := nd.rng.Normal(0, 1)
			if jitter < 0 {
				jitter = -jitter
			}
			d += d * c.plat.NoiseFrac * (1 + c.plat.NoiseSigma*jitter)
		}
		if c.plat.NoiseBurstRate > 0 {
			// In the common bulk-synchronous pattern only the last
			// rank entering a node's compute phase observes the node
			// as saturated, so effectively one draw happens per node
			// per phase; the burst probability is therefore the full
			// per-node rate over this interval.
			p := c.plat.NoiseBurstRate * d
			if p > 0.5 {
				p = 0.5
			}
			if nd.rng.Float64() < p {
				d += d * c.plat.NoiseBurstFrac
			}
		}
	}
	c.p.Wait(d)
	nd.busy--
}
