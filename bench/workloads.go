package main

import (
	"genxio/internal/hdf"
	"genxio/internal/rocpanda"
)

// The two data shapes. Large blocks make per-byte costs (copies, CRC,
// encode) dominate; small blocks make per-block and per-dataset costs
// (messages, map lookups, one WriteAt per dataset, catalog entries,
// allocations) dominate. Per client; every wall-clock workload has four.
var (
	largeShape = shape{Panes: 24, Nodes: 4000} // ~29 MB state per generation, ~300 KB per pane
	smallShape = shape{Panes: 400, Nodes: 48}  // 2x5x5-node blocks: ~5 MB per generation, ~3 KB per pane, ~10 k datasets
	vtShape    = shape{Panes: 24, Nodes: 400}  // the paper's lab-scale block size, 16 clients
)

const (
	// gensPerEpoch collective writes go back to back before one Sync
	// commits them all: how rocman uses the service, and what lets a
	// server ingest generation g+1 while generation g drains.
	gensPerEpoch = 4
	// fullEvery is the delta cadence of the features workloads.
	fullEvery = 4
	// retainGens keeps the filesystem at one epoch so it does not grow.
	retainGens = 4
	// dirtyShare of each client's panes is mutated before every write of
	// a features workload.
	dirtyShare = 0.25
)

// workload is one benchmark row: a configuration of the I/O stack, a
// data shape and a loop. Epochs and Restarts size one repetition; -seconds
// decides how many repetitions fit (never fewer than minReps measured).
type workload struct {
	Name string
	Why  string

	Virtual bool // simulated Turing and virtual time; otherwise ChanWorld + MemFS and wall time
	TRochdf bool // T-Rochdf on every rank; otherwise Rocpanda clients + servers
	Clients int
	Servers int
	Shape   shape
	// Panda returns the Rocpanda configuration for a world with the given
	// server count (the write world, or the restart world below).
	Panda    func(servers int) rocpanda.Config
	Features bool // dirty a share of panes before each write; restart through RestoreLatest
	// RestartClients/RestartServers, when set, restart in a second world
	// of that topology (M×N); otherwise the writing world restarts itself.
	// Wall-clock only: a simulated world's filesystem ends with its Run.
	RestartClients int
	RestartServers int

	Epochs int
	// SyncEveryWrite shrinks an epoch from gensPerEpoch writes to one.
	// The features workloads need it: committing two delta generations in
	// one Sync gathers their pane universes back to back, mpi's flat
	// Gather receives from any source, a fast client's second message
	// lands in the first gather, and the manifests record a partial
	// universe — PanesForRestart then restores a subset without an error.
	// Drop this (and restore four-write epochs there) once that is fixed.
	SyncEveryWrite bool
	Restarts       int
	// ThinkSeconds of Clock.Compute after each write: virtual workloads
	// only, where it is exact. Wall-clock workloads have none — idle
	// vCPUs and cold caches between phases distort every later phase.
	ThinkSeconds float64
}

func (wl *workload) gensPerEpoch() int {
	if wl.SyncEveryWrite {
		return 1
	}
	return gensPerEpoch
}

func (wl *workload) gens() int { return wl.Epochs * wl.gensPerEpoch() }

func (wl *workload) maxClients() int { return max(wl.Clients, wl.RestartClients) }

// faithful is the paper's own engine: active buffering drained in the
// server's request loop between probes, serial restart read, one copy,
// full snapshots.
func faithful(servers int) rocpanda.Config {
	return rocpanda.Config{
		NumServers:        servers,
		Profile:           hdf.NullProfile(),
		ActiveBuffering:   true,
		RetainGenerations: retainGens,
	}
}

// sched moves drain and restart reads onto iosched worker pools.
func sched(servers int) rocpanda.Config {
	cfg := faithful(servers)
	cfg.AsyncDrain = true
	cfg.DrainWriters = 2
	cfg.BufferBudgetBytes = 64 << 20
	cfg.ParallelRead = true
	cfg.ReadWorkers = 4
	cfg.ReadBudgetBytes = 32 << 20
	return cfg
}

// features turns everything on: both pools, two copies, delta chains.
func features(servers int) rocpanda.Config {
	cfg := sched(servers)
	cfg.ReplicationFactor = 2
	cfg.DeltaSnapshots = true
	cfg.FullEvery = fullEvery
	return cfg
}

// onTuring charges the simulated platform's costs: the HDF4 management
// profile and the server's buffer-copy bandwidth.
func onTuring(base func(int) rocpanda.Config) func(int) rocpanda.Config {
	return func(servers int) rocpanda.Config {
		cfg := base(servers)
		cfg.Profile = hdf.HDF4Profile()
		cfg.MemcpyBW = 300e6
		return cfg
	}
}

// workloads is the benchmark. Repetition sizes are cut from the issue's
// plan (20-25 epochs, 30-40 restarts) so that a warm-up and five measured
// repetitions fit the ten-second run the driver allows; the ratios
// between write and restart work are kept.
var workloads = []workload{
	{
		Name:    "panda-exposed",
		Why:     "paper-faithful Rocpanda on large blocks, no think time: every write- and read-path layer is on the critical path and per-byte costs dominate",
		Clients: 4, Servers: 2, Shape: largeShape, Panda: faithful,
		Epochs: 6, Restarts: 9,
	},
	{
		Name:    "panda-sched",
		Why:     "same inputs with AsyncDrain and ParallelRead: drain and restart reads run as iosched tasks, so an iosched gain shows here and not on panda-exposed",
		Clients: 4, Servers: 2, Shape: largeShape, Panda: sched,
		Epochs: 6, Restarts: 9,
	},
	{
		Name:    "panda-smallblocks",
		Why:     "paper-faithful Rocpanda on 3 KB panes: per-block and per-dataset overhead dominates and per-byte cost is small, the opposite of panda-exposed",
		Clients: 4, Servers: 2, Shape: smallShape, Panda: faithful,
		Epochs: 6, Restarts: 10,
	},
	{
		Name:    "panda-features",
		Why:     "all features on (async drain, parallel read, R=2, delta chains, 25% dirty) with a 3+1 M-by-N restart: a gain for plain snapshots that costs replicated or chained ones shows",
		Clients: 4, Servers: 2, Shape: largeShape, Panda: features, Features: true,
		RestartClients: 3, RestartServers: 1,
		Epochs: 24, SyncEveryWrite: true, Restarts: 9,
	},
	{
		Name:    "trochdf-individual",
		Why:     "T-Rochdf, one file per rank, no mpi wire and no server: an hdf gain must show here and on panda-exposed, a rocpanda or mpi gain must leave this flat",
		TRochdf: true, Clients: 4, Shape: largeShape,
		Epochs: 16, Restarts: 24,
	},
	{
		Name:    "vt-turing-faithful",
		Why:     "simulated Turing (NFS, NIC serialisation), 16+2 ranks, 20 virtual s of think per write: the only place hidden-versus-exposed drain is measured, and it repeats exactly per seed",
		Virtual: true, Clients: 16, Servers: 2, Shape: vtShape, Panda: onTuring(faithful),
		Epochs: 3, Restarts: 3, ThinkSeconds: 20,
	},
	{
		Name:    "vt-turing-features",
		Why:     "simulated Turing with the panda-features configuration: where the composed-feature defects live (R=2 file-deal skew, the drain cliff); a fix must leave vt-turing-faithful unmoved",
		Virtual: true, Clients: 16, Servers: 2, Shape: vtShape, Panda: onTuring(features), Features: true,
		Epochs: 12, SyncEveryWrite: true, Restarts: 3, ThinkSeconds: 20,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
