// Package genxio is a reproduction of "Flexible and Efficient Parallel I/O
// for Large-Scale Multi-component Simulations" (Ma, Jiao, Campbell,
// Winslett; IPPS 2003): the GENx rocket-simulation parallel I/O stack —
// the Roccom integration framework, the Rocpanda client-server collective
// I/O library with active buffering, the Rochdf/T-Rochdf individual I/O
// modules, an HDF-like scientific file format, simplified physics modules,
// and the simulated evaluation platforms (Turing and ASCI Frost) used to
// regenerate the paper's tables and figures.
//
// This package is the public facade: it re-exports the library's main
// entry points so applications can be written against one import. The
// typical shapes are:
//
//	// Run the integrated simulation on real goroutine ranks with real
//	// files:
//	world := genxio.NewLocalWorld(fs, 1)
//	world.Run(n, func(ctx genxio.Ctx) error {
//		rep, err := genxio.Run(ctx, cfg)
//		...
//	})
//
//	// Or on a simulated platform, in virtual time:
//	world := genxio.NewTuring(seed)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// architecture.
package genxio

import (
	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/physics"
	"genxio/internal/roccom"
	"genxio/internal/rochdf"
	"genxio/internal/rocman"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/trace"
	"genxio/internal/workload"
)

// Message passing and worlds.
type (
	// World launches ranks; Ctx is what each rank's main receives.
	World = mpi.World
	// Ctx is the per-rank execution context.
	Ctx = mpi.Ctx
	// Comm is an MPI-like communicator.
	Comm = mpi.Comm
	// Platform holds a simulated machine's calibrated constants.
	Platform = cluster.Platform
)

// Wildcards for Recv/Probe.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// NewLocalWorld returns the real backend: every rank is a goroutine,
// sharing fs, grouped procsPerNode ranks per (pretend) node.
func NewLocalWorld(fs FS, procsPerNode int) World {
	return mpi.NewChanWorld(fs, procsPerNode)
}

// NewTuring returns the simulated development platform of Section 7.1
// (dual-CPU nodes, Myrinet, single-server NFS).
func NewTuring(seed uint64) *cluster.World {
	return cluster.NewWorld(cluster.Turing(), seed)
}

// NewFrost returns the simulated production platform of Section 7.2
// (16-way SMP nodes, SP Switch2, GPFS).
func NewFrost(seed uint64) *cluster.World {
	return cluster.NewWorld(cluster.Frost(), seed)
}

// Turing and Frost expose the platform presets for customization.
var (
	Turing = cluster.Turing
	Frost  = cluster.Frost
)

// Filesystems and clocks.
type (
	// FS is the filesystem abstraction all I/O goes through.
	FS = rt.FS
	// File is an open file.
	File = rt.File
	// Clock abstracts per-rank time.
	Clock = rt.Clock
)

// NewMemFS returns an in-memory filesystem (tests, demos).
func NewMemFS() *rt.MemFS { return rt.NewMemFS() }

// NewOSFS returns a filesystem rooted at a host directory.
func NewOSFS(dir string) (*rt.OSFS, error) { return rt.NewOSFS(dir) }

// Roccom: data management and the uniform I/O interface.
type (
	// Roccom is the integration hub (windows, functions, modules).
	Roccom = roccom.Roccom
	// Window is a distributed data object partitioned into panes.
	Window = roccom.Window
	// Pane is one data block owned by a single process.
	Pane = roccom.Pane
	// AttrSpec declares a window attribute.
	AttrSpec = roccom.AttrSpec
	// IOService is the uniform 3-call parallel I/O interface.
	IOService = roccom.IOService
	// Module is a loadable service component.
	Module = roccom.Module
)

// Attribute locations.
const (
	NodeLoc = roccom.NodeLoc
	ElemLoc = roccom.ElemLoc
	PaneLoc = roccom.PaneLoc
)

// NewRoccom returns an empty integration hub.
func NewRoccom() *Roccom { return roccom.New() }

// LoadedIO returns the I/O service loaded under a module name.
func LoadedIO(rc *Roccom, module string) (IOService, error) {
	return roccom.LoadedIO(rc, module)
}

// Meshes.
type (
	// Block is a structured or unstructured mesh block.
	Block = mesh.Block
	// CylinderSpec configures the rocket-chamber mesh generator.
	CylinderSpec = mesh.CylinderSpec
)

// Mesh helpers.
var (
	GenCylinder    = mesh.GenCylinder
	PartitionMesh  = mesh.Partition
	Tetrahedralize = mesh.Tetrahedralize
	SplitBlock     = mesh.Split
)

// Scientific file format (RHDF).
type (
	// HDFWriter writes an RHDF file.
	HDFWriter = hdf.Writer
	// HDFReader reads an RHDF file.
	HDFReader = hdf.Reader
	// Dataset describes one named array in a file.
	Dataset = hdf.Dataset
	// CostProfile models HDF4/HDF5 management overheads.
	CostProfile = hdf.CostProfile
)

// DType enumerates dataset element types.
type DType = hdf.DType

// Element types.
const (
	F64 = hdf.F64
	F32 = hdf.F32
	I64 = hdf.I64
	I32 = hdf.I32
	U8  = hdf.U8
)

// Cost profiles and format helpers.
var (
	HDF4Profile = hdf.HDF4Profile
	HDF5Profile = hdf.HDF5Profile
	NullProfile = hdf.NullProfile
	CreateHDF   = hdf.Create
	OpenHDF     = hdf.Open
)

// ErrChecksum is wrapped in errors reported when stored snapshot bytes no
// longer match their recorded CRC32C (check with errors.Is).
var ErrChecksum = hdf.ErrChecksum

// I/O service modules.
type (
	// RocpandaConfig configures the client-server collective I/O.
	RocpandaConfig = rocpanda.Config
	// RocpandaClient is a compute rank's Rocpanda handle.
	RocpandaClient = rocpanda.Client
	// RochdfConfig configures individual I/O.
	RochdfConfig = rochdf.Config
	// Rochdf is one rank's individual-I/O service.
	Rochdf = rochdf.Rochdf
)

// RocpandaInit performs Rocpanda initialization (must be called by every
// world rank); server ranks run the service loop and return (nil, nil).
func RocpandaInit(ctx Ctx, cfg RocpandaConfig) (*RocpandaClient, error) {
	return rocpanda.Init(ctx, cfg)
}

// NewRochdf returns the individual-I/O service for the calling rank.
func NewRochdf(ctx Ctx, cfg RochdfConfig) *Rochdf { return rochdf.New(ctx, cfg) }

// Physics modules.
type (
	// Solver is a physics module stepping a window.
	Solver = physics.Solver
	// BurnModel selects Rocburn's 1-D model (APN, WSB, ZN).
	BurnModel = physics.BurnModel
)

// Burn models.
const (
	APN = physics.APN
	WSB = physics.WSB
	ZN  = physics.ZN
)

// Solver constructors.
var (
	NewRocflo  = physics.NewRocflo
	NewRocfrac = physics.NewRocfrac
	NewRocburn = physics.NewRocburn
	NewRocface = physics.NewRocface
)

// Integrated simulation driver.
type (
	// Config configures a rocman run.
	Config = rocman.Config
	// Report is a run's outcome (client rank 0).
	Report = rocman.Report
	// IOKind selects the I/O module of a run.
	IOKind = rocman.IOKind
	// WorkloadSpec describes a test case.
	WorkloadSpec = workload.Spec
)

// I/O module kinds.
const (
	IORochdf   = rocman.IORochdf
	IOTRochdf  = rocman.IOTRochdf
	IORocpanda = rocman.IORocpanda
)

// Workload builders.
var (
	LabScale    = workload.LabScale
	Scalability = workload.Scalability
)

// TraceRecorder collects per-rank phase intervals for timeline analysis
// (attach one to Config.Trace). Render with Timeline (ASCII), or export
// with WriteJSONL / WriteChromeTrace.
type TraceRecorder = trace.Recorder

// NewTrace returns an empty trace recorder.
func NewTrace() *TraceRecorder { return trace.New() }

// Observability: counters, gauges and latency histograms recorded by the
// I/O stack (attach a registry to Config.Metrics).
type (
	// MetricsRegistry collects named metrics from all ranks sharing it.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, JSON-ready.
	MetricsSnapshot = metrics.Snapshot
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *MetricsRegistry { return metrics.New() }

// Run executes the integrated simulation on the calling rank; every world
// rank must call it. The Report is returned on client rank 0.
func Run(ctx Ctx, cfg Config) (*Report, error) { return rocman.Run(ctx, cfg) }

// MigratePane moves a pane (mesh block + attribute data) between ranks —
// dynamic load balancing that leaves the I/O path untouched.
var MigratePane = rocman.MigratePane

// Rebalance redistributes a window's panes toward equal per-rank load.
var Rebalance = rocman.Rebalance

// Durable snapshots: commit manifests, generation-aware restore, and the
// deep scrub behind cmd/genxfsck. Every I/O module stages RHDF files
// under temporary names and commits a generation by writing its manifest
// last; a restart from the latest (Config.RestartFromLatest, or an I/O
// module's RestoreLatest) walks generations newest-first and falls back
// past corrupt or uncommitted ones.
type (
	// SnapshotManifest is a generation's commit record.
	SnapshotManifest = snapshot.Manifest
	// SnapshotGeneration is one discovered snapshot base.
	SnapshotGeneration = snapshot.Generation
	// FsckReport is one generation's scrub outcome.
	FsckReport = snapshot.GenReport
)

// Snapshot durability helpers.
var (
	// CommitSnapshot writes the manifest commit record for a generation
	// (the I/O modules do this automatically at Sync).
	CommitSnapshot = snapshot.Commit
	// SnapshotGenerations discovers generations under a prefix, newest
	// first.
	SnapshotGenerations = snapshot.Generations
	// PruneSnapshots removes generations beyond a retention limit.
	PruneSnapshots = snapshot.Prune
	// Fsck deep-scrubs every generation under a prefix (payload CRCs
	// included); FsckFormat renders the reports, FsckClean summarizes.
	Fsck       = snapshot.Fsck
	FsckFormat = snapshot.Format
	FsckClean  = snapshot.Clean
)
