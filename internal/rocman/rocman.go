// Package rocman is the orchestration module (Figure 1(a)'s manager): it
// assembles the integrated simulation — mesh partitioning, Roccom window
// registration, the physics modules, the interchangeable I/O service —
// and drives the control flow: timestep iterations with a global dt
// reduction (the barrier that synchronizes compute phases), periodic
// snapshots through the loaded I/O module, optional adaptive refinement,
// restart, and final drain.
//
// The same Run function executes on the real goroutine backend (writing
// real files) and on the simulated platforms (regenerating the paper's
// numbers); only the mpi.World the caller passes differs.
package rocman

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/physics"
	"genxio/internal/roccom"
	"genxio/internal/rochdf"
	"genxio/internal/rocpanda"
	"genxio/internal/trace"
	"genxio/internal/workload"
)

// IOKind selects the I/O service module loaded for the run.
type IOKind string

// I/O service modules.
const (
	IORochdf   IOKind = "rochdf"   // individual I/O, synchronous (baseline)
	IOTRochdf  IOKind = "trochdf"  // individual I/O with background thread
	IORocpanda IOKind = "rocpanda" // client-server collective I/O
)

// Config configures an integrated run.
type Config struct {
	// Workload is the test case.
	Workload workload.Spec
	// IO selects the I/O module.
	IO IOKind
	// Rocpanda configures the servers when IO == IORocpanda. Profile
	// and MemcpyBW are filled from the fields below if zero.
	Rocpanda rocpanda.Config
	// Profile is the scientific-library cost model.
	Profile hdf.CostProfile
	// BufferBW is the local buffering bandwidth charged by T-Rochdf on
	// simulated platforms (it includes the scientific-format encoding,
	// so it is well below raw memcpy speed).
	BufferBW float64
	// ServerBufferBW is the Rocpanda server-side buffering bandwidth
	// (raw memcpy); falls back to BufferBW when zero.
	ServerBufferBW float64
	// OutputDir prefixes snapshot base names (default "out").
	OutputDir string
	// RestartFrom, if non-empty, is the snapshot base to restart from
	// before stepping. Requires RefineEvery == 0.
	RestartFrom string
	// RestartFromLatest restores from the newest committed and
	// verifiable snapshot generation under OutputDir before stepping,
	// falling back past corrupt or uncommitted generations. Mutually
	// exclusive with RestartFrom; requires RefineEvery == 0.
	RestartFromLatest bool
	// RetainGenerations, when > 0, keeps only the newest N committed
	// snapshot generations, pruning older ones at every sync. 0 keeps
	// everything.
	RetainGenerations int
	// StrideRealWork runs the solvers' real arithmetic only every k-th
	// step, charging the calibrated cost on the others (>= 1; the
	// timing benches use larger strides since only charged time counts).
	StrideRealWork int
	// RefineEvery splits each rank's largest fluid block every k steps
	// (0 = off) — the paper's dynamically changing block distribution.
	// Requires FluidOnly.
	RefineEvery int
	// RebalanceEvery migrates panes toward equal per-rank load every k
	// steps (0 = off) — the dynamic load balancing the paper credits to
	// Charm++, which also balances the I/O servers' work automatically.
	// Requires FluidOnly.
	RebalanceEvery int
	// FluidOnly drops the solid/burn/interface modules.
	FluidOnly bool
	// FluidSolver selects the gas-dynamics module: "rocflo" (multi-block
	// structured, default) or "rocflu" (unstructured) — GENx's
	// plug-in-physics flexibility.
	FluidSolver string
	// SolidSolver selects the structural module: "rocfrac" (explicit,
	// default) or "rocsolid" (implicit quasi-static).
	SolidSolver string
	// MeasureRestart, after the run completes and drains, performs a
	// timed collective read of the last snapshot (the paper's restart
	// latency measurement); the time lands in Report.VisibleRead.
	MeasureRestart bool
	// Compress stores snapshot datasets deflate-compressed (RHDF's
	// equivalent of HDF's gzip filter).
	Compress bool
	// Trace, if non-nil, records per-rank phase intervals (compute,
	// write, read, sync) for timeline analysis.
	Trace *trace.Recorder
	// Metrics, if non-nil, is handed to the loaded I/O service and the
	// file layer, collecting the run's counters and latency histograms.
	Metrics *metrics.Registry
	// BurnModel selects Rocburn's 1-D model.
	BurnModel physics.BurnModel
}

// Report is the per-run outcome, assembled on client rank 0 (other ranks
// and servers get nil).
type Report struct {
	Steps      int
	Snapshots  int
	NumClients int
	NumServers int

	ComputeTime  float64 // max over clients: time in step iterations
	VisibleWrite float64 // max over clients: time inside write_attribute
	VisibleRead  float64 // max over clients: restart read time
	SyncWait     float64 // max over clients: time inside sync
	BytesOut     int64   // total payload handed to the I/O service
}

// Run executes the integrated simulation; every rank of the world calls
// it. The Report is returned on client rank 0. Once the I/O module is
// loaded, every return releases it through one UnloadModule — for Rocpanda
// the collective Shutdown that frees the servers — failed runs included.
func Run(ctx mpi.Ctx, cfg Config) (report *Report, err error) {
	if cfg.StrideRealWork < 1 {
		cfg.StrideRealWork = 1
	}
	if cfg.OutputDir == "" {
		cfg.OutputDir = "out"
	}
	if (cfg.RefineEvery > 0 || cfg.RebalanceEvery > 0) && !cfg.FluidOnly {
		return nil, fmt.Errorf("rocman: refinement and rebalancing require FluidOnly")
	}
	if cfg.RefineEvery > 0 && (cfg.RestartFrom != "" || cfg.RestartFromLatest) {
		return nil, fmt.Errorf("rocman: refinement and restart are mutually exclusive")
	}
	if cfg.RestartFrom != "" && cfg.RestartFromLatest {
		return nil, fmt.Errorf("rocman: RestartFrom and RestartFromLatest are mutually exclusive")
	}

	// I/O module selection: Rocpanda splits the world; the Rochdf
	// variants use the world communicator directly.
	var (
		comm    mpi.Comm
		mod     roccom.Module
		pandaCl *rocpanda.Client
		hdfSvc  *rochdf.Rochdf
		// The module's Fail (no commit after a failed step) and RestoreLatest
		// (the restore walk, on the module's own restart Reader).
		fail   func(error)
		latest func(string, func(string) error) (string, error)
		rc     = roccom.New()
		nsrv   int
	)
	switch cfg.IO {
	case IORocpanda:
		pcfg := cfg.Rocpanda
		if pcfg.Profile.Name == "" {
			pcfg.Profile = cfg.Profile
		}
		if cfg.Compress {
			pcfg.Compress = true
		}
		if pcfg.MemcpyBW == 0 {
			pcfg.MemcpyBW = cfg.ServerBufferBW
		}
		if pcfg.MemcpyBW == 0 {
			pcfg.MemcpyBW = cfg.BufferBW
		}
		if pcfg.Metrics == nil {
			pcfg.Metrics = cfg.Metrics
		}
		if pcfg.RetainGenerations == 0 {
			pcfg.RetainGenerations = cfg.RetainGenerations
		}
		if pcfg.Trace == nil {
			pcfg.Trace = cfg.Trace
		}
		cl, err := rocpanda.Init(ctx, pcfg)
		if err != nil {
			return nil, err
		}
		if cl == nil {
			return nil, nil // server rank: service loop already done
		}
		pandaCl, comm, nsrv, mod, fail, latest = cl, cl.Comm(), cl.NumServers(), cl.Module(), cl.Fail, cl.RestoreLatest
	case IORochdf, IOTRochdf:
		comm = ctx.Comm()
		hdfSvc = rochdf.New(ctx, rochdf.Config{
			Profile:           cfg.Profile,
			Threaded:          cfg.IO == IOTRochdf,
			BufferBW:          cfg.BufferBW,
			Compress:          cfg.Compress,
			Metrics:           cfg.Metrics,
			RetainGenerations: cfg.RetainGenerations,
		})
		mod, fail, latest = hdfSvc.Module(), hdfSvc.Fail, hdfSvc.RestoreLatest
	default:
		return nil, fmt.Errorf("rocman: unknown I/O module %q", cfg.IO)
	}
	if err := rc.LoadModule(mod, "IO"); err != nil {
		return nil, err
	}
	defer func() {
		if uerr := rc.UnloadModule("IO"); err == nil {
			err = uerr
		}
		if err != nil {
			report = nil
		}
	}()
	svc, err := roccom.LoadedIO(rc, "IO")
	if err != nil {
		return nil, err
	}

	sim, err := build(ctx, rc, comm, cfg)
	if err != nil {
		return nil, err
	}

	if cfg.RestartFrom != "" {
		if err := sim.restart(svc, cfg.RestartFrom); err != nil {
			return nil, err
		}
	}
	if cfg.RestartFromLatest {
		if _, err := latest(cfg.OutputDir+"/", func(base string) error {
			return sim.restart(svc, base)
		}); err != nil {
			return nil, err
		}
	}

	// A failed run still drains, with its module told: no pending generation
	// commits, and the commit allreduce carries a last step's failure to
	// every rank. The deferred unload releases the service.
	runErr := sim.run(svc, cfg)
	if runErr != nil {
		fail(runErr)
	}
	syncT0 := ctx.Clock().Now()
	if err := svc.Sync(); runErr != nil || err != nil {
		return nil, cmp.Or(runErr, err)
	}
	cfg.Trace.Record(comm.Rank(), trace.PhaseSync, syncT0, ctx.Clock().Now())
	if cfg.MeasureRestart {
		spec := cfg.Workload
		last := 0
		if spec.SnapshotEvery > 0 {
			last = spec.Steps / spec.SnapshotEvery * spec.SnapshotEvery
		}
		base := fmt.Sprintf("%s/snap%06d", cfg.OutputDir, last)
		// Align the clients first so the measurement excludes sync
		// completion skew between server groups.
		comm.Barrier()
		if err := sim.restart(svc, base); err != nil {
			return nil, err
		}
	}
	return sim.gatherReport(comm, pandaCl, hdfSvc, nsrv)
}

// genx holds one client rank's simulation state.
type genx struct {
	ctx     mpi.Ctx
	comm    mpi.Comm
	cfg     Config
	fluid   *roccom.Window
	solid   *roccom.Window
	flo     *physics.Rocflo // set when FluidSolver is "rocflo"
	burn    *physics.Rocburn
	face    *physics.Rocface
	solvers []physics.Solver

	nextID      int // next refinement block ID (globally unique)
	computeTime float64
	snapshots   int
	steps       int
}

// build partitions the workload mesh and assembles windows and solvers.
func build(ctx mpi.Ctx, rc *roccom.Roccom, comm mpi.Comm, cfg Config) (*genx, error) {
	spec := cfg.Workload
	blocks, err := spec.Blocks()
	if err != nil {
		return nil, err
	}
	assign, err := mesh.Partition(blocks, comm.Size())
	if err != nil {
		return nil, err
	}
	mine := assign[comm.Rank()]

	g := &genx{ctx: ctx, comm: comm, cfg: cfg}
	g.nextID = 1 << 20
	g.nextID += comm.Rank() << 14 // rank-disjoint refinement ID space

	g.fluid, err = rc.NewWindow("fluid")
	if err != nil {
		return nil, err
	}
	switch cfg.FluidSolver {
	case "", "rocflo":
		g.flo, err = physics.NewRocflo(g.fluid, ctx.Clock(), spec.FluidCostPerNode)
		if err != nil {
			return nil, err
		}
		for _, bi := range mine {
			p, err := g.fluid.RegisterPane(blocks[bi].ID, blocks[bi])
			if err != nil {
				return nil, err
			}
			g.flo.InitPane(p)
		}
		g.solvers = append(g.solvers, g.flo)
	case "rocflu":
		// The unstructured gas solver runs on tetrahedralized blocks.
		flu, err := physics.NewRocflu(g.fluid, ctx.Clock(), spec.FluidCostPerNode)
		if err != nil {
			return nil, err
		}
		for _, bi := range mine {
			tet, err := mesh.Tetrahedralize(blocks[bi])
			if err != nil {
				return nil, err
			}
			p, err := g.fluid.RegisterPane(tet.ID, tet)
			if err != nil {
				return nil, err
			}
			if err := flu.InitPane(p); err != nil {
				return nil, err
			}
		}
		g.solvers = append(g.solvers, flu)
	default:
		return nil, fmt.Errorf("rocman: unknown fluid solver %q", cfg.FluidSolver)
	}
	g.burn = physics.NewRocburn(g.fluid, ctx.Clock(), cfg.BurnModel, spec.BurnCostPerPane)
	g.solvers = append(g.solvers, g.burn)

	if !cfg.FluidOnly {
		g.solid, err = rc.NewWindow("solid")
		if err != nil {
			return nil, err
		}
		var solid physics.Solver
		var initSolid func(*roccom.Pane)
		switch cfg.SolidSolver {
		case "", "rocfrac":
			frac, err := physics.NewRocfrac(g.solid, ctx.Clock(), spec.SolidCostPerNode)
			if err != nil {
				return nil, err
			}
			solid, initSolid = frac, func(*roccom.Pane) {}
		case "rocsolid":
			rs, err := physics.NewRocsolid(g.solid, ctx.Clock(), spec.SolidCostPerNode)
			if err != nil {
				return nil, err
			}
			solid, initSolid = rs, rs.InitPane
		default:
			return nil, fmt.Errorf("rocman: unknown solid solver %q", cfg.SolidSolver)
		}
		for _, bi := range mine {
			tet, err := mesh.Tetrahedralize(blocks[bi])
			if err != nil {
				return nil, err
			}
			p, err := g.solid.RegisterPane(tet.ID, tet)
			if err != nil {
				return nil, err
			}
			initSolid(p)
		}
		g.face, err = physics.NewRocface(g.fluid, g.solid, ctx.Clock(), spec.FaceCostPerNode)
		if err != nil {
			return nil, err
		}
		g.solvers = append(g.solvers, g.face, solid)
	}
	return g, nil
}

// restart replaces the registered panes' contents from a checkpoint: one
// attempt that every client runs to its end. A window's read is a collective
// round no client may skip (a Rocpanda server waits for every client's
// request), so each window is read whatever an earlier window's read
// returned; the face maps are rebuilt only after clean reads. A damaged
// generation can fail only some clients' reads (those whose panes sat in the
// damaged file), so the clients agree once, after the reads, and when any
// failed every one returns an error. The read latency is accounted by the
// I/O service itself, inside its calls, so the agreement adds none.
func (g *genx) restart(svc roccom.IOService, base string) error {
	t0 := g.ctx.Clock().Now()
	err := svc.ReadAttribute(base, g.fluid, "all")
	if g.solid != nil {
		if serr := svc.ReadAttribute(base, g.solid, "all"); err == nil {
			err = serr
		}
		if err == nil {
			err = g.face.RebuildMaps()
		}
	}
	t1 := g.ctx.Clock().Now()
	if err := mpi.Agree(g.comm, err); err != nil {
		return err
	}
	g.cfg.Trace.Record(g.comm.Rank(), trace.PhaseRead, t0, t1)
	return nil
}

// run executes the timestep loop with periodic snapshots. A step that fails
// on one rank — its snapshot write, refinement or rebalance — must not
// leave its peers in a collective it no longer enters, so the rank skips
// the rest of its own work and enters the next step's dt reduction, an
// mpi.AgreeMin, with its failure, where every rank stops with an error. A
// failure in the last step is returned on its rank alone; Run carries it
// into the final Sync's commit agreement.
func (g *genx) run(svc roccom.IOService, cfg Config) error {
	spec := cfg.Workload
	simTime := 0.0
	failed := g.snapshot(svc, simTime, 0)
	for step := 1; step <= spec.Steps; step++ {
		t0 := g.ctx.Clock().Now()
		// Global stable-dt reduction from the current state: the
		// per-step synchronization point of the integrated code.
		bound := 1e-3
		for _, s := range g.solvers {
			bound = math.Min(bound, s.StableDt())
		}
		dt, err := mpi.AgreeMin(g.comm, bound, failed)
		if err != nil {
			return err
		}
		if (step-1)%cfg.StrideRealWork == 0 {
			for _, s := range g.solvers {
				s.Step(dt)
			}
			// The solvers mutated pane data in place; bump the windows'
			// dirty epochs so delta snapshots reship these panes. Strided
			// charge-only steps change nothing, so they dirty nothing.
			g.fluid.MarkAllDirty()
			if g.solid != nil {
				g.solid.MarkAllDirty()
			}
		} else {
			g.ctx.Clock().Compute(g.chargeOnlyCost())
		}
		simTime += dt
		if cfg.RefineEvery > 0 && step%cfg.RefineEvery == 0 {
			failed = g.refine()
		}
		if cfg.RebalanceEvery > 0 && step%cfg.RebalanceEvery == 0 {
			// Collective: entered whatever the refinement returned.
			if _, err := Rebalance(g.comm, g.fluid, 0); failed == nil {
				failed = err
			}
		}
		g.computeTime += g.ctx.Clock().Now() - t0
		cfg.Trace.Record(g.comm.Rank(), trace.PhaseCompute, t0, g.ctx.Clock().Now())
		g.steps++

		if failed == nil && spec.SnapshotEvery > 0 && step%spec.SnapshotEvery == 0 {
			failed = g.snapshot(svc, simTime, step)
		}
	}
	return failed
}

// chargeOnlyCost is the per-step CPU charge when real arithmetic is
// strided out: identical to what the solvers would charge.
func (g *genx) chargeOnlyCost() float64 {
	spec := g.cfg.Workload
	var cost float64
	g.fluid.EachPane(func(p *roccom.Pane) {
		cost += float64(p.Block.NumNodes()) * spec.FluidCostPerNode
		cost += spec.BurnCostPerPane
	})
	if g.solid != nil {
		g.solid.EachPane(func(p *roccom.Pane) {
			cost += float64(p.Block.NumNodes()) * (spec.SolidCostPerNode + spec.FaceCostPerNode)
		})
	}
	return cost
}

// snapshot writes all windows into one snapshot base name through the
// loaded I/O module.
func (g *genx) snapshot(svc roccom.IOService, simTime float64, step int) error {
	base := fmt.Sprintf("%s/snap%06d", g.cfg.OutputDir, step)
	t0 := g.ctx.Clock().Now()
	if err := svc.WriteAttribute(base, g.fluid, "all", simTime, step); err != nil {
		return err
	}
	if g.solid != nil {
		if err := svc.WriteAttribute(base, g.solid, "all", simTime, step); err != nil {
			return err
		}
	}
	g.cfg.Trace.Record(g.comm.Rank(), trace.PhaseWrite, t0, g.ctx.Clock().Now())
	g.snapshots++
	return nil
}

// refine splits this rank's largest splittable fluid pane, carrying the
// node- and pane-centered data into the children — the paper's adaptive
// refinement: the number and sizes of blocks change at runtime and the
// I/O modules are unaffected.
func (g *genx) refine() error {
	var target *roccom.Pane
	g.fluid.EachPane(func(p *roccom.Pane) {
		if p.Block.Kind != mesh.Structured {
			return
		}
		if p.Block.NI < 3 && p.Block.NJ < 3 && p.Block.NK < 3 {
			return
		}
		if target == nil || p.Block.NumNodes() > target.Block.NumNodes() {
			target = p
		}
	})
	if target == nil {
		return nil
	}
	res, err := mesh.Split(target.Block, g.nextID)
	if err != nil {
		return err
	}
	g.nextID++

	type child struct {
		b *mesh.Block
		m []int
	}
	attrs := g.fluid.Attributes()
	old := target
	if err := g.fluid.DeletePane(old.ID); err != nil {
		return err
	}
	for _, c := range []child{{res.Left, res.LeftMap}, {res.Right, res.RightMap}} {
		p, err := g.fluid.RegisterPane(c.b.ID, c.b)
		if err != nil {
			return err
		}
		for _, spec := range attrs {
			src, _ := old.Array(spec.Name)
			dst, _ := p.Array(spec.Name)
			switch spec.Loc {
			case roccom.NodeLoc:
				for n, from := range c.m {
					copy(dst.F64[n*spec.NComp:(n+1)*spec.NComp], src.F64[from*spec.NComp:(from+1)*spec.NComp])
				}
			case roccom.PaneLoc:
				copy(dst.F64, src.F64)
			}
		}
	}
	return nil
}

// gatherReport reduces the per-client metrics to client rank 0.
func (g *genx) gatherReport(comm mpi.Comm, cl *rocpanda.Client, h *rochdf.Rochdf, nsrv int) (*Report, error) {
	// The services time their own read_attribute calls, so the restart
	// latency is their VisibleRead (rocman does not add its own timer on
	// top, which would double-count).
	var visW, visR, syncW float64
	var bytes int64
	switch {
	case cl != nil:
		m := cl.Metrics()
		visW, visR, syncW, bytes = m.VisibleWrite, m.VisibleRead, m.SyncWait, m.BytesOut
	case h != nil:
		m := h.Metrics()
		visW, visR, syncW, bytes = m.VisibleWrite, m.VisibleRead, m.SyncWait, m.BytesOut
	}

	buf := make([]byte, 0, 5*8)
	for _, f := range []float64{g.computeTime, visW, visR, syncW} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bytes))
	rows := comm.Gather(0, buf)
	if comm.Rank() != 0 {
		return nil, nil
	}
	rep := &Report{
		Steps:      g.steps,
		Snapshots:  g.snapshots,
		NumClients: comm.Size(),
		NumServers: nsrv,
	}
	for _, row := range rows {
		vals := make([]float64, 4)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*i:]))
		}
		rep.ComputeTime = math.Max(rep.ComputeTime, vals[0])
		rep.VisibleWrite = math.Max(rep.VisibleWrite, vals[1])
		rep.VisibleRead = math.Max(rep.VisibleRead, vals[2])
		rep.SyncWait = math.Max(rep.SyncWait, vals[3])
		rep.BytesOut += int64(binary.LittleEndian.Uint64(row[32:]))
	}
	return rep, nil
}
