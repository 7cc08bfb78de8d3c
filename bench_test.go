// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus micro-benchmarks of the substrates. The experiment benches
// run reduced configurations so a single iteration stays in seconds; the
// full-scale numbers (recorded in EXPERIMENTS.md) come from cmd/genxbench.
package genxio_test

import (
	"fmt"
	"testing"

	"genxio"
	"genxio/internal/experiments"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/sim"
	"genxio/internal/stats"
)

// BenchmarkTable1 regenerates Table 1 (Turing: computation time, visible
// I/O for Rochdf / T-Rochdf / Rocpanda, restart latencies) at reduced
// mesh scale.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(experiments.Table1Opts{
			Procs: []int{16, 32}, Scale: 0.1, Runs: 1, Stride: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		r := res.Rows[0]
		b.ReportMetric(r.VisRochdf, "rochdf-vis-s")
		b.ReportMetric(r.VisRocpanda, "panda-vis-s")
		b.ReportMetric(r.RestartPanda, "panda-restart-s")
	}
}

// BenchmarkFig3a regenerates Figure 3(a) (Frost: apparent aggregate write
// throughput, fixed data per processor) at reduced size.
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3a(experiments.Fig3aOpts{
			Procs: []int{15, 60}, BytesPerProc: 128 << 10, Runs: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Panda.Mean, "panda-MBps")
		b.ReportMetric(last.Rochdf.Mean, "rochdf-MBps")
	}
}

// BenchmarkFig3b regenerates Figure 3(b) (Frost: computation time under
// the 16NS / 15NS / 15S node configurations) at reduced node counts.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3b(experiments.Fig3bOpts{
			Nodes: []int{1, 4}, Runs: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.T16NS.Mean, "16NS-s")
		b.ReportMetric(last.T15NS.Mean, "15NS-s")
		b.ReportMetric(last.T15S.Mean, "15S-s")
	}
}

// BenchmarkAblationActiveBuffering measures the visible-cost reduction of
// the paper's central overlap mechanism.
func BenchmarkAblationActiveBuffering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblations(experiments.AblationOpts{Scale: 0.08, Procs: 16})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkHDFProfileHDF4 and ...HDF5 are the dataset-count scaling
// ablation ([13]): creating many datasets in one file under each profile.
func benchmarkHDFProfile(b *testing.B, profile hdf.CostProfile) {
	fs := rt.NewMemFS()
	clock := rt.NewWallClock()
	data := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := hdf.Create(fs, "bench.rhdf", clock, profile)
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < 500; d++ {
			if err := w.CreateDataset(fmt.Sprintf("d%04d", d), hdf.U8, []int64{1024}, nil, data); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHDFProfileHDF4(b *testing.B) { benchmarkHDFProfile(b, hdf.HDF4Profile()) }
func BenchmarkHDFProfileHDF5(b *testing.B) { benchmarkHDFProfile(b, hdf.HDF5Profile()) }

// BenchmarkHDFWriteRead measures real RHDF throughput on the real backend.
func BenchmarkHDFWriteRead(b *testing.B) {
	fs := rt.NewMemFS()
	clock := rt.NewWallClock()
	payload := hdf.F64Bytes(make([]float64, 64<<10))
	b.SetBytes(int64(2 * len(payload)))
	for i := 0; i < b.N; i++ {
		w, _ := hdf.Create(fs, "t.rhdf", clock, hdf.NullProfile())
		if err := w.CreateDataset("x", hdf.F64, []int64{64 << 10}, nil, payload); err != nil {
			b.Fatal(err)
		}
		w.Close()
		r, err := hdf.Open(fs, "t.rhdf", clock, hdf.NullProfile())
		if err != nil {
			b.Fatal(err)
		}
		ds, _ := r.Lookup("x")
		if _, err := r.ReadData(ds); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkIOSetCodec measures the wire codec used for client-to-server
// block shipping.
func BenchmarkIOSetCodec(b *testing.B) {
	blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.4, Length: 1,
		BR: 1, BT: 1, BZ: 1, NodesPerBlock: 2000,
	}, 1, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rc := roccom.New()
	w, _ := rc.NewWindow("fluid")
	w.NewAttribute(roccom.AttrSpec{Name: "p", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
	p, _ := w.RegisterPane(1, blocks[0])
	sets, _ := roccom.PaneIOSets(w, p, "all")
	enc := roccom.EncodeIOSets(sets)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = roccom.EncodeIOSets(sets)
		if _, err := roccom.DecodeIOSets(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartition measures the LPT block partitioner on the full
// lab-scale mesh.
func BenchmarkPartition(b *testing.B) {
	blocks, err := genxio.LabScale(0.5).Blocks()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Partition(blocks, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEngine measures raw discrete-event throughput: events/sec of
// the kernel under a ping-pong of timed waits.
func BenchmarkSimEngine(b *testing.B) {
	env := sim.NewEnv()
	const events = 100000
	env.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < events; i++ {
			p.Wait(1e-6)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	_ = b.N
}

// BenchmarkChanWorldPingPong measures the real goroutine backend's message
// latency.
func BenchmarkChanWorldPingPong(b *testing.B) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	payload := make([]byte, 1024)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		c := ctx.Comm()
		if c.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, payload)
				c.Recv(1, 1)
			}
			b.StopTimer()
			return nil
		}
		for i := 0; i < b.N; i++ {
			c.Recv(0, 0)
			c.Send(0, 1, payload)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntegratedRealRun measures a full (tiny) integrated run on the
// real backend, end to end: physics, Roccom, Rocpanda, real files.
func BenchmarkIntegratedRealRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs := genxio.NewMemFS()
		world := genxio.NewLocalWorld(fs, 1)
		cfg := genxio.Config{
			Workload: genxio.Scalability(3, 64<<10),
			IO:       genxio.IORocpanda,
			Profile:  genxio.NullProfile(),
			Rocpanda: genxio.RocpandaConfig{NumServers: 1, ActiveBuffering: true},
		}
		err := world.Run(4, func(ctx genxio.Ctx) error {
			_, err := genxio.Run(ctx, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
