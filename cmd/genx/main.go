// Command genx runs the integrated rocket simulation for real: goroutine
// ranks, real physics arithmetic, and real RHDF snapshot files on the host
// filesystem — the GEN2.5 stack of Figure 1(a) with a selectable I/O
// module (Rocpanda collective I/O, Rochdf individual I/O, or the
// multi-threaded T-Rochdf).
//
// Examples:
//
//	genx -n 8 -io rocpanda -servers 1 -scale 0.05 -out /tmp/genx
//	genx -n 4 -io trochdf -steps 40 -snap-every 10 -out /tmp/genx
//	genx -n 8 -io rocpanda -servers 2 -restart /tmp/genx/run/snap000020
//	genx -n 8 -io rocpanda -servers 2 -restart-latest -out /tmp/genx
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"genxio"
)

func main() {
	n := flag.Int("n", 8, "total number of ranks (incl. Rocpanda servers)")
	io := flag.String("io", "rocpanda", "I/O module: rocpanda | rochdf | trochdf")
	servers := flag.Int("servers", 1, "Rocpanda I/O server count")
	async := flag.Bool("async", false, "Rocpanda: drain buffers on background writer tasks (overlap writeback with computation)")
	pread := flag.Bool("pread", false, "Rocpanda: serve restart reads from a parallel read-worker pool (overlap disk reads with shipping)")
	replicate := flag.Int("replicate", 1, "Rocpanda: copies of each pane per snapshot generation; R>=2 survives file loss without a generation fallback")
	deltaSnap := flag.Bool("delta", false, "Rocpanda: incremental snapshots — ship only panes dirtied since their last ship, committing delta generations chained to the previous one")
	fullEvery := flag.Int("full-every", 4, "Rocpanda: with -delta, force a full snapshot every k generations (bounds chain depth; must be >= 1)")
	steps := flag.Int("steps", 20, "timesteps")
	snapEvery := flag.Int("snap-every", 10, "snapshot interval in steps")
	scale := flag.Float64("scale", 0.05, "lab-scale mesh scale in (0,1]")
	outDir := flag.String("out", "genx-out", "host directory for snapshots")
	restart := flag.String("restart", "", "snapshot base to restart from (e.g. run/snap000020)")
	restartLatest := flag.Bool("restart-latest", false, "restart from the newest verifiable snapshot generation, falling back past damaged or uncommitted ones")
	retain := flag.Int("retain", 0, "keep only the newest k committed snapshot generations (0 = keep all)")
	burn := flag.String("burn", "apn", "burn model: apn | wsb | zn")
	refine := flag.Int("refine", 0, "split largest fluid block every k steps (fluid-only)")
	rebalance := flag.Int("rebalance", 0, "migrate panes toward equal load every k steps (fluid-only)")
	compress := flag.Bool("compress", false, "deflate-compress snapshot datasets")
	fluid := flag.String("fluid", "rocflo", "gas dynamics solver: rocflo | rocflu")
	solid := flag.String("solid", "rocfrac", "structural solver: rocfrac | rocsolid")
	flag.Parse()

	fs, err := genxio.NewOSFS(*outDir)
	if err != nil {
		fatal(err)
	}

	spec := genxio.LabScale(*scale)
	spec.Steps = *steps
	spec.SnapshotEvery = *snapEvery
	// Real runs do all arithmetic; the charged costs are irrelevant on
	// the wall clock but keep reports meaningful.
	reg := genxio.NewMetrics()
	cfg := genxio.Config{
		Workload:          spec,
		IO:                genxio.IOKind(*io),
		Profile:           genxio.NullProfile(),
		OutputDir:         "run",
		RestartFrom:       *restart,
		RestartFromLatest: *restartLatest,
		RetainGenerations: *retain,
		Metrics:           reg,
		RefineEvery:       *refine,
		RebalanceEvery:    *rebalance,
		FluidOnly:         *refine > 0 || *rebalance > 0,
		Compress:          *compress,
		FluidSolver:       *fluid,
		SolidSolver:       *solid,
		Rocpanda: genxio.RocpandaConfig{
			NumServers:        *servers,
			ActiveBuffering:   true,
			AsyncDrain:        *async,
			DrainWriters:      2,
			ParallelRead:      *pread,
			ReplicationFactor: *replicate,
			DeltaSnapshots:    *deltaSnap,
			FullEvery:         *fullEvery,
		},
	}
	// Fail bad flag combinations with a typed message instead of letting
	// the library silently clamp them.
	if err := cfg.Rocpanda.Validate(); err != nil {
		fatal(err)
	}
	switch *burn {
	case "apn":
		cfg.BurnModel = genxio.APN
	case "wsb":
		cfg.BurnModel = genxio.WSB
	case "zn":
		cfg.BurnModel = genxio.ZN
	default:
		fatal(fmt.Errorf("unknown burn model %q", *burn))
	}

	fmt.Printf("GENx: %d ranks, io=%s, %d steps (snapshot every %d), mesh scale %.2f\n",
		*n, *io, *steps, *snapEvery, *scale)
	t0 := time.Now()
	var rep *genxio.Report
	world := genxio.NewLocalWorld(fs, 1)
	err = world.Run(*n, func(ctx genxio.Ctx) error {
		r, err := genxio.Run(ctx, cfg)
		if r != nil {
			rep = r
		}
		return err
	})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(t0)

	fmt.Printf("\ncompleted in %v\n", wall)
	fmt.Printf("  clients %d, servers %d, steps %d, snapshots %d\n",
		rep.NumClients, rep.NumServers, rep.Steps, rep.Snapshots)
	fmt.Printf("  payload to I/O: %.1f MB\n", float64(rep.BytesOut)/1e6)
	// Series are the module's: rocpanda.client.* and rocpanda.restart.*, or
	// rochdf.* (trochdf.*) for both.
	clientSeries, restartSeries := *io+".", *io+".restart."
	if cfg.IO == genxio.IORocpanda {
		clientSeries = "rocpanda.client."
	}
	// A Rocpanda client's sync waits for its server's drain and then for
	// rank 0's commit, so the two sums split a sync second between them.
	s := reg.Snapshot()
	commit, wait := s.Histograms["snapshot.commit_seconds"], s.Histograms[clientSeries+"sync_wait_seconds"]
	fmt.Printf("  sync: rank 0 committed %d generations in %.3f s", commit.Count, commit.Sum)
	if wait.Count > 0 {
		fmt.Printf(", clients waited %.3f s each", wait.Sum/float64(rep.NumClients))
	}
	fmt.Println()
	if *deltaSnap {
		s := reg.Snapshot()
		fmt.Printf("  delta: %d dirty panes shipped, %d clean panes skipped, %.1f MB saved\n",
			s.Counters["rocpanda.write.dirty_panes"],
			s.Counters["rocpanda.write.clean_panes"],
			float64(s.Counters["rocpanda.write.delta_bytes_saved"])/1e6)
		if d := s.Gauges["rocpanda.restart.chain_depth"]; d > 0 {
			fmt.Printf("  delta: restart served a chain of depth %.0f\n", d)
		}
	}
	if *restartLatest {
		// Every client takes the agreed restore path, so the shared
		// registry carries clients× the per-rank counts.
		s := reg.Snapshot()
		nc := int64(rep.NumClients)
		// Seconds split the restart: client 0 judging the generations,
		// then each round's chain load and a Rocpanda server's scan.
		fmt.Printf("  restart: scanned %d generations, %d fallbacks, %d checksum failures; judge %.3f s, chain %.3f s",
			s.Counters[restartSeries+"generations_scanned"]/nc,
			s.Counters[restartSeries+"fallbacks"]/nc,
			s.Counters["hdf.checksum_failures"],
			s.Histograms[restartSeries+"judge_seconds"].Sum,
			s.Histograms[restartSeries+"chain_seconds"].Sum)
		if cfg.IO == genxio.IORocpanda {
			fmt.Printf(", scan %.3f s", s.Histograms["rocpanda.server.restart_scan_seconds"].Sum)
		}
		fmt.Println()
		fmt.Printf("  catalog: %d indexed, %d derived, %d files opened, %.1f MB read, %.3f MB of catalogs read\n",
			s.Counters[restartSeries+"catalog_hits"],
			s.Counters[restartSeries+"catalog_fallbacks"],
			s.Counters[restartSeries+"files_opened"],
			float64(s.Counters[restartSeries+"bytes_read"])/1e6,
			float64(s.Counters[restartSeries+"catalog_bytes_read"])/1e6)
		// Reader-side totals, not per-client: a pane is repaired once for
		// everyone.
		if rr, rp := s.Counters[restartSeries+"replica_reads"], s.Counters[restartSeries+"repaired_panes"]; rr > 0 || rp > 0 || *replicate > 1 {
			fmt.Printf("  replicas: %d panes repaired, %d served from replica copies\n", rp, rr)
		}
		if *pread {
			fmt.Printf("  read pool: queue peak %.0f, %d backpressure waits, %d errors, %.1f MB wasted\n",
				s.Gauges["iosched.read.queue_depth"],
				s.Counters["iosched.read.backpressure_waits"],
				s.Counters["rocpanda.read.errors"],
				float64(s.Counters["rocpanda.restart.bytes_wasted"])/1e6)
		}
	}
	names, err := fs.List("run/")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %d snapshot files under %s/run/:\n", len(names), *outDir)
	for _, name := range names {
		sz, _ := fs.Stat(name)
		fmt.Printf("    %-40s %8.2f MB\n", name, float64(sz)/1e6)
	}
	fmt.Printf("\ninspect them with: rocketeer -dir %s -file run/<name>\n", *outDir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genx:", err)
	os.Exit(1)
}
