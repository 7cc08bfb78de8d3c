package rocpanda

// End-to-end tests of pane replication (Config.ReplicationFactor): replica
// files are byte-identical to their primaries and R=1 stays byte-identical
// to the unreplicated layout; losing or corrupting a primary restarts
// bit-exactly from the SAME generation via replica reads (no generation
// fallback); and when every copy of a pane is bad, the walk still falls
// back a generation exactly as before.

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// writeTwoGenerations runs a 2-server world that writes generation 0 with
// decoy data (+1000 on every pressure value) and generation 100 with the
// canonical data checkWindow expects, then shuts down. Restoring the wrong
// generation cannot pass a bit-exact check. One client per server: the
// channel backend delivers different clients' writes in nondeterministic
// order, and cross-run byte comparisons hold per arrival order, not
// across interleavings (same contract as TestAsyncDrainBitExactOutput).
func writeTwoGenerations(t *testing.T, fs rt.FS, prefix string, cfg Config) {
	t.Helper()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, cfg)
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		// Generation 0 holds decoy data (+1000 on every pressure value) in
		// its own window — mutating one window back and forth would not
		// round-trip float64 values bit-exactly. Generation 100 is the
		// canonical data checkWindow expects.
		decoy := buildWindow(t, cl.Comm().Rank(), 2)
		decoy.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] += 1000
			}
		})
		if err := cl.WriteAttribute(prefix+"snap000000", decoy, "all", 0.0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute(prefix+"snap000100", w, "all", 1.0, 100); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func snapshotFileBytes(t *testing.T, fs rt.FS, prefix string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range listRHDF(t, fs, prefix) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, size)
		if _, err := f.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out[name] = b
	}
	return out
}

// TestReplicationByteIdenticalLayout: R=1 (and R unset) produce the exact
// unreplicated file set; R=2 keeps every primary byte-identical to that
// set and adds replicas that are byte-identical to their source primaries.
// Server s's replica is homed at server (s+1)%m's file index, so with two
// servers base_s001r1.rhdf carries server 0's blocks and vice versa.
func TestReplicationByteIdenticalLayout(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			mkCfg := func(repl int) Config {
				return Config{
					NumServers:        2,
					Profile:           hdf.NullProfile(),
					ActiveBuffering:   true,
					AsyncDrain:        async,
					DrainWriters:      2,
					ReplicationFactor: repl,
				}
			}
			fs0, fs1, fs2 := rt.NewMemFS(), rt.NewMemFS(), rt.NewMemFS()
			writeTwoGenerations(t, fs0, "rep/", mkCfg(0))
			writeTwoGenerations(t, fs1, "rep/", mkCfg(1))
			writeTwoGenerations(t, fs2, "rep/", mkCfg(2))
			base := snapshotFileBytes(t, fs0, "rep/")
			r1 := snapshotFileBytes(t, fs1, "rep/")
			r2 := snapshotFileBytes(t, fs2, "rep/")

			if len(r1) != len(base) {
				t.Fatalf("R=1 wrote %d files, unreplicated wrote %d", len(r1), len(base))
			}
			for name, want := range base {
				got, ok := r1[name]
				if !ok {
					t.Fatalf("R=1 is missing %s", name)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("R=1 %s differs from the unreplicated file", name)
				}
			}

			// R=2: primaries unchanged, one byte-identical replica each.
			if len(r2) != 2*len(base) {
				t.Fatalf("R=2 wrote %d files, want %d (primary + replica each)", len(r2), 2*len(base))
			}
			for name, want := range base {
				if !bytes.Equal(r2[name], want) {
					t.Fatalf("R=2 primary %s differs from the unreplicated file", name)
				}
			}
			for _, gen := range []string{"rep/snap000000", "rep/snap000100"} {
				for s := 0; s < 2; s++ {
					primary := fmt.Sprintf("%s_s%03d.rhdf", gen, s)
					replica := fmt.Sprintf("%s_s%03dr1.rhdf", gen, (s+1)%2)
					rb, ok := r2[replica]
					if !ok {
						t.Fatalf("R=2 is missing replica %s", replica)
					}
					if !bytes.Equal(rb, r2[primary]) {
						t.Fatalf("replica %s is not byte-identical to its primary %s", replica, primary)
					}
				}
			}
		})
	}
}

// damagePrimary corrupts exactly the file named — either removing it or
// flipping one bit in the middle of one of its catalog-planned extents
// (guaranteed inside data an indexed restart reads and CRC-checks).
func damagePrimary(fs rt.FS, gen, name, how string) error {
	if how == "delete" {
		return fs.Remove(name)
	}
	chain, err := snapshot.LoadChain(fs, gen)
	if err != nil {
		return err
	}
	cat := chain[0].Catalog
	for _, e := range cat.Entries {
		if cat.Files[e.File] == name {
			off, length := e.Extent()
			return faults.FlipBit(fs, name, (off+length/2)*8)
		}
	}
	return fmt.Errorf("no catalog entry in %s", name)
}

// TestReplicaLossRestartsSameGeneration is the acceptance scenario: with
// R=2, delete (or bit-flip) a primary of the newest generation and restart.
// The restore must come from the SAME generation, bit-exactly, with zero
// generation fallbacks, the replica reads visible in the new counters —
// on both the serial and the parallel read path.
func TestReplicaLossRestartsSameGeneration(t *testing.T) {
	for _, how := range []string{"delete", "flipbit"} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", how, parallel), func(t *testing.T) {
				fs := rt.NewMemFS()
				const gen = "rep/snap000100"
				const victim = gen + "_s000.rhdf"

				var mu sync.Mutex
				regs := make(map[int]*metrics.Registry)

				world := mpi.NewChanWorld(fs, 1)
				err := world.Run(6, func(ctx mpi.Ctx) error {
					reg := metrics.New()
					mu.Lock()
					regs[ctx.Comm().Rank()] = reg
					mu.Unlock()
					cl, err := Init(ctx, Config{
						NumServers:        2,
						Profile:           hdf.NullProfile(),
						ActiveBuffering:   true,
						ReplicationFactor: 2,
						ParallelRead:      parallel,
						Metrics:           reg,
					})
					if err != nil {
						return err
					}
					if cl == nil {
						return nil
					}
					// Decoy data in generation 0 (separate window: +=/-= on
					// one window would not round-trip float64 bit-exactly),
					// canonical data in generation 100 — restoring the wrong
					// generation cannot pass the bit-exact check below.
					decoy := buildWindow(t, cl.Comm().Rank(), 2)
					decoy.EachPane(func(p *roccom.Pane) {
						pr, _ := p.Array("pressure")
						for i := range pr.F64 {
							pr.F64[i] += 1000
						}
					})
					if err := cl.WriteAttribute("rep/snap000000", decoy, "all", 0.0, 0); err != nil {
						return err
					}
					if err := cl.Sync(); err != nil {
						return err
					}
					w := buildWindow(t, cl.Comm().Rank(), 2)
					if err := cl.WriteAttribute(gen, w, "all", 1.0, 100); err != nil {
						return err
					}
					if err := cl.Sync(); err != nil {
						return err
					}

					if cl.Comm().Rank() == 0 {
						if err := damagePrimary(fs, gen, victim, how); err != nil {
							return err
						}
					}
					cl.Comm().Barrier()

					rw := zeroWindow(t, cl.Comm().Rank(), 2)
					base, err := cl.RestoreLatest("rep/", func(base string) error {
						return cl.ReadAttribute(base, rw, "all")
					})
					if err != nil {
						return err
					}
					if base != gen {
						t.Errorf("client %d restored %q, want the damaged-but-replicated generation", cl.Comm().Rank(), base)
					}
					if err := checkWindow(cl.Comm().Rank(), rw); err != nil {
						return err
					}
					return cl.Shutdown()
				})
				if err != nil {
					t.Fatal(err)
				}

				// No generation fallback anywhere; every client scanned
				// exactly the newest generation.
				var scanned, fallbacks, replicaReads, repairedPanes int64
				for rank, reg := range regs {
					if f := reg.Counter("rocpanda.restart.fallbacks").Value(); f != 0 {
						t.Errorf("rank %d restart.fallbacks = %d, want 0", rank, f)
					}
					scanned += reg.Counter("rocpanda.restart.generations_scanned").Value()
					fallbacks += reg.Counter("rocpanda.restart.fallbacks").Value()
					replicaReads += reg.Counter("rocpanda.restart.replica_reads").Value()
					repairedPanes += reg.Counter("rocpanda.restart.repaired_panes").Value()
				}
				if scanned != 4 { // one generation per client walk
					t.Errorf("generations_scanned total = %d, want 4 (1 per client)", scanned)
				}
				if replicaReads <= 0 {
					t.Errorf("restart.replica_reads = %d, want > 0", replicaReads)
				}
				if repairedPanes < replicaReads {
					t.Errorf("restart.repaired_panes = %d < replica_reads = %d", repairedPanes, replicaReads)
				}
				if how == "flipbit" {
					var crc int64
					for _, reg := range regs {
						crc += reg.Counter("hdf.checksum_failures").Value()
					}
					if crc <= 0 {
						t.Error("bit flip restarted without a single recorded checksum failure")
					}
				}
			})
		}
	}
}

// TestReplicaAllCopiesBadFallsBack: replication changes nothing when it
// cannot help. With both copies of a server's panes gone, the newest
// generation is genuinely unrecoverable and the walk falls back one
// generation — the pre-replication behaviour, counter included. Decoy
// data lives in generation 100 here so the bit-exact check proves the
// fallback target.
func TestReplicaAllCopiesBadFallsBack(t *testing.T) {
	fs := rt.NewMemFS()
	var mu sync.Mutex
	regs := make(map[int]*metrics.Registry)

	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(6, func(ctx mpi.Ctx) error {
		reg := metrics.New()
		mu.Lock()
		regs[ctx.Comm().Rank()] = reg
		mu.Unlock()
		cl, err := Init(ctx, Config{
			NumServers:        2,
			Profile:           hdf.NullProfile(),
			ActiveBuffering:   true,
			ReplicationFactor: 2,
			Metrics:           reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("rep/snap000000", w, "all", 0.0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] += 1000
			}
		})
		if err := cl.WriteAttribute("rep/snap000100", w, "all", 1.0, 100); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}

		// Server 0's generation-100 panes live in its primary and in the
		// replica homed at server 1's file set. Kill both copies.
		if cl.Comm().Rank() == 0 {
			if err := fs.Remove("rep/snap000100_s000.rhdf"); err != nil {
				return err
			}
			if err := fs.Remove("rep/snap000100_s001r1.rhdf"); err != nil {
				return err
			}
		}
		cl.Comm().Barrier()

		rw := zeroWindow(t, cl.Comm().Rank(), 2)
		base, err := cl.RestoreLatest("rep/", func(base string) error {
			return cl.ReadAttribute(base, rw, "all")
		})
		if err != nil {
			return err
		}
		if base != "rep/snap000000" {
			t.Errorf("client %d restored %q, want the previous generation", cl.Comm().Rank(), base)
		}
		if err := checkWindow(cl.Comm().Rank(), rw); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}

	clients := 0
	for rank, reg := range regs {
		scanned := reg.Counter("rocpanda.restart.generations_scanned").Value()
		if scanned == 0 {
			continue // server rank
		}
		clients++
		if scanned != 2 {
			t.Errorf("rank %d generations_scanned = %d, want 2", rank, scanned)
		}
		if f := reg.Counter("rocpanda.restart.fallbacks").Value(); f != 1 {
			t.Errorf("rank %d restart.fallbacks = %d, want 1", rank, f)
		}
	}
	if clients != 4 {
		t.Fatalf("%d ranks ran the restore walk, want 4 clients", clients)
	}
}

// TestReplicatedBlockBufferedOnce: a replicated block is buffered once and
// lands R times. On simulated Turing with the buffer copy charged, the same
// inputs run at R = 1 and R = 2, under the inline driver and the pool; R = 2
// must buffer exactly R = 1's blocks with R = 1's buffer peak, write exactly
// twice the blocks and bytes, hand every client R = 1's write-call virtual
// seconds, and leave R = 1's files byte for byte as its primaries. One
// client per server pins each server's arrival order, and the think time
// after each write lets the drain finish before the next one.
func TestReplicatedBlockBufferedOnce(t *testing.T) {
	const nServers, nblocks, gens, think = 2, 6, 2, 5.0
	type outcome struct {
		snap   metrics.Snapshot
		writes map[int][]float64 // per client rank: each write call's virtual seconds
		files  map[string][]byte
	}
	run := func(async bool, repl int) outcome {
		plat := cluster.Turing()
		plat.NoiseFrac = 0
		reg := metrics.New()
		o := outcome{writes: make(map[int][]float64)}
		var mu sync.Mutex
		world := cluster.NewWorld(plat, 1)
		err := world.Run(2*nServers, func(ctx mpi.Ctx) error {
			cl, err := Init(ctx, Config{
				NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true,
				AsyncDrain: async, DrainWriters: 2, MemcpyBW: plat.MemcpyBW,
				ReplicationFactor: repl, Metrics: reg,
			})
			if err != nil || cl == nil {
				return err
			}
			rank, clock := cl.Comm().Rank(), ctx.Clock()
			w := buildWindow(t, rank, nblocks)
			for g := 0; g < gens; g++ {
				t0 := clock.Now()
				if err := cl.WriteAttribute(fmt.Sprintf("fan/s%06d", g), w, "all", float64(g), g); err != nil {
					return err
				}
				mu.Lock()
				o.writes[rank] = append(o.writes[rank], clock.Now()-t0)
				mu.Unlock()
				clock.Compute(think)
			}
			if err := cl.Sync(); err != nil {
				return err
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		o.snap = reg.Snapshot()
		o.files = snapshotFileBytes(t, world.FSModel().Backing(), "fan/")
		return o
	}
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			r1, r2 := run(async, 1), run(async, 2)
			c1, c2 := r1.snap.Counters, r2.snap.Counters
			if c1["rocpanda.server.blocks_buffered"] == 0 {
				t.Fatal("R=1 buffered no blocks")
			}
			if a, b := c2["rocpanda.server.blocks_buffered"], c1["rocpanda.server.blocks_buffered"]; a != b {
				t.Errorf("R=2 buffered %d blocks, R=1 %d", a, b)
			}
			if a, b := r2.snap.Gauges["rocpanda.server.buf_bytes_peak"], r1.snap.Gauges["rocpanda.server.buf_bytes_peak"]; a != b {
				t.Errorf("R=2 buffer peak %v bytes, R=1 %v", a, b)
			}
			for _, name := range []string{"rocpanda.server.blocks_written", "rocpanda.server.bytes_written"} {
				if a, b := c2[name], c1[name]; a != 2*b {
					t.Errorf("R=2 %s = %d, want 2 x R=1's %d", name, a, b)
				}
			}
			if len(r1.writes) != nServers {
				t.Fatalf("timed %d clients, want %d", len(r1.writes), nServers)
			}
			for rank, want := range r1.writes {
				if got := r2.writes[rank]; !reflect.DeepEqual(got, want) {
					t.Errorf("client %d write calls took %v virtual s at R=2, %v at R=1", rank, got, want)
				}
			}
			if len(r2.files) != 2*len(r1.files) {
				t.Fatalf("R=2 wrote %d files, R=1 %d", len(r2.files), len(r1.files))
			}
			for name, want := range r1.files {
				if !bytes.Equal(r2.files[name], want) {
					t.Errorf("R=2 primary %s differs from R=1's file", name)
				}
			}
		})
	}
}
