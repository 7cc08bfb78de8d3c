package rocpanda

// End-to-end tests of incremental delta snapshots (Config.DeltaSnapshots):
// dirty-pane shipping, chained generation commits, chain-aware M×N restart,
// write savings vs full snapshots, empty deltas, torn-commit fallback, and
// replica repair of a corrupted chain base.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
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

// mutateDelta advances one pane per client to generation g's state: the
// pane whose index within its client equals g (mod the pane count) gets
// fresh values and a dirty mark; everything else is untouched.
func mutateDelta(w *roccom.Window, g, nblocks int) {
	w.EachPane(func(p *roccom.Pane) {
		if (p.ID-1)%1000 != g%nblocks {
			return
		}
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = float64(p.ID) + float64(g)*100 + float64(i)*0.01
		}
		fl, _ := p.Array("flags")
		fl.I32[0] = int32(p.ID + g)
		w.MarkDirty(p.ID)
	})
}

// expectedDeltaPanes replays the writer decomposition and the mutation
// schedule locally and captures every pane's final payload.
func expectedDeltaPanes(t *testing.T, nWriters, nblocks int, gens []int) map[int]paneData {
	t.Helper()
	want := make(map[int]paneData)
	for r := 0; r < nWriters; r++ {
		w := buildWindow(t, r, nblocks)
		for _, g := range gens {
			mutateDelta(w, g, nblocks)
		}
		w.EachPane(func(p *roccom.Pane) {
			want[p.ID] = capturePane(p)
		})
	}
	return want
}

// writeDeltaChain runs nGens generations under cfg-tuned Rocpanda: the
// first full, the rest deltas per the client's cadence, with mutateDelta
// advancing the window between generations. Bases are prefix+s00000g.
func writeDeltaChain(t *testing.T, fs rt.FS, prefix string, nClients, nServers, nblocks, nGens int, tune func(*Config)) {
	t.Helper()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cfg := Config{
			NumServers:      nServers,
			Profile:         hdf.NullProfile(),
			ActiveBuffering: true,
			DeltaSnapshots:  true,
		}
		if tune != nil {
			tune(&cfg)
		}
		cl, err := Init(ctx, cfg)
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), nblocks)
		for g := 0; g < nGens; g++ {
			if g > 0 {
				mutateDelta(w, g, nblocks)
			}
			base := fmt.Sprintf("%ss%06d", prefix, g)
			if err := cl.WriteAttribute(base, w, "all", float64(g), g*10); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaChainMxNRestartBitExact is the tentpole acceptance: a depth-3
// delta chain (full + 3 deltas, each rewriting one pane per client while
// pane 0 is never touched again) restarts bit-exact on a different
// client/server topology, on both the serial and parallel read paths.
func TestDeltaChainMxNRestartBitExact(t *testing.T) {
	const nblocks = 4
	want := expectedDeltaPanes(t, 4, nblocks, []int{1, 2, 3})
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			fs := rt.NewMemFS()
			writeDeltaChain(t, fs, "dl/", 4, 1, nblocks, 4, nil)

			// The head must be a depth-3 delta, its ancestors depths 2, 1, 0.
			for g, depth := range []int{0, 1, 2, 3} {
				m, err := snapshot.Load(fs, fmt.Sprintf("dl/s%06d", g))
				if err != nil {
					t.Fatal(err)
				}
				if m.ChainDepth != depth {
					t.Fatalf("generation %d chain depth %d, want %d", g, m.ChainDepth, depth)
				}
			}

			reg := metrics.New()
			got := restartTopologyCfg(t, fs, "dl/s000003", 6, 2, reg, func(cfg *Config) {
				cfg.ParallelRead = parallel
			})
			checkMxN(t, want, got)
			if d := reg.Snapshot().Gauges["rocpanda.restart.chain_depth"]; d != 3 {
				t.Fatalf("chain depth gauge %v, want 3", d)
			}
		})
	}
}

// TestDeltaWriteSavings: with one of four panes dirty per delta generation,
// the delta run's server bytes written must come in at least 40% under the
// full run's across four generations — the ISSUE acceptance threshold.
func TestDeltaWriteSavings(t *testing.T) {
	run := func(delta bool) (int64, *metrics.Registry) {
		fs := rt.NewMemFS()
		reg := metrics.New()
		world := mpi.NewChanWorld(fs, 1)
		err := world.Run(5, func(ctx mpi.Ctx) error {
			cl, err := Init(ctx, Config{
				NumServers:      1,
				Profile:         hdf.NullProfile(),
				ActiveBuffering: true,
				DeltaSnapshots:  delta,
				FullEvery:       4,
				Metrics:         reg,
			})
			if err != nil {
				return err
			}
			if cl == nil {
				return nil
			}
			w := buildWindow(t, cl.Comm().Rank(), 4)
			for g := 0; g < 4; g++ {
				if g > 0 {
					mutateDelta(w, g, 4)
				}
				if err := cl.WriteAttribute(fmt.Sprintf("sv/s%06d", g), w, "all", float64(g), g); err != nil {
					return err
				}
				if err := cl.Sync(); err != nil {
					return err
				}
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters["rocpanda.server.bytes_written"], reg
	}

	fullBytes, _ := run(false)
	deltaBytes, reg := run(true)
	if fullBytes == 0 || deltaBytes == 0 {
		t.Fatalf("bytes_written full=%d delta=%d", fullBytes, deltaBytes)
	}
	saved := 1 - float64(deltaBytes)/float64(fullBytes)
	if saved < 0.40 {
		t.Fatalf("delta run saved only %.0f%% of bytes written (full %d, delta %d), want >= 40%%",
			saved*100, fullBytes, deltaBytes)
	}
	s := reg.Snapshot()
	// 4 clients × 4 panes: the full generation ships 16, each of the 3
	// deltas ships 4 dirty and skips 12 clean.
	if d, c := s.Counters["rocpanda.write.dirty_panes"], s.Counters["rocpanda.write.clean_panes"]; d != 28 || c != 36 {
		t.Fatalf("dirty=%d clean=%d, want 28 and 36", d, c)
	}
	if s.Counters["rocpanda.write.delta_bytes_saved"] == 0 {
		t.Fatal("delta_bytes_saved counter never moved")
	}
}

// TestDeltaEmptyGeneration: a generation in which no pane was dirtied
// commits as a file-less delta that restores the chain's full state.
func TestDeltaEmptyGeneration(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(),
			ActiveBuffering: true, DeltaSnapshots: true,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		// Full, then a generation with nothing dirty.
		for _, base := range []string{"de/s000000", "de/s000001"} {
			if err := cl.WriteAttribute(base, w, "all", 0, 0); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The empty delta committed with no snapshot files of its own.
	names, err := fs.List("de/s000001")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".rhdf") {
			t.Fatalf("empty delta wrote snapshot file %s", n)
		}
	}
	// Restarting from it serves every pane from the base, bit-exact.
	got := restartTopology(t, fs, "de/s000001", 3, 1, nil)
	checkMxN(t, expectedDeltaPanes(t, 2, 2, nil), got)
}

// TestDeltaTornHeadFallsBackToCommittedChain: a delta whose manifest never
// landed (crash between data drain and commit) is invisible to the restore
// walk — restart lands on the last committed chain link.
func TestDeltaTornHeadFallsBackToCommittedChain(t *testing.T) {
	fs := rt.NewMemFS()
	writeDeltaChain(t, fs, "dt/", 4, 1, 2, 3, nil)
	// Tear the head: generation 2's data files exist, the manifest does not.
	if err := fs.Remove("dt/s000002" + snapshot.Suffix); err != nil {
		t.Fatal(err)
	}

	want := expectedDeltaPanes(t, 4, 2, []int{1})
	var mu sync.Mutex
	bases := map[int]string{}
	got := make(map[int]paneData)
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(5, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rw := zeroWindow(t, cl.Comm().Rank(), 2)
		base, err := cl.RestoreLatest("dt/", func(base string) error {
			return cl.ReadAttribute(base, rw, "all")
		})
		if err != nil {
			return err
		}
		mu.Lock()
		bases[cl.Comm().Rank()] = base
		rw.EachPane(func(p *roccom.Pane) {
			got[p.ID] = capturePane(p)
		})
		mu.Unlock()
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range bases {
		if b != "dt/s000001" {
			t.Fatalf("client %d restored %q, want the last committed delta dt/s000001", r, b)
		}
	}
	checkMxN(t, want, got)
}

// TestDeltaCorruptBaseServedFromReplica: with R=2, flipping a bit in the
// chain base's primary file must not cost the chain — the base's panes are
// served from the replica copy, bit-exact, on both read paths.
func TestDeltaCorruptBaseServedFromReplica(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			fs := rt.NewMemFS()
			writeDeltaChain(t, fs, "db/", 4, 1, 2, 2, func(cfg *Config) {
				cfg.ReplicationFactor = 2
			})
			if err := damagePrimary(fs, "db/s000000", "db/s000000_s000.rhdf", "flipbit"); err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			got := restartTopologyCfg(t, fs, "db/s000001", 3, 1, reg, func(cfg *Config) {
				cfg.ParallelRead = parallel
			})
			checkMxN(t, expectedDeltaPanes(t, 4, 2, []int{1}), got)
			s := reg.Snapshot()
			if s.Counters["rocpanda.restart.replica_reads"] == 0 {
				t.Fatal("corrupt base restored without touching replicas")
			}
		})
	}
}

// TestDeltaTwoGenerationsUnderOneSync: one Sync that commits two delta
// generations gathers their pane universes with two back-to-back
// mpi.Gathers. A gather that took contributions from any source let a fast
// client's second contribution land in the first gather, so the manifests
// recorded a partial universe and PanesForRestart silently restored a
// subset. Both manifests must record every pane, and the head must restore
// bit-exact. Run on the simulated platform, where the allreduce tree
// releases the clients at different, repeatable times.
func TestDeltaTwoGenerationsUnderOneSync(t *testing.T) {
	const nClients, nblocks = 6, 2
	want := expectedDeltaPanes(t, nClients, nblocks, []int{1, 2})
	var mu sync.Mutex
	got := make(map[int]paneData)
	universe := make(map[int]int) // the clients' deals of each generation, summed
	err := cluster.NewWorld(cluster.Turing(), 1).Run(nClients+1, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(),
			ActiveBuffering: true, DeltaSnapshots: true,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), nblocks)
		if err := cl.WriteAttribute("d2/s000000", w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		for g := 1; g <= 2; g++ {
			mutateDelta(w, g, nblocks)
			if err := cl.WriteAttribute(fmt.Sprintf("d2/s%06d", g), w, "all", float64(g), g); err != nil {
				return err
			}
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		for g := 1; g <= 2; g++ {
			ids, err := cl.PanesForRestart(fmt.Sprintf("d2/s%06d", g), "fluid")
			if err != nil {
				return err
			}
			mu.Lock()
			universe[g] += len(ids)
			mu.Unlock()
		}
		rw, err := roccom.New().NewWindow("fluid")
		if err != nil {
			return err
		}
		rw.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		rw.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
		mine, err := cl.PanesForRestart("d2/s000002", "fluid")
		if err != nil {
			return err
		}
		if err := cl.ReadPanes("d2/s000002", rw, "all", mine); err != nil {
			return err
		}
		mu.Lock()
		rw.EachPane(func(p *roccom.Pane) {
			got[p.ID] = capturePane(p)
		})
		mu.Unlock()
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 2; g++ {
		if universe[g] != nClients*nblocks {
			t.Errorf("generation %d committed a universe of %d panes, want %d", g, universe[g], nClients*nblocks)
		}
	}
	checkMxN(t, want, got)
}

// flipDirectoryByte flips one byte in the middle of name's RHDF directory,
// where the file's header places it: the file's payloads stay intact.
func flipDirectoryByte(t *testing.T, fs rt.FS, name string) {
	t.Helper()
	img, err := hdf.ReadFile(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := int64(binary.LittleEndian.Uint64(img[8:]))
	if err := faults.FlipBit(fs, name, (dirOff+int64(len(img)))/2*8+2); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedDirectoryServedFromReplica: with R = 2, a byte flipped in the
// directory of the head's primary file of a committed delta chain — the
// file's payloads intact — costs no restore: the restore walk restores the
// head, and so does a direct PanesForRestart + ReadPanes on another client
// count, each delivering that file's panes from the replica bit-exact (a
// file's entries are read from its own directory, held to the manifest's
// directory CRC32C, so the damaged primary plans nothing). With the
// replica's directory flipped too, no intact copy of those panes is left:
// the walk falls back one generation, and a direct read of the head fails
// with ErrIncompleteRestart, agreed on every client — no pane resolves to
// its stale copy in an older link. On both read paths.
func TestDamagedDirectoryServedFromReplica(t *testing.T) {
	const nClients, nServers, nblocks, prefix = 4, 2, 4, "dd/"
	const head, older = prefix + "s000002", prefix + "s000001"
	// restore runs a world of clients + nServers: each client restores its
	// deal of base's panes — through the restore walk, its own panes, or
	// directly, its PanesForRestart share, with RetryTimeout set so that a
	// read that fails on one client fails on all — and it returns the base
	// each client restored, the panes, each client's error and the registry.
	restore := func(fs rt.FS, clients int, walk, parallel bool) (bases []string, got map[int]paneData, errs []error, reg *metrics.Registry) {
		var mu sync.Mutex
		got, reg = make(map[int]paneData), metrics.New()
		err := mpi.NewChanWorld(fs, 1).Run(clients+nServers, func(ctx mpi.Ctx) error {
			cfg := Config{NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true,
				ReplicationFactor: 2, DeltaSnapshots: true, ParallelRead: parallel, Metrics: reg}
			if !walk {
				cfg.RetryTimeout = 10
			}
			cl, err := Init(ctx, cfg)
			if err != nil || cl == nil {
				return err
			}
			rank := cl.Comm().Rank()
			var w *roccom.Window
			base, readErr := head, error(nil)
			if walk {
				w = zeroWindow(t, rank, nblocks)
				base, readErr = cl.RestoreLatest(prefix, func(b string) error { return cl.ReadAttribute(b, w, "all") })
			} else {
				if w, readErr = roccom.New().NewWindow("fluid"); readErr != nil {
					return readErr
				}
				w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
				w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
				var mine []int
				if mine, readErr = cl.PanesForRestart(head, "fluid"); readErr == nil {
					readErr = cl.ReadPanes(head, w, "all", mine)
				}
			}
			mu.Lock()
			bases, errs = append(bases, base), append(errs, readErr)
			if readErr == nil {
				w.EachPane(func(p *roccom.Pane) { got[p.ID] = capturePane(p) })
			}
			mu.Unlock()
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		return bases, got, errs, reg
	}
	for _, both := range []bool{false, true} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("both=%v/parallel=%v", both, parallel), func(t *testing.T) {
				fs := rt.NewMemFS()
				writeDeltaChain(t, fs, prefix, nClients, nServers, nblocks, 3, func(cfg *Config) { cfg.ReplicationFactor = 2 })
				// Server 0's panes live in its primary and in the replica
				// homed at server 1's file set.
				flipDirectoryByte(t, fs, head+"_s000.rhdf")
				if both {
					flipDirectoryByte(t, fs, head+"_s001r1.rhdf")
				}

				wantBase, wantPanes := head, expectedDeltaPanes(t, nClients, nblocks, []int{1, 2})
				if both {
					wantBase, wantPanes = older, expectedDeltaPanes(t, nClients, nblocks, []int{1})
				}
				bases, got, errs, reg := restore(fs, nClients, true, parallel)
				for i, err := range errs {
					if err != nil || bases[i] != wantBase {
						t.Fatalf("walk: a client restored %q (%v), want %s", bases[i], err, wantBase)
					}
				}
				checkMxN(t, wantPanes, got)
				c := reg.Snapshot().Counters
				if f, want := c["rocpanda.restart.fallbacks"], map[bool]int64{false: 0, true: nClients}[both]; f != want {
					t.Errorf("walk: %d fallbacks over the clients, want %d", f, want)
				}
				if !both && c["rocpanda.restart.replica_reads"] == 0 {
					t.Error("walk: the damaged primary's panes were not read from the replica")
				}

				_, got, errs, reg = restore(fs, nClients-1, false, parallel)
				for i, err := range errs {
					if both != errors.Is(err, ErrIncompleteRestart) || !both && err != nil {
						t.Fatalf("direct read, client %d: %v; want ErrIncompleteRestart %v", i, err, both)
					}
				}
				if !both {
					checkMxN(t, expectedDeltaPanes(t, nClients, nblocks, []int{1, 2}), got)
					if reg.Snapshot().Counters["rocpanda.restart.replica_reads"] == 0 {
						t.Error("direct read: the damaged primary's panes were not read from the replica")
					}
				}
			})
		}
	}
}
