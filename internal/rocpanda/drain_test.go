package rocpanda

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// writeGenerations runs nGens generations, each followed by a Sync, on a
// world with one client per server (which pins every server's arrival
// order, so files compare byte for byte across runs), mutateDelta advancing
// the window between generations. It returns every client's Sync error per
// generation and the registry all ranks shared; a failed Sync or Shutdown
// does not stop the run.
func writeGenerations(t *testing.T, fs rt.FS, prefix string, cfg Config, nblocks, nGens int) ([][]error, metrics.Snapshot) {
	t.Helper()
	reg := metrics.New()
	cfg.Metrics = reg
	syncErrs := make([][]error, nGens)
	var mu sync.Mutex
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2*cfg.NumServers, func(ctx mpi.Ctx) error {
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
			if err := cl.WriteAttribute(fmt.Sprintf("%ss%06d", prefix, g), w, "all", float64(g), g*10); err != nil {
				return err
			}
			serr := cl.Sync()
			mu.Lock()
			syncErrs[g] = append(syncErrs[g], serr)
			mu.Unlock()
		}
		cl.Shutdown() // reports the sticky drain error again; Sync already did
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return syncErrs, reg.Snapshot()
}

// restoreLatest restores the newest restorable generation under prefix on
// a fresh, healthy world of the writers' shape and returns its base and
// every pane's payload.
func restoreLatest(t *testing.T, fs rt.FS, prefix string, nServers, nblocks int) (string, map[int]paneData) {
	t.Helper()
	got := make(map[int]paneData)
	var restored string
	var mu sync.Mutex
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2*nServers, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), nblocks)
		base, readErr := cl.RestoreLatest(prefix, func(base string) error {
			return cl.ReadAttribute(base, w, "all")
		})
		mu.Lock()
		restored = base
		w.EachPane(func(p *roccom.Pane) {
			got[p.ID] = capturePane(p)
		})
		mu.Unlock()
		if err := cl.Shutdown(); err != nil {
			return err
		}
		return readErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return restored, got
}

// TestWriteDriversAreOneMachine runs every kind of snapshot write under
// every configuration of the write engine — write-through, the inline
// driver, and the pool with one and two writers — and requires the same
// files, the same restored bytes and the same accounting from each: they
// are configurations of one state machine, not three implementations. It
// also pins that the zero-worker rows build no scheduler, and that the
// sticky error reaches Sync under all four.
func TestWriteDriversAreOneMachine(t *testing.T) {
	const nServers, nblocks = 2, 3
	drivers := []struct {
		name   string
		pooled bool
		tune   func(*Config)
	}{
		{"inline", false, func(cfg *Config) {}}, // first: the others compare to it
		{"write-through", false, func(cfg *Config) { cfg.ActiveBuffering = false }},
		{"pool-1", true, func(cfg *Config) { cfg.AsyncDrain, cfg.DrainWriters = true, 1 }},
		{"pool-2", true, func(cfg *Config) { cfg.AsyncDrain, cfg.DrainWriters = true, 2 }},
	}
	cases := []struct {
		name    string
		gens    int
		tune    func(*Config)
		fsPlan  func() *faults.FSPlan
		crash   func() *faults.CrashPlan
		failing int   // first generation whose Sync must fail everywhere; gens when none does
		want    []int // mutation schedule of the generation restoreLatest must return
		// wantThrough overrides want under write-through, which differs
		// only where an ack means something different: a block
		// acknowledged by a buffering server dies with it, one
		// acknowledged by a write-through server is on disk.
		wantThrough []int
	}{
		{name: "plain", gens: 2, failing: 2, want: []int{1}},
		{name: "r2", gens: 2, failing: 2, want: []int{1},
			tune: func(cfg *Config) { cfg.ReplicationFactor = 2 }},
		{name: "delta-chain", gens: 3, failing: 3, want: []int{1, 2},
			tune: func(cfg *Config) { cfg.DeltaSnapshots = true }},
		{name: "one-byte-budget", gens: 2, failing: 2, want: []int{1},
			tune: func(cfg *Config) { cfg.BufferBudgetBytes = 1 }},
		// Server 1 can never create its file of generation 1: that Sync and,
		// the error being sticky, the healthy generation 2's must fail on
		// every client, and generation 0 is what restores.
		{name: "create-fails", gens: 3, failing: 1, want: nil,
			fsPlan: func() *faults.FSPlan {
				return faults.NewFSPlan(1, faults.FSRule{Op: faults.OpCreate, PathPrefix: "wd/s000001_s001", Msg: "no space left on device"})
			}},
		// Server 1 dies after its 5th block lands: 3 of generation 0, 2 of
		// generation 1. A buffering server had acknowledged all three, so
		// the third is lost, generation 1 commits short and the restore
		// falls back; the write-through server dies holding its client's
		// ack, the client fails over and resends, and generation 1 is whole.
		{name: "mid-drain-crash", gens: 2, failing: 2, want: nil, wantThrough: []int{1},
			tune:  func(cfg *Config) { cfg.RetryTimeout = 0.2 },
			crash: func() *faults.CrashPlan { return faults.NewCrashPlan(1, faults.MidDrain, 5) }},
		// Server 1 dies creating its file of generation 1, before the
		// file's _meta dataset: inside the sink, on whichever process runs
		// the step. The fallback is mid-drain-crash's.
		{name: "before-meta-crash", gens: 2, failing: 2, want: nil, wantThrough: []int{1},
			tune:  func(cfg *Config) { cfg.RetryTimeout = 0.2 },
			crash: func() *faults.CrashPlan { return faults.NewCrashPlan(1, faults.BeforeMeta, 2) }},
	}
	same := []string{
		"rocpanda.server.blocks_written", "rocpanda.server.bytes_written",
		"rocpanda.server.files_created", "rocpanda.drain.errors", "rocpanda.server.crashes",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inline writeOutcome
			for _, drv := range drivers {
				cfg := Config{NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true}
				if tc.tune != nil {
					tc.tune(&cfg)
				}
				drv.tune(&cfg)
				mem := rt.NewMemFS()
				var fs rt.FS = mem
				if tc.fsPlan != nil {
					fs = faults.WrapFS(mem, tc.fsPlan())
				}
				if tc.crash != nil {
					cfg.Crash = tc.crash()
				}
				syncErrs, snap := writeGenerations(t, fs, "wd/", cfg, nblocks, tc.gens)
				for g, errs := range syncErrs {
					for i, err := range errs {
						if g < tc.failing && err != nil {
							t.Fatalf("%s: client %d Sync of generation %d: %v", drv.name, i, g, err)
						}
						if g >= tc.failing && !errors.Is(err, errDrainFailed) {
							t.Fatalf("%s: client %d Sync of generation %d = %v, want errDrainFailed", drv.name, i, g, err)
						}
					}
					if _, err := snapshot.Load(mem, fmt.Sprintf("wd/s%06d", g)); (err == nil) != (g < tc.failing) {
						t.Fatalf("%s: generation %d manifest: %v", drv.name, g, err)
					}
				}
				if cfg.Crash != nil && (!cfg.Crash.Fired() || snap.Counters["rocpanda.server.crashes"] != 1) {
					t.Fatalf("%s: crash fired %v, recorded %d", drv.name, cfg.Crash.Fired(), snap.Counters["rocpanda.server.crashes"])
				}
				if tasks := snap.Counters["iosched.write.tasks"]; (tasks > 0) != drv.pooled {
					t.Errorf("%s ran %d scheduler write tasks", drv.name, tasks)
				}

				want, sameAsInline := tc.want, true
				if drv.name == "write-through" && tc.wantThrough != nil {
					want, sameAsInline = tc.wantThrough, false
				}
				base, panes := restoreLatest(t, mem, "wd/", nServers, nblocks)
				if wantBase := fmt.Sprintf("wd/s%06d", len(want)); base != wantBase {
					t.Fatalf("%s: restored %q, want %q", drv.name, base, wantBase)
				}
				checkMxN(t, expectedDeltaPanes(t, nServers, nblocks, want), panes)

				got := writeOutcome{files: snapshotFileBytes(t, mem, "wd/"), panes: panes, snap: snap}
				if drv.name == "inline" {
					inline = got
				} else if sameAsInline {
					got.mustEqual(t, drv.name, inline, same)
				}
			}
		})
	}
}

// writeOutcome is what one driver left behind: the committed snapshot
// files, the restored panes and the registry.
type writeOutcome struct {
	files map[string][]byte
	panes map[int]paneData
	snap  metrics.Snapshot
}

// mustEqual requires a driver's files, restored panes and named counters to
// equal the inline driver's.
func (got writeOutcome) mustEqual(t *testing.T, drv string, inline writeOutcome, counters []string) {
	t.Helper()
	if len(got.files) == 0 || len(got.files) != len(inline.files) {
		t.Fatalf("%s wrote %d files, inline %d", drv, len(got.files), len(inline.files))
	}
	for name, b := range inline.files {
		if !bytes.Equal(got.files[name], b) {
			t.Errorf("%s: %s differs from the inline driver's (%d vs %d bytes)", drv, name, len(got.files[name]), len(b))
		}
	}
	if !reflect.DeepEqual(got.panes, inline.panes) {
		t.Errorf("%s restored different bytes than the inline driver", drv)
	}
	for _, name := range counters {
		if a, b := got.snap.Counters[name], inline.snap.Counters[name]; a != b {
			t.Errorf("%s: %s = %d, inline %d", drv, name, a, b)
		}
	}
}

// TestCorruptWriteBlockFailsCommitNotServer: a write block that arrives
// undecodable (or empty) used to panic the server. It must instead fail the
// generation through the sticky drain error — every rank's Sync refuses the
// commit — while the server lives on: the rest of the stream is consumed,
// the write is acknowledged, and the previous generation still restores
// through that same server.
func TestCorruptWriteBlockFailsCommitNotServer(t *testing.T) {
	for name, garbage := range map[string][]byte{"garbage": []byte("\xde\xad\xbe\xef not an IOSet stream"), "empty": nil} {
		t.Run(name, func(t *testing.T) {
			fs := rt.NewMemFS()
			reg := metrics.New()
			world := mpi.NewChanWorld(fs, 1)
			err := world.Run(3, func(ctx mpi.Ctx) error {
				cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true, Metrics: reg})
				if err != nil {
					return err
				}
				if cl == nil {
					return nil
				}
				w := buildWindow(t, cl.Comm().Rank(), 2)
				if err := cl.WriteAttribute("cw/A", w, "all", 0, 0); err != nil {
					return err
				}
				if err := cl.Sync(); err != nil {
					return err
				}
				if cl.Comm().Rank() == 0 {
					// A well-formed header announcing two blocks, then a
					// damaged block and a good one.
					p, _ := w.Pane(w.PaneIDs()[0])
					sets, err := roccom.PaneIOSets(w, p, "all")
					if err != nil {
						return err
					}
					hdr := writeHdr{File: "cw/B", Window: w.Name, Attr: "all", Time: 1, Step: 10, NBlocks: 2}
					cl.world.Send(cl.myServer, tagWriteHdr, encodeWriteHdr(hdr))
					cl.world.Send(cl.myServer, tagWriteBlock, garbage)
					cl.world.Send(cl.myServer, tagWriteBlock, roccom.EncodeIOSets(sets))
					cl.world.Recv(cl.myServer, tagWriteAck)
				} else if err := cl.WriteAttribute("cw/B", w, "all", 1, 10); err != nil {
					return err
				}
				if err := cl.Sync(); !errors.Is(err, errDrainFailed) {
					t.Errorf("client %d Sync = %v, want errDrainFailed", cl.Comm().Rank(), err)
				}
				rw := zeroWindow(t, cl.Comm().Rank(), 2)
				if err := cl.ReadAttribute("cw/A", rw, "all"); err != nil {
					return err
				}
				if err := checkWindow(cl.Comm().Rank(), rw); err != nil {
					return err
				}
				if err := cl.Shutdown(); !errors.Is(err, errDrainFailed) {
					t.Errorf("client %d Shutdown = %v, want the sticky errDrainFailed", cl.Comm().Rank(), err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.Load(fs, "cw/B"); err == nil {
				t.Fatal("generation B committed over a corrupt block")
			}
			c := reg.Snapshot().Counters
			if c["rocpanda.server.crashes"] != 0 || c["rocpanda.drain.errors"] != 1 {
				t.Fatalf("crashes %d, drain errors %d; want 0 and 1", c["rocpanda.server.crashes"], c["rocpanda.drain.errors"])
			}
			// The good block after the damaged one still landed: 2 clients x 2
			// panes of A, then client 1's 2 panes and client 0's 1 of B.
			if n := c["rocpanda.server.blocks_written"]; n != 7 {
				t.Fatalf("blocks_written = %d, want 7", n)
			}
		})
	}
}

// ackTamper damages the first write ack its client receives.
type ackTamper struct {
	mpi.Comm
	done bool
}

func (a *ackTamper) RecvTimed(src int, tags []int, timeout float64) ([]byte, mpi.Status, error) {
	data, st, err := a.Comm.RecvTimed(src, tags, timeout)
	if err == nil && st.Tag == tagWriteAck && !a.done {
		a.done = true
		data = []byte{0x7f, 'x'}
	}
	return data, st, err
}

// TestDamagedWriteAckFailsCommitNotClient: a write ack that arrives with a
// payload used to panic the client. It must instead fail that
// WriteAttribute, and — whether the server took the blocks being unknown —
// every rank's next Sync must refuse the generation.
func TestDamagedWriteAckFailsCommitNotClient(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rank := cl.Comm().Rank()
		w := buildWindow(t, rank, 2)
		if err := cl.WriteAttribute("wa/A", w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		if rank == 0 {
			cl.world = &ackTamper{Comm: cl.world}
		}
		werr := cl.WriteAttribute("wa/B", w, "all", 1, 10)
		if (werr != nil) != (rank == 0) {
			return fmt.Errorf("client %d: WriteAttribute over a damaged ack = %v", rank, werr)
		}
		serr := cl.Sync()
		if serr == nil || (rank == 1 && !errors.Is(serr, errDrainFailed)) {
			return fmt.Errorf("client %d: Sync = %v, want the generation refused", rank, serr)
		}
		cl.Shutdown() // reports the refusal again
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Load(fs, "wa/A"); err != nil {
		t.Fatalf("generation A: %v", err)
	}
	if _, err := snapshot.Load(fs, "wa/B"); err == nil {
		t.Fatal("generation B committed over a damaged write ack")
	}
}

// payloadTamper puts a byte into every message of tag its client sends.
type payloadTamper struct {
	mpi.Comm
	tag int
}

func (p payloadTamper) Send(dst, tag int, data ...[]byte) {
	if tag == p.tag {
		data = append(data, []byte{0x7f})
	}
	p.Comm.Send(dst, tag, data...)
}

// TestDamagedControlMessageFailsCommitNotServer: a sync, shutdown or
// adoption message that arrives with a payload used to panic the server,
// and the world died with it. It must instead stick as the server's drain
// error: the message still does what its tag says, the next ack carries
// ackDrainFailed, and every client's commit refuses the generation.
func TestDamagedControlMessageFailsCommitNotServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		tag  int
	}{{"sync", tagSync}, {"shutdown", tagShutdown}, {"adopt", tagAdopt}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := rt.NewMemFS()
			err := mpi.NewChanWorld(fs, 1).Run(3, func(ctx mpi.Ctx) error {
				cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
				if err != nil || cl == nil {
					return err
				}
				rank := cl.Comm().Rank()
				if rank == 0 {
					cl.world = payloadTamper{Comm: cl.world, tag: tc.tag}
				}
				if tc.tag == tagAdopt && rank == 0 {
					// An announcement to the server that already serves it.
					cl.world.Send(cl.srvRanks[0], tagAdopt)
				}
				if err := cl.WriteAttribute("dc/A", buildWindow(t, rank, 2), "all", 0, 0); err != nil {
					return err
				}
				var cerr error
				if tc.tag == tagShutdown {
					cerr = cl.Shutdown()
				} else {
					cerr = cl.Sync()
					cl.Shutdown()
				}
				if !errors.Is(cerr, errDrainFailed) {
					return fmt.Errorf("client %d: commit = %v, want the generation refused", rank, cerr)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.Load(fs, "dc/A"); err == nil {
				t.Fatal("the generation committed over a damaged control message")
			}
		})
	}
}
