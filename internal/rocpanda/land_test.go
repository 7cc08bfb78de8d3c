package rocpanda

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genxio/internal/cluster"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// syncTally logs, once syncing is set, every write, truncation, close and
// rename made on a snapshot data file, by the file's committed name.
type syncTally struct {
	syncing atomic.Bool
	mu      sync.Mutex
	ops     map[string][]string
}

func (n *syncTally) note(name, op string) {
	if !n.syncing.Load() || !strings.Contains(name, ".rhdf") {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ops == nil {
		n.ops = make(map[string][]string)
	}
	name = strings.TrimSuffix(name, hdf.TmpSuffix)
	n.ops[name] = append(n.ops[name], op)
}

// syncCtx is a rank's mpi.Ctx whose filesystem views — its own and each
// spawned activity's — log into a syncTally.
type syncCtx struct {
	mpi.Ctx
	n *syncTally
}

func (c syncCtx) FS() rt.FS { return syncFS{c.Ctx.FS(), c.n} }

func (c syncCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.Ctx.Spawn(name, func(tc rt.TaskCtx) { fn(syncTask{tc, c.n}) })
}

type syncTask struct {
	rt.TaskCtx
	n *syncTally
}

func (t syncTask) FS() rt.FS { return syncFS{t.TaskCtx.FS(), t.n} }

type syncFS struct {
	rt.FS
	n *syncTally
}

func (f syncFS) Create(name string) (rt.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return syncFile{file, f.n}, nil
}

func (f syncFS) Open(name string) (rt.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return syncFile{file, f.n}, nil
}

func (f syncFS) Rename(oldname, newname string) error {
	f.n.note(newname, "rename")
	return f.FS.Rename(oldname, newname)
}

type syncFile struct {
	rt.File
	n *syncTally
}

func (f syncFile) WriteAt(p []byte, off int64) (int, error) {
	f.n.note(f.Name(), "write")
	return f.File.WriteAt(p, off)
}

func (f syncFile) Truncate(size int64) error {
	f.n.note(f.Name(), "truncate")
	return f.File.Truncate(size)
}

func (f syncFile) Close() error {
	f.n.note(f.Name(), "close")
	return f.File.Close()
}

// landConfig is the shape of the landing tests on simulated Turing: 2
// servers, R = 2, active buffering, the pool or the inline driver.
func landConfig(plat cluster.Platform, async bool, reg *metrics.Registry) Config {
	return Config{
		NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true,
		AsyncDrain: async, DrainWriters: 2, MemcpyBW: plat.MemcpyBW,
		ReplicationFactor: 2, Metrics: reg,
	}
}

// TestSyncOnlyClosesAndRenames: on simulated Turing, 4 clients and 2
// servers at R = 2 make two collective writes into one generation, think
// and sync. A server lands its files' directories once each of its clients
// has sent its part of a write, so during the sync no data file gets a
// write or a truncation, only its close and its rename, and the sync waits
// less than it did when the directories were written under it (measured
// the same way then: 0.0409 s with the pool and 0.0430 s inline, the sync
// making two writes and a truncation on every file before its close and
// rename; 0.0308 s and 0.0330 s now). The
// clients send their parts a second apart, and each file lands twice —
// after each write — the second write's blocks overwriting the first
// landing. Write-through lands nothing: its sync writes every directory, as
// it always did.
func TestSyncOnlyClosesAndRenames(t *testing.T) {
	const nClients, nblocks, think = 4, 32, 20.0
	for _, tc := range []struct {
		name                  string
		async, buffering      bool
		landings, overwritten int64
		ops                   []string // each data file's, during the sync
		before                float64  // the sync wait when the sync wrote every directory; 0: no claim
	}{
		{"pool", true, true, 8, 4, []string{"close", "rename"}, 0.0409},
		{"inline", false, true, 8, 4, []string{"close", "rename"}, 0.0430},
		{"write-through", false, false, 0, 0, []string{"write", "truncate", "write", "close", "rename"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plat := cluster.Turing()
			plat.NoiseFrac = 0
			reg := metrics.New()
			var n syncTally
			var mu sync.Mutex
			var wait float64
			err := cluster.NewWorld(plat, 1).Run(nClients+2, func(ctx mpi.Ctx) error {
				cfg := landConfig(plat, tc.async, reg)
				cfg.ActiveBuffering = tc.buffering
				cl, err := Init(syncCtx{ctx, &n}, cfg)
				if err != nil || cl == nil {
					return err
				}
				// The think times line the syncs up.
				clock, rank := ctx.Clock(), cl.Comm().Rank()
				clock.Compute(float64(rank))
				w := buildWindow(t, rank, nblocks)
				for _, attr := range []string{"mesh", "pressure"} {
					if err := cl.WriteAttribute("cp/s000000", w, attr, 0, 0); err != nil {
						return err
					}
				}
				clock.Compute(think - float64(rank))
				n.syncing.Store(true)
				t0 := clock.Now()
				if err := cl.Sync(); err != nil {
					return err
				}
				mu.Lock()
				wait = max(wait, clock.Now()-t0)
				mu.Unlock()
				return cl.Shutdown()
			})
			if err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			landings, overwritten := c["rocpanda.server.idle_landings"], c["rocpanda.server.landings_overwritten"]
			t.Logf("sync wait %.4f s; %d landings, %d overwritten; data-file ops during the sync: %v", wait, landings, overwritten, n.ops)
			if len(n.ops) != 4 {
				t.Fatalf("%d data files touched during the sync, want 4 (2 servers x R = 2)", len(n.ops))
			}
			for name, ops := range n.ops {
				if !reflect.DeepEqual(ops, tc.ops) {
					t.Errorf("%s during the sync: %v, want %v", name, ops, tc.ops)
				}
			}
			if landings != tc.landings || overwritten != tc.overwritten {
				t.Errorf("%d landings, %d overwritten; want %d, %d", landings, overwritten, tc.landings, tc.overwritten)
			}
			if tc.before > 0 && wait >= tc.before {
				t.Errorf("the sync waited %.4f s, no less than the %.4f s it took writing every directory", wait, tc.before)
			}
		})
	}
}

// TestCrashAfterLandingFallsBack: a server dies when generation 1's sync
// reaches it, after the think time in which its files landed. Those files
// stay staged temporaries holding a valid directory — never renamed, so no
// reader opens them — every client's RestoreLatest falls back to
// generation 0, and the scrub reports the temporaries as staged orphans.
func TestCrashAfterLandingFallsBack(t *testing.T) {
	const nClients, nblocks, think = 4, 8, 20.0
	for _, async := range []bool{true, false} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			plat := cluster.Turing()
			plat.NoiseFrac = 0
			reg := metrics.New()
			// Server 1 serves two clients: its 3rd sync is generation 1's first.
			plan := faults.NewCrashPlan(1, faults.AtSync, 3)
			world := cluster.NewWorld(plat, 1)
			err := world.Run(nClients+2, func(ctx mpi.Ctx) error {
				cfg := landConfig(plat, async, reg)
				cfg.Crash, cfg.RetryTimeout = plan, 0.2
				cl, err := Init(ctx, cfg)
				if err != nil || cl == nil {
					return err
				}
				w := buildWindow(t, cl.Comm().Rank(), nblocks)
				for g := 0; g < 2; g++ {
					if g > 0 {
						w.EachPane(func(p *roccom.Pane) {
							pr, _ := p.Array("pressure")
							for i := range pr.F64 {
								pr.F64[i] += 1000
							}
						})
					}
					if err := cl.WriteAttribute(fmt.Sprintf("cl/s%06d", g), w, "all", float64(g), g); err != nil {
						return err
					}
					ctx.Clock().Compute(think)
					if err := cl.Sync(); err != nil && g == 0 {
						return err
					}
				}
				cl.Shutdown()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Fired() || reg.Snapshot().Counters["rocpanda.server.crashes"] != 1 {
				t.Fatalf("crash fired %v, recorded %d", plan.Fired(), reg.Snapshot().Counters["rocpanda.server.crashes"])
			}
			fs := world.FSModel().Backing()

			// The dead server's files of generation 1 — its primary and the
			// replica it homes at server 0's file set — hold a directory of
			// as many datasets as its committed files of generation 0, every
			// one of which reads back.
			var staged []string
			for _, name := range []string{"cl/s%06d_s001.rhdf", "cl/s%06d_s000r1.rhdf"} {
				final := fmt.Sprintf(name, 1)
				if _, err := fs.Stat(final); !errors.Is(err, rt.ErrNotExist) {
					t.Errorf("%s was renamed into place by a dead server (%v)", final, err)
				}
				tmp := final + hdf.TmpSuffix
				if got, want := landedSets(t, fs, tmp), landedSets(t, fs, fmt.Sprintf(name, 0)); got != want {
					t.Errorf("%s's landed directory lists %d datasets, generation 0's file %d", tmp, got, want)
				}
				staged = append(staged, tmp)
			}

			var mu sync.Mutex
			restored := make(map[string]int)
			err = mpi.NewChanWorld(fs, 1).Run(nClients+2, func(ctx mpi.Ctx) error {
				cl, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true})
				if err != nil || cl == nil {
					return err
				}
				rank := cl.Comm().Rank()
				w := zeroWindow(t, rank, nblocks)
				base, err := cl.RestoreLatest("cl/", func(base string) error { return cl.ReadAttribute(base, w, "all") })
				if err != nil {
					return err
				}
				if err := checkWindow(rank, w); err != nil {
					return err
				}
				mu.Lock()
				restored[base]++
				mu.Unlock()
				return cl.Shutdown()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(restored, map[string]int{"cl/s000000": nClients}) {
				t.Fatalf("restored %v, want generation 0 on all %d clients", restored, nClients)
			}

			reports, err := snapshot.Fsck(fs, "cl/")
			if err != nil {
				t.Fatal(err)
			}
			var orphans []string
			for _, rep := range reports {
				for _, f := range rep.Files {
					if f.Status == "staged" {
						orphans = append(orphans, f.Name)
					}
				}
			}
			sort.Strings(orphans)
			sort.Strings(staged)
			if !reflect.DeepEqual(orphans, staged) {
				t.Fatalf("the scrub reports staged orphans %v, want %v", orphans, staged)
			}
		})
	}
}

// landedSets opens name through its header and directory, reads every
// dataset back and returns how many there are.
func landedSets(t *testing.T, fs rt.FS, name string) int {
	t.Helper()
	r, err := hdf.Open(fs, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer r.Close()
	for _, d := range r.Datasets() {
		if _, err := r.ReadData(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return r.NumDatasets()
}

// TestLandingMakesTheSameFileCalls: on goroutine ranks, where the order and
// spacing of the clients' parts is timing, a buffered server makes exactly
// the filesystem calls of a write-through one, file by file and in order:
// each file lands once, after the last part of its generation's write, and
// the landing's directory write, truncation and header write replace the
// ones its close would have made. The clients send their parts
// milliseconds apart, so a server's queue runs empty between them; a
// landing taken then would be overwritten, and the file would get three
// calls more.
func TestLandingMakesTheSameFileCalls(t *testing.T) {
	const nClients, nblocks, gens = 4, 6, 3
	run := func(async, buffering bool) map[string][]string {
		var n syncTally
		n.syncing.Store(true)
		err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(nClients+2, func(ctx mpi.Ctx) error {
			cl, err := Init(syncCtx{ctx, &n}, Config{
				NumServers: 2, Profile: hdf.NullProfile(),
				ActiveBuffering: buffering, AsyncDrain: async, DrainWriters: 2,
			})
			if err != nil || cl == nil {
				return err
			}
			rank := cl.Comm().Rank()
			w := buildWindow(t, rank, nblocks)
			for g := 0; g < gens; g++ {
				time.Sleep(time.Duration(rank) * 5 * time.Millisecond)
				if err := cl.WriteAttribute(fmt.Sprintf("lc/s%06d", g), w, "all", float64(g), g); err != nil {
					return err
				}
				cl.Comm().Barrier()
			}
			if err := cl.Sync(); err != nil {
				return err
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		return n.ops
	}
	want := run(false, false)
	if len(want) != 2*gens {
		t.Fatalf("write-through touched %d data files, want %d", len(want), 2*gens)
	}
	for _, async := range []bool{false, true} {
		if got := run(async, true); !reflect.DeepEqual(got, want) {
			t.Errorf("buffered (async %v) file calls differ from write-through:\n%v\n%v", async, got, want)
		}
	}
}
