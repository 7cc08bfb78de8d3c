package rocpanda

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
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

// landConfig is the shape of the publishing tests on simulated Turing: 2
// servers, R = 2, active buffering, the pool or the inline driver.
func landConfig(plat cluster.Platform, async bool, reg *metrics.Registry) Config {
	return Config{
		NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true,
		AsyncDrain: async, DrainWriters: 2, MemcpyBW: plat.MemcpyBW,
		ReplicationFactor: 2, Metrics: reg,
	}
}

// twoWrites is the run the publishing tests share, on simulated Turing: 4
// clients and 2 servers at R = 2 make two collective writes into one
// generation, a second apart, think and sync. It returns the longest sync
// wait, the data-file calls made during the syncs, and the generation's
// files, by name.
func twoWrites(t *testing.T, async, buffering bool, reg *metrics.Registry) (float64, map[string][]string, map[string][]byte) {
	t.Helper()
	const nClients, nblocks, think = 4, 32, 20.0
	plat := cluster.Turing()
	plat.NoiseFrac = 0
	var n syncTally
	var mu sync.Mutex
	var wait float64
	world := cluster.NewWorld(plat, 1)
	err := world.Run(nClients+2, func(ctx mpi.Ctx) error {
		cfg := landConfig(plat, async, reg)
		cfg.ActiveBuffering = buffering
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
	fs := world.FSModel().Backing()
	names, err := fs.List("cp/s000000_")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		if files[name], err = hdf.ReadFile(fs, name); err != nil {
			t.Fatal(err)
		}
	}
	return wait, n.ops, files
}

// TestSyncOnlyClosesAndRenames: a server publishes each file once each of
// its clients has sent its part of a write (twoWrites), so during the sync
// no data file gets any call at all, and the sync waits less than it did
// when it closed and renamed every file (measured the same way then: 0.0308
// s with the pool and 0.0330 s inline; 0.0409 and 0.0430 s before that,
// when it also wrote every directory). Each file is published after each
// write and reopened once, for the second. Write-through publishes nothing
// early: its sync writes every directory, closes and renames, as it always
// did.
func TestSyncOnlyClosesAndRenames(t *testing.T) {
	for _, tc := range []struct {
		name               string
		async, buffering   bool
		publishes, reopens int64
		ops                []string // each data file's, during the sync; nil: no file touched
		before             float64  // the sync wait when the sync closed and renamed every file; 0: no claim
	}{
		{"pool", true, true, 8, 4, nil, 0.0308},
		{"inline", false, true, 8, 4, nil, 0.0330},
		{"write-through", false, false, 0, 0, []string{"write", "truncate", "write", "close", "rename"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			wait, ops, _ := twoWrites(t, tc.async, tc.buffering, reg)
			c := reg.Snapshot().Counters
			publishes, reopens := c["rocpanda.server.idle_publishes"], c["rocpanda.server.files_reopened"]
			t.Logf("sync wait %.4f s; %d publishes, %d reopens; data-file ops during the sync: %v", wait, publishes, reopens, ops)
			want := 0 // files touched during the sync
			if tc.ops != nil {
				want = 4 // 2 servers x R = 2
			}
			if len(ops) != want {
				t.Fatalf("%d data files touched during the sync, want %d", len(ops), want)
			}
			for name, got := range ops {
				if !reflect.DeepEqual(got, tc.ops) {
					t.Errorf("%s during the sync: %v, want %v", name, got, tc.ops)
				}
			}
			if publishes != tc.publishes || reopens != tc.reopens {
				t.Errorf("%d publishes, %d reopens; want %d, %d", publishes, reopens, tc.publishes, tc.reopens)
			}
			if tc.before > 0 && wait >= tc.before {
				t.Errorf("the sync waited %.4f s, no less than the %.4f s it took closing and renaming every file", wait, tc.before)
			}
		})
	}
}

// TestReopenedFileIsWriteThroughBytes: a file published after the first of
// two writes into its generation and reopened for the second (twoWrites)
// ends with the bytes a write-through server leaves, which publishes it
// once: under the pool and the inline driver, all four files, primaries
// and replicas.
func TestReopenedFileIsWriteThroughBytes(t *testing.T) {
	_, _, want := twoWrites(t, false, false, metrics.New())
	if len(want) != 4 {
		t.Fatalf("write-through left %d files, want 4", len(want))
	}
	for _, async := range []bool{true, false} {
		_, _, got := twoWrites(t, async, true, metrics.New())
		if len(got) != len(want) {
			t.Fatalf("async %v: %d files, write-through %d", async, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Errorf("async %v: %s is %d bytes, write-through's %d, and they differ", async, name, len(got[name]), len(b))
			}
		}
	}
}

// TestCrashAfterLandingFallsBack: a server dies in generation 1, after its
// two clients' parts reached it. Killed when generation 1's sync reaches it,
// after the think time in which the drain published its files, it loses
// nothing: generation 1 commits with all four files — the dead server's two
// read off disk (snapshot.commit.dirs_read), as no report of them arrived —
// and restores bit-exact on every client. Killed by the drain step that
// landed generation 1's first block, before the write was whole, its files
// stay staged temporaries, never renamed into place: the commit lacks their
// panes, every client's RestoreLatest falls back to generation 0, and the
// scrub reports the temporaries as staged orphans.
func TestCrashAfterLandingFallsBack(t *testing.T) {
	const nClients, nblocks, think = 4, 8, 20.0
	for _, async := range []bool{true, false} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			for _, tc := range []struct {
				name     string
				plan     *faults.CrashPlan
				restored int   // the generation every client restores
				dirsRead int64 // files the commits read off disk
			}{
				// Server 1 serves two clients: its 3rd sync is generation 1's first.
				{"at-sync", faults.NewCrashPlan(1, faults.AtSync, 3), 1, 2},
				// Generation 0 is 16 blocks of 2 copies: the 33rd step lands generation 1's first copy.
				{"mid-write", faults.NewCrashPlan(1, faults.MidDrain, 33), 0, 0},
			} {
				t.Run(tc.name, func(t *testing.T) {
					plat := cluster.Turing()
					plat.NoiseFrac = 0
					reg := metrics.New()
					world := cluster.NewWorld(plat, 1)
					err := world.Run(nClients+2, func(ctx mpi.Ctx) error {
						cfg := landConfig(plat, async, reg)
						cfg.Crash, cfg.RetryTimeout = tc.plan, 0.2
						cl, err := Init(ctx, cfg)
						if err != nil || cl == nil {
							return err
						}
						w := buildWindow(t, cl.Comm().Rank(), nblocks)
						for g := 0; g < 2; g++ {
							if g > 0 {
								bump(w)
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
					c := reg.Snapshot().Counters
					if !tc.plan.Fired() || c["rocpanda.server.crashes"] != 1 {
						t.Fatalf("crash fired %v, recorded %d", tc.plan.Fired(), c["rocpanda.server.crashes"])
					}
					if got := c["snapshot.commit.dirs_read"]; got != tc.dirsRead {
						t.Errorf("the commits read %d directories off disk, want %d", got, tc.dirsRead)
					}
					fs := world.FSModel().Backing()

					// The dead server's files of generation 1 — its primary
					// and the replica it homes at server 0's file set — are
					// under their final names exactly when their write was
					// whole, and then hold as many datasets as its files of
					// generation 0, every one of which reads back.
					var staged []string
					for _, name := range []string{"cl/s%06d_s001.rhdf", "cl/s%06d_s000r1.rhdf"} {
						final := fmt.Sprintf(name, 1)
						_, err := fs.Stat(final)
						if published := !errors.Is(err, rt.ErrNotExist); published != (tc.restored == 1) {
							t.Errorf("%s under its final name: %v (%v)", final, published, err)
						}
						if tc.restored == 1 {
							if got, want := readBackSets(t, fs, final), readBackSets(t, fs, fmt.Sprintf(name, 0)); got != want {
								t.Errorf("%s lists %d datasets, generation 0's file %d", final, got, want)
							}
						} else if _, err := fs.Stat(final + hdf.TmpSuffix); err == nil {
							staged = append(staged, final+hdf.TmpSuffix)
						}
					}
					if tc.restored == 0 && len(staged) == 0 {
						t.Fatal("the crash left no staged file of generation 1")
					}

					restored := restoreEach(t, fs, "cl/", nClients, nblocks, "all")
					if want := fmt.Sprintf("cl/s%06d", tc.restored); !reflect.DeepEqual(restored, map[string]int{want: nClients}) {
						t.Fatalf("restored %v, want %s on all %d clients", restored, want, nClients)
					}
					sort.Strings(staged)
					if orphans := stagedOrphans(t, fs, "cl/"); !reflect.DeepEqual(orphans, staged) {
						t.Fatalf("the scrub reports staged orphans %v, want %v", orphans, staged)
					}
				})
			}
		})
	}
}

// bump is generation 1's change to a window: every pressure value plus
// 1000.
func bump(w *roccom.Window) {
	w.EachPane(func(p *roccom.Pane) {
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] += 1000
		}
	})
}

// restoreEach restores the newest restorable generation under prefix on
// nClients fresh clients of 2 servers, reading attrs, and returns how many
// clients restored each base. Each client's window must equal, bit for bit,
// what buildWindow gave it — bumped, for generation 1.
func restoreEach(t *testing.T, fs rt.FS, prefix string, nClients, nblocks int, attrs ...string) map[string]int {
	t.Helper()
	var mu sync.Mutex
	restored := make(map[string]int)
	err := mpi.NewChanWorld(fs, 1).Run(nClients+2, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil || cl == nil {
			return err
		}
		rank := cl.Comm().Rank()
		w := zeroWindow(t, rank, nblocks)
		base, err := cl.RestoreLatest(prefix, func(base string) error {
			for _, attr := range attrs {
				if err := cl.ReadAttribute(base, w, attr); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		want := buildWindow(t, rank, nblocks)
		if strings.HasSuffix(base, "s000001") {
			bump(want)
		}
		if err := sameWindow(want, w); err != nil {
			return fmt.Errorf("client %d, %s: %w", rank, base, err)
		}
		mu.Lock()
		restored[base]++
		mu.Unlock()
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// stagedOrphans returns, sorted, the files the scrub of prefix reports as
// staged orphans.
func stagedOrphans(t *testing.T, fs rt.FS, prefix string) []string {
	t.Helper()
	reports, err := snapshot.Fsck(fs, prefix)
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
	return orphans
}

// sameWindow reports the first pane array of got that differs, bit for bit,
// from want's.
func sameWindow(want, got *roccom.Window) error {
	for _, id := range want.PaneIDs() {
		wp, _ := want.Pane(id)
		gp, ok := got.Pane(id)
		if !ok {
			return fmt.Errorf("pane %d missing", id)
		}
		for _, attr := range []string{"pressure", "flags"} {
			wa, _ := wp.Array(attr)
			ga, _ := gp.Array(attr)
			if !bytes.Equal(hdf.F64Bytes(wa.F64), hdf.F64Bytes(ga.F64)) || !slices.Equal(wa.I32, ga.I32) {
				return fmt.Errorf("pane %d %s differs", id, attr)
			}
		}
	}
	return nil
}

// readBackSets opens name through its header and directory, reads every
// dataset back and returns how many there are.
func readBackSets(t *testing.T, fs rt.FS, name string) int {
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

// TestCrashBetweenWritesLeavesFileStaged: generation 1 is two writes into
// one base, a think time apart, so each server publishes its files after the
// first and reopens them for the second. Server 1 dies at the drain step
// that lands the second write's first block in its second copy: each of
// its files of generation 1 is then either a staged temporary — reopened,
// never torn under its final name — or, not reopened yet, under its final
// name holding the first write whole. The generation lacks the second
// write's panes of server 1's clients, so every client's RestoreLatest
// falls back to generation 0, bit-exact, and the scrub reports the
// temporaries as staged orphans. Under the pool and the inline driver.
func TestCrashBetweenWritesLeavesFileStaged(t *testing.T) {
	const nClients, nblocks, think = 4, 8, 20.0
	// A write is 16 blocks of 2 copies at server 1: generation 0's two
	// writes and generation 1's first take 96 steps.
	const nth = 3*16*2 + 2
	for _, async := range []bool{true, false} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			plat := cluster.Turing()
			plat.NoiseFrac = 0
			reg := metrics.New()
			plan := faults.NewCrashPlan(1, faults.MidDrain, nth)
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
						bump(w)
					}
					for _, attr := range []string{"pressure", "flags"} {
						ctx.Clock().Compute(think)
						if err := cl.WriteAttribute(fmt.Sprintf("cb/s%06d", g), w, attr, float64(g), g); err != nil {
							return err
						}
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
			c := reg.Snapshot().Counters
			if !plan.Fired() || c["rocpanda.server.crashes"] != 1 || c["rocpanda.server.files_reopened"] == 0 {
				t.Fatalf("crash fired %v, recorded %d, after %d reopens", plan.Fired(), c["rocpanda.server.crashes"], c["rocpanda.server.files_reopened"])
			}
			fs := world.FSModel().Backing()
			var staged []string
			for _, name := range []string{"cb/s000001_s001.rhdf", "cb/s000001_s000r1.rhdf"} {
				if _, err := fs.Stat(name + hdf.TmpSuffix); err == nil {
					staged = append(staged, name+hdf.TmpSuffix)
					if _, err := fs.Stat(name); !errors.Is(err, rt.ErrNotExist) {
						t.Errorf("%s is both staged and under its final name (%v)", name, err)
					}
				} else if got := readBackSets(t, fs, name); got != 1+2*nblocks {
					t.Errorf("%s under its final name lists %d datasets, want the first write's %d and _meta", name, got, 2*nblocks)
				}
			}
			if len(staged) == 0 {
				t.Fatal("no file of the dead server was reopened")
			}

			restored := restoreEach(t, fs, "cb/", nClients, nblocks, "pressure", "flags")
			if !reflect.DeepEqual(restored, map[string]int{"cb/s000000": nClients}) {
				t.Fatalf("restored %v, want generation 0 on all %d clients", restored, nClients)
			}
			sort.Strings(staged)
			if orphans := stagedOrphans(t, fs, "cb/"); !reflect.DeepEqual(orphans, staged) {
				t.Fatalf("the scrub reports staged orphans %v, want %v", orphans, staged)
			}
		})
	}
}
