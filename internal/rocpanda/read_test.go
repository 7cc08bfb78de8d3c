package rocpanda

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// restartExpectIncomplete restarts file on a fresh world over fs and
// requires every client's collective read to fail with
// ErrIncompleteRestart — the degraded-not-dead contract of a damaged or
// unreachable share. Returns the registry all ranks shared.
func restartExpectIncomplete(t *testing.T, fs rt.FS, file string, nClients, nServers int, tune func(*Config)) metrics.Snapshot {
	t.Helper()
	reg := metrics.New()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cfg := Config{
			NumServers: nServers, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
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
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		readErr := cl.ReadAttribute(file, w, "all")
		if err := cl.Shutdown(); err != nil {
			return err
		}
		if readErr == nil {
			t.Errorf("client %d restored %q despite the injected damage", cl.Comm().Rank(), file)
			return nil
		}
		if !errors.Is(readErr, ErrIncompleteRestart) {
			return readErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestParallelReadMxNBitExact is the read engine's core contract: with
// ParallelRead on, an M×N restart restores every pane bit-identical to
// the serial path, whether shrinking or growing the topology — ordering
// across files may differ, but per-file plan order and first-arrival
// dedupe make the restored state equal.
func TestParallelReadMxNBitExact(t *testing.T) {
	cases := []struct {
		name               string
		wClients, wServers int
		rClients, rServers int
	}{
		{"shrink", 8, 2, 3, 1},
		{"grow", 3, 1, 8, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := rt.NewMemFS()
			file := "pread/" + tc.name
			writeSnapshot(t, fs, file, tc.wClients, tc.wServers, 2)
			want := expectedPanes(t, tc.wClients, 2)

			serialReg := metrics.New()
			checkMxN(t, want, restartTopology(t, fs, file, tc.rClients, tc.rServers, serialReg))

			parReg := metrics.New()
			got := restartTopologyCfg(t, fs, file, tc.rClients, tc.rServers, parReg, func(cfg *Config) {
				cfg.ParallelRead = true
				cfg.ReadWorkers = 4
			})
			checkMxN(t, want, got)

			// Same generation, same plans: the engine must read exactly the
			// bytes the serial indexed path reads, and serve from the catalog.
			sSnap, pSnap := serialReg.Snapshot(), parReg.Snapshot()
			if s, p := sSnap.Counters["rocpanda.restart.bytes_read"], pSnap.Counters["rocpanda.restart.bytes_read"]; p != s || p == 0 {
				t.Fatalf("parallel bytes_read = %d, serial = %d; want equal and > 0", p, s)
			}
			if hits := pSnap.Counters["rocpanda.restart.catalog_hits"]; hits != int64(tc.rServers) {
				t.Fatalf("catalog_hits = %d, want %d", hits, tc.rServers)
			}
			if pSnap.Counters["rocpanda.server.reads_served"] == 0 {
				t.Fatal("parallel servers shipped nothing")
			}
			if errs := pSnap.Counters["rocpanda.read.errors"]; errs != 0 {
				t.Fatalf("read errors = %d on a healthy restart", errs)
			}
		})
	}
}

// TestParallelReadQueueFillsUnbounded pins the admission loop: with no
// byte budget every task is dealt before the first result is consumed,
// so the queue peak equals the round's task count (at least the file
// count) — the pool actually runs wide, it doesn't degenerate.
func TestParallelReadQueueFillsUnbounded(t *testing.T) {
	fs := rt.NewMemFS()
	writeSnapshot(t, fs, "pq/s", 8, 2, 2)
	reg := metrics.New()
	got := restartTopologyCfg(t, fs, "pq/s", 3, 1, reg, func(cfg *Config) { cfg.ParallelRead = true })
	checkMxN(t, expectedPanes(t, 8, 2), got)
	sm := reg.Snapshot()
	// The lone server's share is the two writers' files: at least one task
	// per file must have been in flight together.
	if peak := sm.Gauges["iosched.read.queue_depth"]; peak < 2 {
		t.Fatalf("iosched.read.queue_depth = %v, want >= 2 (both files in flight)", peak)
	}
	if waits := sm.Counters["iosched.read.backpressure_waits"]; waits != 0 {
		t.Fatalf("backpressure waits = %d with no budget", waits)
	}
}

// TestParallelReadBudgetOneByteDegeneratesToSerial pins the budget
// semantics: a budget smaller than any task admits exactly one read at a
// time — every later task stalls until the pool drains — and the restart
// still restores everything bit-exact.
func TestParallelReadBudgetOneByteDegeneratesToSerial(t *testing.T) {
	fs := rt.NewMemFS()
	writeSnapshot(t, fs, "pb/s", 8, 2, 2)
	reg := metrics.New()
	got := restartTopologyCfg(t, fs, "pb/s", 3, 1, reg, func(cfg *Config) {
		cfg.ParallelRead = true
		cfg.ReadWorkers = 4
		cfg.ReadBudgetBytes = 1
	})
	checkMxN(t, expectedPanes(t, 8, 2), got)
	sm := reg.Snapshot()
	if peak := sm.Gauges["iosched.read.queue_depth"]; peak != 1 {
		t.Fatalf("iosched.read.queue_depth = %v with a 1-byte budget, want 1", peak)
	}
	if waits := sm.Counters["iosched.read.backpressure_waits"]; waits < 1 {
		t.Fatalf("iosched.read.backpressure_waits = %d, want >= 1", waits)
	}
}

// TestReadListFailureDegradesNotCrash pins the first bugfix: a failed
// directory listing used to panic the server mid-round, hanging every
// client waiting for its done notification. It must instead count a read
// error and report the round failed — clients get their notifications,
// the collective completes, and the restart surfaces ErrIncompleteRestart
// instead of deadlocking. Run without RetryTimeout so a hang would be the
// world's DeadlockError, not a failover.
func TestReadListFailureDegradesNotCrash(t *testing.T) {
	raw := rt.NewMemFS()
	writeSnapshot(t, raw, "lf/A", 2, 1, 2)
	plan := faults.NewFSPlan(1, faults.FSRule{
		Op: faults.OpList, PathPrefix: "lf/A_s", Msg: "stale file handle",
	})
	sm := restartExpectIncomplete(t, faults.WrapFS(raw, plan), "lf/A", 2, 1, nil)
	if sm.Counters["rocpanda.server.crashes"] != 0 {
		t.Fatal("server crashed on a failed listing")
	}
	if n := sm.Counters["rocpanda.read.errors"]; n != 1 {
		t.Fatalf("rocpanda.read.errors = %d, want 1 (the failed listing)", n)
	}
}

// slowWriteFS delays every write to a snapshot data file by delay of real
// time: the observable cost of the drain a pre-read flush waits for.
type slowWriteFS struct {
	rt.FS
	delay time.Duration
}

func (f *slowWriteFS) Create(name string) (rt.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowWriteFile{file, f.delay}, nil
}

type slowWriteFile struct {
	rt.File
	delay time.Duration
}

func (f slowWriteFile) WriteAt(p []byte, off int64) (int, error) {
	if strings.Contains(f.Name(), ".rhdf") {
		time.Sleep(f.delay)
	}
	return f.File.WriteAt(p, off)
}

// TestRestartScanTimeExcludesFlush pins the second bugfix: the restart
// scan histogram used to start before the pre-read flushOutput, so the
// drain barrier's cost was booked as scan time. Writes to the data files
// (the drain a read of an unsynced generation flushes first: at least the
// last block's, which also publishes the file) are slowed by 50ms of real
// time each; that cost must land in drain.flush_seconds and stay out of
// restart_scan_seconds.
func TestRestartScanTimeExcludesFlush(t *testing.T) {
	fs := &slowWriteFS{FS: rt.NewMemFS(), delay: 50 * time.Millisecond}
	reg := metrics.New()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("fl/A", w, "all", 0, 0); err != nil {
			return err
		}
		// No Sync: the buffered generation may still be queued, so the
		// read must flush it first.
		if err := cl.ReadAttribute("fl/A", w, "all"); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	flush := s.Histograms["rocpanda.drain.flush_seconds"]
	scan := s.Histograms["rocpanda.server.restart_scan_seconds"]
	if flush.Count == 0 || flush.Sum < 0.09 {
		t.Fatalf("flush_seconds sum = %v over %d obs, want >= 0.09 (the slowed writes)", flush.Sum, flush.Count)
	}
	if scan.Count == 0 || scan.Sum > 0.05 {
		t.Fatalf("restart_scan_seconds sum = %v, want well under the slowed writes' 0.05 s each", scan.Sum)
	}
}

// TestRestartWastedBytesAccounting pins the third bugfix: bytes pulled
// from a file that never ships (here: payload corrupted after commit, so
// its CRC check fails) must count as bytes_wasted, not bytes_read — the
// old accounting incremented bytes_read per run before verification and
// kept it after the early return.
func TestRestartWastedBytesAccounting(t *testing.T) {
	for _, mode := range []string{"indexed", "scan"} {
		t.Run(mode, func(t *testing.T) {
			fs := rt.NewMemFS()
			writeSnapshot(t, fs, "wb/A", 2, 1, 2)
			chain, err := snapshot.LoadChain(fs, "wb/A")
			if err != nil {
				t.Fatal(err)
			}
			cat := chain[0].Catalog
			if len(cat.Entries) == 0 {
				t.Fatal("empty catalog")
			}
			// Flip one bit in the middle of the last entry's stored payload:
			// indexed reads catch it via the entry CRC, scans via the
			// reader's dataset checksum. The last entry keeps a prefix of
			// the scan walk succeeding, so the scan's partial reads are
			// provably re-accounted as waste too.
			e := cat.Entries[len(cat.Entries)-1]
			name := cat.Files[e.File]
			off, length := e.Extent()
			if err := faults.FlipBit(fs, name, (off+length/2)*8); err != nil {
				t.Fatal(err)
			}
			if mode == "scan" {
				if err := fs.Remove("wb/A" + snapshot.Suffix); err != nil {
					t.Fatal(err)
				}
			}
			c := restartExpectIncomplete(t, fs, "wb/A", 2, 1, nil).Counters
			if opened, skipped := c["rocpanda.restart.files_opened"], c["rocpanda.server.files_skipped"]; opened != 1 || skipped != 1 {
				t.Fatalf("opened %d skipped %d, want 1 and 1", opened, skipped)
			}
			if n := c["rocpanda.restart.bytes_read"]; n != 0 {
				t.Fatalf("bytes_read = %d for a file that never shipped, want 0", n)
			}
			if n := c["rocpanda.restart.bytes_wasted"]; n <= 0 {
				t.Fatalf("bytes_wasted = %d, want > 0", n)
			}
			if n := c["rocpanda.read.errors"]; n != 1 {
				t.Fatalf("rocpanda.read.errors = %d, want 1", n)
			}
		})
	}
}

// TestReadFaultsDegradeNotCrash sweeps injected Open and ReadAt failures
// over the serial and parallel read paths: the poisoned file is skipped
// whole, the server survives, and the collective surfaces
// ErrIncompleteRestart.
func TestReadFaultsDegradeNotCrash(t *testing.T) {
	for _, par := range []bool{false, true} {
		for _, op := range []faults.FSOp{faults.OpOpen, faults.OpRead} {
			name := "serial-" + string(op)
			if par {
				name = "parallel-" + string(op)
			}
			t.Run(name, func(t *testing.T) {
				raw := rt.NewMemFS()
				writeSnapshot(t, raw, "of/A", 2, 1, 2)
				plan := faults.NewFSPlan(1, faults.FSRule{Op: op, PathPrefix: "of/A_s"})
				var tune func(*Config)
				if par {
					tune = func(cfg *Config) {
						cfg.ParallelRead = true
						cfg.ReadWorkers = 2
					}
				}
				c := restartExpectIncomplete(t, faults.WrapFS(raw, plan), "of/A", 2, 1, tune).Counters
				if c["rocpanda.server.crashes"] != 0 {
					t.Fatalf("server crashed on an injected %s failure", op)
				}
				if n := c["rocpanda.server.files_skipped"]; n < 1 {
					t.Fatalf("files_skipped = %d, want >= 1", n)
				}
				if n := c["rocpanda.read.errors"]; n < 1 {
					t.Fatalf("rocpanda.read.errors = %d, want >= 1", n)
				}
			})
		}
	}
}

// TestParallelReadCrashMidReadFallsBack is the read engine's crash drill:
// an injected MidRead crash kills server 1 while it serves snapshot B — on
// one of its read workers in the pool, on the request loop inline. The
// clients' stall detection must declare the silent server dead, and the
// generation fallback to snapshot A must then restore bit-exact from the
// survivor alone. Inline, the crash point fires once per file and after
// that file's ships: dying at the second visit, with two files in its
// share, the victim has shipped every pane of both.
func TestParallelReadCrashMidReadFallsBack(t *testing.T) {
	cases := []struct {
		name     string
		par      bool
		wServers int // writers' server count: the files the two readers share
		nth      int
		served   int // panes the victim ships before dying; -1 is unchecked
	}{
		{"serial", false, 2, 1, 4},
		{"serial-second-file", false, 4, 2, 4},
		{"parallel", true, 2, 1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := rt.NewMemFS()
			writeSnapshot(t, fs, "cr/A", 4, tc.wServers, 2)
			writeSnapshot(t, fs, "cr/B", 4, tc.wServers, 2)

			var regs rankRegistries
			plan := faults.NewCrashPlan(1, faults.MidRead, tc.nth)
			world := mpi.NewChanWorld(fs, 1)
			err := world.Run(6, func(ctx mpi.Ctx) error {
				cl, err := Init(ctx, Config{
					NumServers: 2, Profile: hdf.NullProfile(),
					ActiveBuffering: true,
					ParallelRead:    tc.par,
					ReadWorkers:     2,
					Crash:           plan,
					RetryTimeout:    0.05,
					Metrics:         regs.forRank(ctx.Comm().Rank()),
				})
				if err != nil {
					return err
				}
				if cl == nil {
					return nil
				}
				w := zeroWindow(t, cl.Comm().Rank(), 2)
				readErr := cl.ReadAttribute("cr/B", w, "all")
				// The crash leaves all clients short of B; agree and fall
				// back a generation, now excluding the dead server.
				if mpi.Agree(cl.Comm(), readErr) != nil {
					if err := cl.ReadAttribute("cr/A", w, "all"); err != nil {
						return err
					}
				} else {
					t.Error("no client saw the mid-read crash")
				}
				if err := checkWindow(cl.Comm().Rank(), w); err != nil {
					return err
				}
				return cl.Shutdown()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Fired() {
				t.Fatal("crash plan never fired")
			}
			_, victim := regs.crashed(t)
			if served := victim["rocpanda.server.reads_served"]; tc.served >= 0 && served != int64(tc.served) {
				t.Fatalf("victim shipped %d panes before dying, want %d", served, tc.served)
			}
		})
	}
}

// openCountFS counts Open calls by file name.
type openCountFS struct {
	rt.FS
	mu    sync.Mutex
	opens map[string]int
}

func (f *openCountFS) Open(name string) (rt.File, error) {
	f.mu.Lock()
	f.opens[name]++
	f.mu.Unlock()
	return f.FS.Open(name)
}

// TestReadDriversAreOneMachine runs every kind of restart round under both
// drivers of the read engine and requires the same restored bytes and the
// same accounting from each: the inline driver (ParallelRead off) and the
// worker pool are configurations of one state machine, not two
// implementations. It also pins that the inline driver builds no
// scheduler, and — every rank counting into a registry of its own — that
// all rounds follow one plan and one deal.
func TestReadDriversAreOneMachine(t *testing.T) {
	full := func(cfg *Config) { cfg.DeltaSnapshots = false }
	r2 := func(cfg *Config) { cfg.DeltaSnapshots, cfg.ReplicationFactor = false, 2 }
	total := func(name string, want int64) func(*testing.T, *rankRegistries) {
		return func(t *testing.T, regs *rankRegistries) {
			if got := regs.total(name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	}
	cases := []struct {
		name   string
		gens   int // generations written; the last one is restored
		tune   func(*Config)
		damage func(fs rt.FS, head string) error
		rules  func(head string) []faults.FSRule // injected anew into each restore
		want   map[int]paneData
		checks []func(*testing.T, *rankRegistries) // run after each restore
	}{
		{name: "indexed", gens: 1, tune: full},
		// No commit record: the files' own directories are the index.
		{name: "scan", gens: 1, tune: full,
			damage: func(fs rt.FS, head string) error { return fs.Remove(head + snapshot.Suffix) }},
		{name: "delta-chain", gens: 3, want: expectedDeltaPanes(t, 4, 2, []int{1, 2})},
		{name: "r2-deleted-primary", gens: 1, tune: r2,
			damage: func(fs rt.FS, head string) error { return damagePrimary(fs, head, head+"_s000.rhdf", "delete") }},
		{name: "r2-flipped-primary", gens: 1, tune: r2,
			damage: func(fs rt.FS, head string) error { return damagePrimary(fs, head, head+"_s000.rhdf", "flipbit") }},
		// The deal is keyed on a file's home server, so the two primaries of
		// an R = 2 generation go one to each server; dealt by slots of the
		// sorted listing, where replica names interleave, one server read
		// both.
		{name: "r2-one-primary-each", gens: 1, tune: r2,
			checks: []func(*testing.T, *rankRegistries){func(t *testing.T, regs *rankRegistries) {
				for _, c := range regs.servers() {
					if n := c["rocpanda.restart.files_opened"]; n != 1 {
						t.Errorf("a server opened %d files, want 1", n)
					}
				}
			}}},
		// A file the catalog never saw (a server wrongly declared dead
		// renamed it into place after the commit) is still read, through an
		// index derived from its own directory: here it holds the only copy
		// of the panes planned from the file it replaced.
		{name: "late-file", gens: 1, tune: full,
			damage: func(fs rt.FS, head string) error { return fs.Rename(head+"_s001.rhdf", head+"_s002.rhdf") },
			checks: []func(*testing.T, *rankRegistries){
				total("rocpanda.restart.catalog_hits", 2),
				total("rocpanda.server.files_skipped", 1),
			}},
		// A derived index is an index: with no commit record, each server
		// derives its share's, where the replica of the primary that fails
		// its CRCs — in the other server's share — is a pane's best copy,
		// and every pane is still restored.
		{name: "derived-r2-flipped-primary", gens: 1, tune: r2,
			damage: func(fs rt.FS, head string) error {
				if err := damagePrimary(fs, head, head+"_s000.rhdf", "flipbit"); err != nil {
					return err
				}
				return fs.Remove(head + snapshot.Suffix)
			},
			checks: []func(*testing.T, *rankRegistries){
				total("rocpanda.restart.catalog_fallbacks", 2),
				total("rocpanda.server.files_skipped", 1),
			}},
		// A file with no directory (what a crashed writer leaves behind) is
		// skipped and the rest of the share delivered.
		{name: "derived-no-directory", gens: 1, tune: full,
			damage: func(fs rt.FS, head string) error {
				if err := hdf.PublishFile(fs, head+"_s002.rhdf", []byte("not an RHDF file")); err != nil {
					return err
				}
				return fs.Remove(head + snapshot.Suffix)
			},
			checks: []func(*testing.T, *rankRegistries){
				total("rocpanda.restart.catalog_fallbacks", 2),
				total("rocpanda.server.files_skipped", 1),
				total("rocpanda.restart.files_opened", 2),
			}},
	}
	same := []string{
		"rocpanda.restart.files_opened", "rocpanda.restart.bytes_read", "rocpanda.restart.bytes_wasted",
		"rocpanda.restart.replica_reads", "rocpanda.restart.repaired_panes",
		"rocpanda.server.reads_served", "rocpanda.server.files_skipped", "rocpanda.read.errors",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := rt.NewMemFS()
			writeDeltaChain(t, fs, "om/", 4, 2, 2, tc.gens, tc.tune)
			head := fmt.Sprintf("om/s%06d", tc.gens-1)
			if tc.damage != nil {
				if err := tc.damage(fs, head); err != nil {
					t.Fatal(err)
				}
			}
			want := tc.want
			if want == nil {
				want = expectedPanes(t, 4, 2)
			}
			restore := func(pooled bool) (map[int]paneData, *rankRegistries) {
				var fsys rt.FS = fs
				if tc.rules != nil {
					fsys = faults.WrapFS(fs, faults.NewFSPlan(1, tc.rules(head)...))
				}
				regs := new(rankRegistries)
				got := restartTopologyCfg(t, fsys, head, 3, 2, nil, func(cfg *Config) {
					cfg.ParallelRead = pooled
					cfg.ReadWorkers = 3
					cfg.Metrics = regs.fresh()
				})
				checkMxN(t, want, got)
				for _, check := range tc.checks {
					check(t, regs)
				}
				return got, regs
			}
			inlineGot, inline := restore(false)
			pooledGot, pooled := restore(true)
			if !reflect.DeepEqual(inlineGot, pooledGot) {
				t.Fatal("the two drivers restored different bytes")
			}
			for _, name := range same {
				if a, b := inline.total(name), pooled.total(name); a != b {
					t.Errorf("%s: inline %d, pooled %d", name, a, b)
				}
			}
			if n := inline.total("iosched.read.tasks"); n != 0 {
				t.Errorf("inline driver ran %d scheduler tasks, want none", n)
			}
			if pooled.total("iosched.read.tasks") == 0 {
				t.Error("pool driver ran no scheduler tasks")
			}
		})
	}

	// One plan: a round opens each chain link's commit record once per
	// server, whatever the chain's length and the driver. (The clients
	// restore the panes they wrote, so only servers touch the metadata.)
	for _, depth := range []int{0, 2} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("metadata-opens/depth-%d/pooled-%v", depth, pooled), func(t *testing.T) {
				fs := &openCountFS{FS: rt.NewMemFS(), opens: make(map[string]int)}
				writeDeltaChain(t, fs, "om/", 4, 2, 2, depth+1, nil)
				clear(fs.opens)
				err := mpi.NewChanWorld(fs, 1).Run(4+2, func(ctx mpi.Ctx) error {
					cl, err := Init(ctx, Config{
						NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true,
						ParallelRead: pooled,
					})
					if cl == nil {
						return err
					}
					readErr := cl.ReadAttribute(fmt.Sprintf("om/s%06d", depth), zeroWindow(t, cl.Comm().Rank(), 2), "all")
					if err := cl.Shutdown(); err != nil {
						return err
					}
					return readErr
				})
				if err != nil {
					t.Fatal(err)
				}
				for g := 0; g <= depth; g++ {
					if name := fmt.Sprintf("om/s%06d%s", g, snapshot.Suffix); fs.opens[name] != 2 {
						t.Errorf("%s opened %d times by 2 servers, want once each", name, fs.opens[name])
					}
				}
			})
		}
	}

	// One kind of file work: with no commit record, one large file is still read
	// by coalesced runs — a handful of ReadAt calls, not one per dataset —
	// and under the pool its runs split into chunks across the workers.
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("derived-coalesced/pooled-%v", pooled), func(t *testing.T) {
			raw := rt.NewMemFS()
			writeSnapshot(t, raw, "lg/A", 4, 1, 120)
			if err := raw.Remove("lg/A" + snapshot.Suffix); err != nil {
				t.Fatal(err)
			}
			size, _, sets, err := hdf.ScanDir(raw, "lg/A_s000.rhdf")
			if err != nil {
				t.Fatal(err)
			}
			if size <= 512<<10 {
				t.Fatalf("the file is %d bytes: too small to split into pool chunks", size)
			}
			fs := &slowFS{FS: raw}
			reg := metrics.New()
			got := restartTopologyCfg(t, fs, "lg/A", 3, 1, reg, func(cfg *Config) {
				cfg.ParallelRead = pooled
				cfg.ReadWorkers = 3
			})
			checkMxN(t, expectedPanes(t, 4, 120), got)
			c := reg.Snapshot().Counters
			if n := c["rocpanda.restart.catalog_fallbacks"]; n != 1 {
				t.Errorf("catalog_fallbacks = %d, want 1", n)
			}
			if n := c["iosched.read.tasks"]; pooled != (n > 1) {
				t.Errorf("iosched.read.tasks = %d with pooled = %v", n, pooled)
			}
			// Every ReadAt of the restart, metadata included (the manifest,
			// each directory once per process that derives from it).
			if reads := fs.reads.Load(); reads*10 > int64(len(sets)) {
				t.Errorf("%d ReadAt calls for a file of %d datasets: want runs, not datasets", reads, len(sets))
			}
		})
	}

	// Individual I/O with no commit record: the one file a rank names (Own)
	// goes through the same machine, under either driver.
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("own-file-no-manifest/workers-%d", workers), func(t *testing.T) {
			fs := rt.NewMemFS()
			writeSnapshot(t, fs, "ow/A", 1, 1, 4)
			if err := fs.Remove("ow/A" + snapshot.Suffix); err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			err := mpi.NewChanWorld(fs, 1).Run(1, func(ctx mpi.Ctx) error {
				w := zeroWindow(t, 0, 4)
				rcv := snapshot.NewReceiver(w, "all", w.PaneIDs())
				rd := snapshot.NewReader(ctx, snapshot.ReaderConfig{Workers: workers, Metrics: reg, Prefix: "own."})
				mode := rd.Read(snapshot.ReadRequest{
					Base: "ow/A", Window: w.Name, Attr: "all", Wanted: rcv.Wanted(),
					Own:     "ow/A_s000.rhdf",
					Deliver: func(_ int, sets []roccom.IOSet) { rcv.Deliver(sets) },
				})
				if mode != snapshot.ReadScan {
					return fmt.Errorf("read mode %d, want ReadScan (a derived index)", mode)
				}
				if err := rcv.Complete("ow/A"); err != nil {
					return err
				}
				return checkWindow(0, w)
			})
			if err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			if c["own.files_opened"] != 1 || c["own.catalog_fallbacks"] != 1 {
				t.Errorf("files_opened %d, catalog_fallbacks %d, want 1 and 1", c["own.files_opened"], c["own.catalog_fallbacks"])
			}
			if n := c["iosched.read.tasks"]; (workers > 0) != (n > 0) {
				t.Errorf("iosched.read.tasks = %d with %d workers", n, workers)
			}
		})
	}
}

// TestDirectReadAgreesOnFailure: a direct M×N restart — PanesForRestart,
// then ReadPanes of each client's share — of a generation in which both
// copies of one pane are damaged fails on every client, with no retry
// timeout set: the client whose share held the pane fails its own read,
// and every other learns of it from the read's agreement, so none goes on
// with a partial restart (or into a next collective read its peers never
// make).
func TestDirectReadAgreesOnFailure(t *testing.T) {
	const nClients, nServers = 4, 2
	fs := rt.NewMemFS()
	err := mpi.NewChanWorld(fs, 1).Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true, ReplicationFactor: 2})
		if err != nil || cl == nil {
			return err
		}
		if err := cl.WriteAttribute("da/A", buildWindow(t, cl.Comm().Rank(), 3), "all", 0, 0); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := snapshot.LoadChain(fs, "da/A")
	if err != nil {
		t.Fatal(err)
	}
	cat := chain[0].Catalog
	damaged := cat.Entries[0].Pane
	copies := 0
	for _, e := range cat.Entries {
		if e.Pane == damaged && e.Attr == "pressure" {
			off, length := e.Extent()
			if err := faults.FlipBit(fs, cat.Files[e.File], (off+length/2)*8); err != nil {
				t.Fatal(err)
			}
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("pane %d's pressure has %d copies, want 2", damaged, copies)
	}

	var mu sync.Mutex
	var incomplete, held int
	err = mpi.NewChanWorld(fs, 1).Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil || cl == nil {
			return err
		}
		rc := roccom.New()
		w, err := rc.NewWindow("fluid")
		if err != nil {
			return err
		}
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
		mine, err := cl.PanesForRestart("da/A", "fluid")
		if err != nil {
			return err
		}
		rerr := cl.ReadPanes("da/A", w, "all", mine)
		mu.Lock()
		if errors.Is(rerr, ErrIncompleteRestart) {
			incomplete++
		}
		for _, id := range mine {
			if id == damaged {
				held++
			}
		}
		mu.Unlock()
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if held != 1 || incomplete != nClients {
		t.Fatalf("%d of %d clients returned ErrIncompleteRestart (%d shares held the damaged pane), want all", incomplete, nClients, held)
	}
}
