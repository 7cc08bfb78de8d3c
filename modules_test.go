package genxio_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rochdf"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/stats"
)

// moduleWindows builds writer i's two windows — two write_attribute calls per
// generation, so an individual-I/O file is created by one and appended to by
// the other — with data that depends only on i, on panes of about nodes
// nodes each.
func moduleWindows(t testing.TB, i, nodes int) []*roccom.Window {
	var ws []*roccom.Window
	for wi, name := range moduleWindowNames {
		w := emptyModuleWindow(t, name)
		rng := stats.NewRNG(uint64(10*i + wi + 1))
		blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
			RInner: 0.1, ROuter: 0.4, Length: 1, BR: 1, BT: 3, BZ: 1, NodesPerBlock: nodes, Spread: 0.2,
		}, 100*i+10*wi+1, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			p, err := w.RegisterPane(b.ID, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, attr := range []string{"pressure", "velocity"} {
				a, _ := p.Array(attr)
				for k := range a.F64 {
					a.F64[k] = rng.Range(-1, 1)
				}
			}
		}
		ws = append(ws, w)
	}
	return ws
}

var moduleWindowNames = []string{"fluid", "solid"}

// emptyModuleWindow declares a module window's attributes and no panes: a
// restart target.
func emptyModuleWindow(t testing.TB, name string) *roccom.Window {
	w, err := roccom.New().NewWindow(name)
	if err != nil {
		t.Fatal(err)
	}
	w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
	w.NewAttribute(roccom.AttrSpec{Name: "velocity", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 3})
	return w
}

// digestLine is one (window, pane, attr, bytes) of a state digest, and
// digestOf the digest of a set of them, in any order.
func digestLine(win string, pane int, attr string, data []byte) string {
	return fmt.Sprintf("%s/%d/%s %x", win, pane, attr, sha256.Sum256(data))
}

func digestOf(lines []string) string {
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%d datasets %s", len(lines), hex.EncodeToString(sum[:]))
}

// windowLines is what a window holds, as digest lines: what stateDigest
// reads from the files, read from memory.
func windowLines(t testing.TB, w *roccom.Window) []string {
	var lines []string
	w.EachPane(func(p *roccom.Pane) {
		sets, err := roccom.PaneIOSets(w, p, "all")
		if err != nil {
			t.Error(err)
		}
		for _, s := range sets {
			win, pane, attr, _ := roccom.ParseDatasetName(s.Name)
			lines = append(lines, digestLine(win, pane, attr, s.Data))
		}
	})
	return lines
}

// stateDigest is the layout-independent digest of a committed generation:
// every (window, pane, attr, bytes) read back from the manifest's files,
// whichever file a pane went through and in whatever order.
func stateDigest(t *testing.T, fs rt.FS, base string) string {
	t.Helper()
	m, err := snapshot.Load(fs, base)
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	// The restore walk's file check passes every manifested file.
	if err := mpi.NewChanWorld(fs, 1).Run(1, func(ctx mpi.Ctx) error {
		_, err := snapshot.NewReader(ctx, snapshot.ReaderConfig{}).Restore(ctx.Comm(), base, func(string) error { return nil })
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range m.Files {
		r, err := hdf.Open(fs, e.Name, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range r.Datasets() {
			win, pane, attr, ok := roccom.ParseDatasetName(d.Name)
			if !ok {
				continue // _meta says who wrote the file: layout, not state
			}
			data, err := r.ReadData(d)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, digestLine(win, pane, attr, data))
		}
		r.Close()
	}
	return digestOf(lines)
}

func fileSHA(t *testing.T, fs rt.FS, name string) string {
	t.Helper()
	buf, err := hdf.ReadFile(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// paneIO is what every module's service offers: the three Roccom calls, the
// explicit-pane restart and its deal of a generation's panes.
type paneIO interface {
	roccom.IOService
	ReadPanes(file string, w *roccom.Window, attr string, ids []int) error
	PanesForRestart(base, window string) ([]int, error)
}

// ioModule is one way to run a rank of an I/O module: Rochdf, T-Rochdf, or
// Rocpanda (two servers) under its inline or its pool drivers.
type ioModule struct {
	name    string
	servers int
	file    string // where writer 1's blocks of m/g0 land
	golden  string // SHA-256 of that file as the commit before PR 21 wrote it
	// open starts the rank's service; svc is nil on a Rocpanda server, which
	// has then already served. comm spans the ranks that got one.
	open func(mpi.Ctx) (svc paneIO, comm mpi.Comm, close func() error, err error)
}

// ioModules returns the four module configurations, recording into reg.
func ioModules(reg *metrics.Registry) []ioModule { return retainingModules(reg, 0) }

// retainingModules is ioModules with each commit pruning all but the newest
// retain generations (0 keeps them all).
func retainingModules(reg *metrics.Registry, retain int) []ioModule {
	panda := func(tune func(*rocpanda.Config)) func(mpi.Ctx) (paneIO, mpi.Comm, func() error, error) {
		return func(ctx mpi.Ctx) (paneIO, mpi.Comm, func() error, error) {
			cfg := rocpanda.Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true, Metrics: reg,
				RetainGenerations: retain}
			tune(&cfg)
			cl, err := rocpanda.Init(ctx, cfg)
			if err != nil || cl == nil {
				return nil, nil, nil, err
			}
			return cl, cl.Comm(), cl.Shutdown, nil
		}
	}
	hdfModule := func(threaded bool) func(mpi.Ctx) (paneIO, mpi.Comm, func() error, error) {
		return func(ctx mpi.Ctx) (paneIO, mpi.Comm, func() error, error) {
			h := rochdf.New(ctx, rochdf.Config{Profile: hdf.NullProfile(), Threaded: threaded, Metrics: reg,
				RetainGenerations: retain})
			return h, ctx.Comm(), h.Close, nil
		}
	}
	return []ioModule{
		{"rochdf", 0, "m/g0_p00001.rhdf", goldenRochdfFile, hdfModule(false)},
		{"trochdf", 0, "m/g0_p00001.rhdf", goldenRochdfFile, hdfModule(true)},
		{"rocpanda-inline", 2, "m/g0_s001.rhdf", "", panda(func(*rocpanda.Config) {})},
		{"rocpanda-pool", 2, "m/g0_s001.rhdf", "", panda(func(cfg *rocpanda.Config) {
			cfg.AsyncDrain, cfg.DrainWriters = true, 2
			cfg.ParallelRead, cfg.ReadWorkers = true, 2
		})},
	}
}

// TestModulesAreOneService runs the same two writers through all three I/O
// modules — Rochdf, T-Rochdf, and Rocpanda under both drivers — and requires
// the same outcome from each, clean or faulted: they are placements of one
// write service and one commit protocol (internal/snapshot), not three
// implementations. The golden digests pin the individual-I/O files to the
// bytes the modules wrote before they shared it. The restart matrix is the
// read half: one restart-read service under them all.
func TestModulesAreOneService(t *testing.T) {
	const writers = 2
	modules := ioModules(nil)
	const record = "m/g0" + snapshot.Suffix
	scenarios := []struct {
		name    string
		rule    func(file string) *faults.FSRule
		commits bool
		names   string // what the one error that owns the failure names, when not the file
	}{
		{"clean", nil, true, ""},
		{"disk-full", func(file string) *faults.FSRule {
			return &faults.FSRule{Op: faults.OpWrite, PathPrefix: file, Nth: 3, Msg: "no space left on device"}
		}, false, ""},
		// A snapshot file is renamed into place as its writer closes.
		{"failed-close", func(file string) *faults.FSRule {
			return &faults.FSRule{Op: faults.OpRename, PathPrefix: file}
		}, false, ""},
		// Every output landed, but rank 0 cannot create the file that holds
		// the commit's catalog, its commit record: the commit fails there,
		// and every other rank must hear of it.
		{"catalog-create-fails", func(string) *faults.FSRule {
			return &faults.FSRule{Op: faults.OpCreate, PathPrefix: record}
		}, false, record},
		// The rename reports success and never happens: the writer published
		// a file the filesystem does not have, and the generation is short.
		{"dropped-rename", func(file string) *faults.FSRule {
			return &faults.FSRule{Op: faults.OpRename, PathPrefix: file, DropRename: true}
		}, false, ""},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var firstDigest string
			for _, mod := range modules {
				mem := rt.NewMemFS()
				var fs rt.FS = mem
				if sc.rule != nil {
					fs = faults.WrapFS(mem, faults.NewFSPlan(1, *sc.rule(mod.file)))
				}
				var mu sync.Mutex
				var syncErrs, lateErrs []error
				err := mpi.NewChanWorld(fs, 1).Run(writers+mod.servers, func(ctx mpi.Ctx) error {
					svc, comm, closeSvc, err := mod.open(ctx)
					if err != nil || svc == nil {
						return err
					}
					ws := moduleWindows(t, comm.Rank(), 80)
					for _, w := range ws {
						// A failed write is the module's to remember: the run
						// goes on to the collective Sync regardless.
						werr := svc.WriteAttribute("m/g0", w, "all", 0.5, 7)
						if werr != nil && sc.commits {
							return werr
						}
					}
					serr := svc.Sync()
					closeSvc() // repeats a sticky failure; Sync already reported it
					late := svc.WriteAttribute("m/g1", ws[0], "all", 1, 8)
					mu.Lock()
					syncErrs = append(syncErrs, serr)
					lateErrs = append(lateErrs, late)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", mod.name, err)
				}

				// Write after close: refused by every writer, nothing on disk.
				for _, err := range lateErrs {
					if err == nil {
						t.Errorf("%s: write after close accepted", mod.name)
					}
				}
				if names, _ := mem.List("m/g1"); len(names) != 0 {
					t.Errorf("%s: write after close left %v", mod.name, names)
				}

				_, loadErr := snapshot.Load(mem, "m/g0")
				if committed := loadErr == nil; committed != sc.commits {
					t.Fatalf("%s: generation committed = %v, want %v (%v)", mod.name, committed, sc.commits, loadErr)
				}
				if len(syncErrs) != writers {
					t.Fatalf("%s: %d writers reported, want %d", mod.name, len(syncErrs), writers)
				}
				if sc.commits {
					for _, err := range syncErrs {
						if err != nil {
							t.Fatalf("%s: Sync: %v", mod.name, err)
						}
					}
					digest := stateDigest(t, mem, "m/g0")
					if firstDigest == "" {
						firstDigest = digest
					} else if digest != firstDigest {
						t.Errorf("%s committed state %s, %s committed %s", mod.name, digest, modules[0].name, firstDigest)
					}
					if got := fileSHA(t, mem, mod.file); mod.golden != "" && got != mod.golden {
						t.Errorf("%s: %s has SHA-256 %s, the parent commit wrote %s", mod.name, mod.file, got, mod.golden)
					}
					continue
				}
				// Refused on every writer — its own failure, or a peer's —
				// and the writer that owns the failure names the file.
				file := mod.file
				if sc.names != "" {
					file = sc.names
				}
				named := 0
				for i, err := range syncErrs {
					switch {
					case err == nil:
						t.Errorf("%s: writer %d's Sync committed over the failure", mod.name, i)
					case strings.Contains(err.Error(), file):
						named++
					case !errors.Is(err, snapshot.ErrDrainFailed) && !errors.Is(err, snapshot.ErrCommitFailed):
						t.Errorf("%s: Sync = %v: neither names %s nor reports a peer's failure", mod.name, err, file)
					}
				}
				if named != 1 {
					t.Errorf("%s: %d Sync errors name %s, want 1: %v", mod.name, named, file, syncErrs)
				}
			}
		})
	}
	t.Run("restart-matrix", restartMatrix)
}

// dataReadFS counts the bytes read from snapshot data files (*.rhdf) beneath
// it — their directories and data; manifests and catalogs, which every
// restart loads whole, stay out.
type dataReadFS struct {
	rt.FS
	bytes *atomic.Int64
}

type dataReadFile struct {
	rt.File
	bytes *atomic.Int64
}

func (fs dataReadFS) Open(name string) (rt.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".rhdf") {
		return f, err
	}
	return dataReadFile{f, fs.bytes}, nil
}

func (f dataReadFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.bytes.Add(int64(n))
	return n, err
}

// dirBytes is the length of every directory of base's data files, end to
// end.
func dirBytes(t *testing.T, fs rt.FS, base string) (n int64) {
	t.Helper()
	names, err := fs.List(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".rhdf") {
			d, err := hdf.ReadRawDir(fs, name)
			if err != nil {
				t.Fatal(err)
			}
			n += int64(len(d.Bytes))
		}
	}
	return n
}

// restartMatrix restores every module's committed generation under every
// module, on another rank count (4 writers, 3 readers; the pane
// universe dealt by each reader's PanesForRestart): they are
// placements of one restart-read service, so any module restarts any
// module's snapshot, to the same state. Per cell it then re-reads one named
// attribute — which must cost a fraction of the data bytes — and, on a copy
// with one flipped bit, requires the loud agreed failure.
func restartMatrix(t *testing.T) {
	const writers, readers = 4, 3
	var firstDigest string
	var firstData [2]int64 // data bytes an "all" and a named-attribute restore read: .rhdf bytes less the writer's directories
	for _, wmod := range ioModules(nil) {
		var firstBytes [2]int64 // .rhdf bytes an "all" and a named-attribute restore of this writer's files read
		mem := rt.NewMemFS()
		err := mpi.NewChanWorld(mem, 1).Run(writers+wmod.servers, func(ctx mpi.Ctx) error {
			svc, comm, closeSvc, err := wmod.open(ctx)
			if err != nil || svc == nil {
				return err
			}
			for _, w := range moduleWindows(t, comm.Rank(), 80) {
				if err := svc.WriteAttribute("m/g0", w, "all", 0.5, 7); err != nil {
					return err
				}
			}
			if err := svc.Sync(); err != nil {
				return err
			}
			return closeSvc()
		})
		if err != nil {
			t.Fatalf("%s: write: %v", wmod.name, err)
		}
		want := stateDigest(t, mem, "m/g0")
		if firstDigest == "" {
			firstDigest = want
		}
		dirs := dirBytes(t, mem, "m/g0")

		// restore runs rmod's readers over fs. Each restores its deal of
		// both windows with "all", then zeroes and re-reads the pressure
		// alone. It returns every reader's first error, the digest lines of
		// the readers that had none, and the data bytes each pass read.
		restore := func(rmod ioModule, fs rt.FS) (errs []error, lines []string, allBytes, attrBytes int64) {
			var mu sync.Mutex
			var bytes atomic.Int64
			err := mpi.NewChanWorld(dataReadFS{fs, &bytes}, 1).Run(readers+rmod.servers, func(ctx mpi.Ctx) error {
				svc, comm, closeSvc, err := rmod.open(ctx)
				if err != nil || svc == nil {
					return err
				}
				var ws []*roccom.Window
				deal := make(map[string][]int)
				for _, name := range moduleWindowNames {
					ids, err := svc.PanesForRestart("m/g0", name)
					if err != nil {
						return err
					}
					ws = append(ws, emptyModuleWindow(t, name))
					deal[name] = ids
				}
				pass := func(attr string) (err error) {
					for _, w := range ws {
						// Reads are collective: every reader makes every call.
						if rerr := svc.ReadPanes("m/g0", w, attr, deal[w.Name]); rerr != nil && err == nil {
							err = rerr
						}
					}
					// Agreed: no reader goes on alone after a peer's failure.
					if bad := comm.AllreduceMax(map[bool]float64{true: 1}[err != nil]); bad > 0 && err == nil {
						err = fmt.Errorf("a peer's restart failed: %w", snapshot.ErrIncompleteRestart)
					}
					return err
				}
				readErr := pass("all")
				all := bytes.Load()
				if readErr == nil {
					for _, w := range ws {
						w.EachPane(func(p *roccom.Pane) {
							a, _ := p.Array("pressure")
							clear(a.F64)
						})
					}
					comm.Barrier() // all was sampled on every reader
					readErr = pass("pressure")
				}
				mu.Lock()
				errs = append(errs, readErr)
				if readErr == nil {
					for _, w := range ws {
						lines = append(lines, windowLines(t, w)...)
					}
				}
				allBytes, attrBytes = all, bytes.Load()-all
				mu.Unlock()
				return closeSvc()
			})
			if err != nil {
				t.Fatalf("%s restoring %s's snapshot: %v", rmod.name, wmod.name, err)
			}
			return errs, lines, allBytes, attrBytes
		}

		reg := metrics.New()
		for _, rmod := range ioModules(reg) {
			cell := wmod.name + " -> " + rmod.name
			before := reg.Snapshot().Counters["iosched.read.tasks"]
			errs, lines, allBytes, attrBytes := restore(rmod, mem)
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
			}
			if got := digestOf(lines); got != want || got != firstDigest {
				t.Errorf("%s restored %s; the files hold %s and the first writer committed %s", cell, got, want, firstDigest)
			}
			if allBytes == 0 || attrBytes == 0 || attrBytes*3 > allBytes {
				t.Errorf("%s: a named attribute read %d data bytes, \"all\" %d: want a fraction", cell, attrBytes, allBytes)
			}
			// One plan: the same extents, whoever reads them from whose files,
			// and each file's directory read once among the readers — so the
			// same .rhdf bytes under every module, and beyond the writer's
			// directories the same data bytes, whichever module wrote them.
			if firstBytes == [2]int64{} {
				firstBytes = [2]int64{allBytes, attrBytes}
			} else if firstBytes != [2]int64{allBytes, attrBytes} {
				t.Errorf("%s read %d and %d .rhdf bytes, the first cell %v", cell, allBytes, attrBytes, firstBytes)
			}
			if data := [2]int64{allBytes - dirs, attrBytes}; firstData == [2]int64{} {
				firstData = data
			} else if data != firstData {
				t.Errorf("%s read %d and %d data bytes beyond the writer's %d directory bytes, the first cell %v", cell, data[0], data[1], dirs, firstData)
			}
			// Only Rocpanda's ParallelRead builds a read pool.
			if pooled := reg.Snapshot().Counters["iosched.read.tasks"] > before; pooled != (rmod.name == "rocpanda-pool") {
				t.Errorf("%s: read ran scheduler tasks = %v", cell, pooled)
			}
		}

		// One flipped bit in writer 1's file, past the header and inside the
		// first dataset's payload: every module fails the generation, on
		// every reader, and says why.
		if err := faults.FlipBit(mem, wmod.file, 8*200+3); err != nil {
			t.Fatal(err)
		}
		for _, rmod := range ioModules(nil) {
			errs, _, _, _ := restore(rmod, mem)
			if len(errs) != readers {
				t.Fatalf("%s -> %s, bit flipped: %d readers reported, want %d", wmod.name, rmod.name, len(errs), readers)
			}
			for i, err := range errs {
				if !errors.Is(err, snapshot.ErrIncompleteRestart) {
					t.Errorf("%s -> %s, bit flipped: reader %d: %v, want ErrIncompleteRestart", wmod.name, rmod.name, i, err)
				}
			}
		}
	}
}

// goldenRochdfFile is the SHA-256 of writer 1's m/g0_p00001.rhdf in the
// clean scenario, recorded from the commit before Rochdf and T-Rochdf moved
// onto the shared write service (both variants write the same bytes).
const goldenRochdfFile = "8bb266effd877eb7d587dab30d23b8f9d11a4a49b89eba3a096eb1d05d3f4c8f"
