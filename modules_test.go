package genxio_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
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
// the other — with data that depends only on i.
func moduleWindows(t testing.TB, i int) []*roccom.Window {
	var ws []*roccom.Window
	for wi, name := range []string{"fluid", "solid"} {
		w, err := roccom.New().NewWindow(name)
		if err != nil {
			t.Fatal(err)
		}
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		w.NewAttribute(roccom.AttrSpec{Name: "velocity", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 3})
		rng := stats.NewRNG(uint64(10*i + wi + 1))
		blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
			RInner: 0.1, ROuter: 0.4, Length: 1, BR: 1, BT: 3, BZ: 1, NodesPerBlock: 80, Spread: 0.2,
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

// stateDigest is the layout-independent digest of a committed generation:
// every (window, pane, attr, bytes) read back from the manifest's files,
// whichever file a pane went through and in whatever order.
func stateDigest(t *testing.T, fs rt.FS, base string) string {
	t.Helper()
	m, err := snapshot.Load(fs, base)
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	if err := m.Verify(fs); err != nil {
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
			lines = append(lines, fmt.Sprintf("%s/%d/%s %x", win, pane, attr, sha256.Sum256(data)))
		}
		r.Close()
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%d datasets %s", len(lines), hex.EncodeToString(sum[:]))
}

func fileSHA(t *testing.T, fs rt.FS, name string) string {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestModulesAreOneService runs the same two writers through all three I/O
// modules — Rochdf, T-Rochdf, and Rocpanda under both drivers — and requires
// the same outcome from each, clean or faulted: they are placements of one
// write service and one commit protocol (internal/snapshot), not three
// implementations. The golden digests pin the individual-I/O files to the
// bytes the modules wrote before they shared it.
func TestModulesAreOneService(t *testing.T) {
	const writers = 2
	panda := func(tune func(*rocpanda.Config)) func(mpi.Ctx) (roccom.IOService, int, func() error, error) {
		return func(ctx mpi.Ctx) (roccom.IOService, int, func() error, error) {
			cfg := rocpanda.Config{NumServers: writers, Profile: hdf.NullProfile(), ActiveBuffering: true}
			tune(&cfg)
			cl, err := rocpanda.Init(ctx, cfg)
			if err != nil || cl == nil {
				return nil, 0, nil, err
			}
			return cl, cl.Comm().Rank(), cl.Shutdown, nil
		}
	}
	hdfModule := func(threaded bool) func(mpi.Ctx) (roccom.IOService, int, func() error, error) {
		return func(ctx mpi.Ctx) (roccom.IOService, int, func() error, error) {
			h := rochdf.New(ctx, rochdf.Config{Profile: hdf.NullProfile(), Threaded: threaded})
			return h, ctx.Comm().Rank(), h.Close, nil
		}
	}
	modules := []struct {
		name   string
		ranks  int
		file   string // where writer 1's blocks of m/g0 land
		golden string // SHA-256 of that file as the parent commit wrote it
		open   func(mpi.Ctx) (svc roccom.IOService, writer int, close func() error, err error)
	}{
		{"rochdf", writers, "m/g0_p00001.rhdf", goldenRochdfFile, hdfModule(false)},
		{"trochdf", writers, "m/g0_p00001.rhdf", goldenRochdfFile, hdfModule(true)},
		{"rocpanda-inline", 2 * writers, "m/g0_s001.rhdf", "", panda(func(*rocpanda.Config) {})},
		{"rocpanda-pool", 2 * writers, "m/g0_s001.rhdf", "",
			panda(func(cfg *rocpanda.Config) { cfg.AsyncDrain, cfg.DrainWriters = true, 2 })},
	}
	scenarios := []struct {
		name    string
		rule    func(file string) *faults.FSRule
		commits bool
	}{
		{"clean", nil, true},
		{"disk-full", func(file string) *faults.FSRule {
			return &faults.FSRule{Op: faults.OpWrite, PathPrefix: file, Nth: 3, Msg: "no space left on device"}
		}, false},
		// A snapshot file is renamed into place as its writer closes.
		{"failed-close", func(file string) *faults.FSRule {
			return &faults.FSRule{Op: faults.OpRename, PathPrefix: file}
		}, false},
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
				err := mpi.NewChanWorld(fs, 1).Run(mod.ranks, func(ctx mpi.Ctx) error {
					svc, writer, closeSvc, err := mod.open(ctx)
					if err != nil || svc == nil {
						return err
					}
					ws := moduleWindows(t, writer)
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
				named := 0
				for i, err := range syncErrs {
					switch {
					case err == nil:
						t.Errorf("%s: writer %d's Sync committed over the failure", mod.name, i)
					case strings.Contains(err.Error(), mod.file):
						named++
					case !errors.Is(err, snapshot.ErrDrainFailed):
						t.Errorf("%s: Sync = %v: neither names %s nor reports a peer's failure", mod.name, err, mod.file)
					}
				}
				if named != 1 {
					t.Errorf("%s: %d Sync errors name %s, want 1: %v", mod.name, named, mod.file, syncErrs)
				}
			}
		})
	}
}

// goldenRochdfFile is the SHA-256 of writer 1's m/g0_p00001.rhdf in the
// clean scenario, recorded from the commit before Rochdf and T-Rochdf moved
// onto the shared write service (both variants write the same bytes).
const goldenRochdfFile = "8bb266effd877eb7d587dab30d23b8f9d11a4a49b89eba3a096eb1d05d3f4c8f"
