package genxio_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// rhdfOpenFS counts the snapshot data files (*.rhdf) opened beneath it.
type rhdfOpenFS struct {
	rt.FS
	opens *atomic.Int64
}

func (fs rhdfOpenFS) Open(name string) (rt.File, error) {
	if strings.HasSuffix(name, ".rhdf") {
		fs.opens.Add(1)
	}
	return fs.FS.Open(name)
}

// TestCommitFromReports pins the commit's reading of what the writers
// reported publishing, under every module. Two generations are written and
// committed by one Sync. Clean, the commit indexes every file from its
// writer's report: no .rhdf is opened all run long and
// snapshot.commit.dirs_read stays 0. A listed file no writer reported — here
// one placed beside the generation, as a dead server's renamed file would be
// — is still indexed, read from disk. Either way the committed manifest and
// catalog are byte-identical to what a commit of the same files with no
// reports (the disk path) writes.
func TestCommitFromReports(t *testing.T) {
	const writers = 2
	for i, mod := range ioModules(nil) {
		for _, unreported := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/unreported-%v", mod.name, unreported), func(t *testing.T) {
				mem := rt.NewMemFS()
				extra := catalog.ServerFile("m/g0", 9, 0)
				if unreported {
					w, err := hdf.Create(mem, extra, rt.NewWallClock(), hdf.NullProfile())
					if err != nil {
						t.Fatal(err)
					}
					if err := w.CreateDataset("_meta", hdf.U8, []int64{0}, nil, nil); err != nil {
						t.Fatal(err)
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
				}
				reg := metrics.New()
				mod := ioModules(reg)[i]
				var opens atomic.Int64
				err := mpi.NewChanWorld(rhdfOpenFS{mem, &opens}, 1).Run(writers+mod.servers, func(ctx mpi.Ctx) error {
					svc, comm, closeSvc, err := mod.open(ctx)
					if err != nil || svc == nil {
						return err
					}
					// One window a generation: no module reopens a file.
					w := moduleWindows(t, comm.Rank(), 80)[0]
					for g := 0; g < 2; g++ {
						if err := svc.WriteAttribute(fmt.Sprintf("m/g%d", g), w, "all", float64(g), 7+g); err != nil {
							return err
						}
					}
					if err := svc.Sync(); err != nil {
						return err
					}
					return closeSvc()
				})
				if err != nil {
					t.Fatal(err)
				}

				wantReads := int64(0)
				if unreported {
					wantReads = 1
				}
				if got := reg.Snapshot().Counters["snapshot.commit.dirs_read"]; got != wantReads {
					t.Errorf("snapshot.commit.dirs_read = %d, want %d", got, wantReads)
				}
				if got := opens.Load(); got != wantReads {
					t.Errorf("the run opened %d .rhdf files, want %d", got, wantReads)
				}
				for g := 0; g < 2; g++ {
					base := fmt.Sprintf("m/g%d", g)
					fromReports := commitBytes(t, mem, base)
					m, err := snapshot.Load(mem, base)
					if err != nil {
						t.Fatal(err)
					}
					if listed := strings.Contains(string(fromReports[0]), extra); listed != (unreported && g == 0) {
						t.Errorf("%s: manifest lists %s = %v", base, extra, listed)
					}
					if _, err := snapshot.CommitChained(mem, base, m.Epoch, m.Time, nil); err != nil {
						t.Fatal(err)
					}
					fromDisk := commitBytes(t, mem, base)
					for k, what := range []string{snapshot.Suffix, catalog.Suffix} {
						if !bytes.Equal(fromReports[k], fromDisk[k]) {
							t.Errorf("%s%s committed from the reports differs from the disk path's:\n%s\n%s",
								base, what, fromReports[k], fromDisk[k])
						}
					}
				}
			})
		}
	}
}

// commitBytes returns a generation's committed manifest and catalog blob.
func commitBytes(t *testing.T, fs rt.FS, base string) [2][]byte {
	t.Helper()
	var out [2][]byte
	for k, suffix := range []string{snapshot.Suffix, catalog.Suffix} {
		b, err := hdf.ReadFile(fs, base+suffix)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = b
	}
	return out
}

// metaFS counts, beneath it, the metadata traffic of a commit round: List
// calls, manifests opened, and Removes — of names that exist or not.
type metaFS struct {
	rt.FS
	c *metaCounts
}

type metaCounts struct{ lists, manifestOpens, removes, blindRemoves atomic.Int64 }

func (fs metaFS) List(prefix string) ([]string, error) {
	fs.c.lists.Add(1)
	return fs.FS.List(prefix)
}

func (fs metaFS) Open(name string) (rt.File, error) {
	if strings.HasSuffix(name, snapshot.Suffix) {
		fs.c.manifestOpens.Add(1)
	}
	return fs.FS.Open(name)
}

func (fs metaFS) Remove(name string) error {
	err := fs.FS.Remove(name)
	if errors.Is(err, rt.ErrNotExist) {
		fs.c.blindRemoves.Add(1)
	}
	fs.c.removes.Add(1)
	return err
}

// TestSyncPrunesFromOneListing pins the commit round's metadata traffic
// under every module: one Sync commits four generations and prunes all but
// the newest two. Rank 0 lists once, opens no manifest — the prune knows
// every chain link it needs from the commits — and removes only names that
// exist.
func TestSyncPrunesFromOneListing(t *testing.T) {
	const writers, gens, retain = 2, 4, 2
	for i, mod := range ioModules(nil) {
		t.Run(mod.name, func(t *testing.T) {
			mem := rt.NewMemFS()
			var c metaCounts
			reg := metrics.New()
			mod := retainingModules(reg, retain)[i]
			err := mpi.NewChanWorld(metaFS{mem, &c}, 1).Run(writers+mod.servers, func(ctx mpi.Ctx) error {
				svc, comm, closeSvc, err := mod.open(ctx)
				if err != nil || svc == nil {
					return err
				}
				w := moduleWindows(t, comm.Rank(), 80)[0]
				for g := 0; g < gens; g++ {
					if err := svc.WriteAttribute(fmt.Sprintf("m/g%d", g), w, "all", float64(g), 7+g); err != nil {
						return err
					}
				}
				if err := svc.Sync(); err != nil {
					return err
				}
				return closeSvc()
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := c.lists.Load(); n != 1 {
				t.Errorf("the run listed %d times, want 1", n)
			}
			if n := c.manifestOpens.Load(); n != 0 {
				t.Errorf("the run opened %d manifests, want 0", n)
			}
			if n := reg.Snapshot().Counters["snapshot.prune.manifests_read"]; n != 0 {
				t.Errorf("snapshot.prune.manifests_read = %d, want 0", n)
			}
			if n := c.blindRemoves.Load(); n != 0 || c.removes.Load() == 0 {
				t.Errorf("%d of %d removes named files that did not exist, want 0 of some", n, c.removes.Load())
			}
			survivors, err := snapshot.Generations(mem, "m/")
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(survivors); got != "[{m/g3 true} {m/g2 true}]" {
				t.Errorf("survivors %s, want the newest two, committed", got)
			}
		})
	}
}
