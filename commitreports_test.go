package genxio_test

import (
	"bytes"
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
