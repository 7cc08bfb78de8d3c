package rocman

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// restartReads is an rt.FS that records, per open of a data file or catalog
// under prefix, the file's name and the byte ranges read through that
// handle, until the first file is created: a run restarts before it writes.
// A handle is one process's: no process hands its open files to another.
type restartReads struct {
	rt.FS
	prefix string

	mu      sync.Mutex
	opens   []fileOpen
	writing bool
}

func (fs *restartReads) Create(name string) (rt.File, error) {
	fs.mu.Lock()
	fs.writing = true
	fs.mu.Unlock()
	return fs.FS.Create(name)
}

// fileOpen is one open's name and, per read, its offset and length.
type fileOpen struct {
	name   string
	ranges [][2]int64
}

func (fs *restartReads) Open(name string) (rt.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !strings.HasPrefix(name, fs.prefix) || !strings.HasSuffix(name, ".rhdf") && !strings.HasSuffix(name, catalog.Suffix) {
		return f, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.writing {
		return f, nil
	}
	fs.opens = append(fs.opens, fileOpen{name: name})
	return &rangeFile{File: f, fs: fs, i: len(fs.opens) - 1}, nil
}

// rangeFile records the ranges read through it on its restartReads.
type rangeFile struct {
	rt.File
	fs *restartReads
	i  int
}

func (f *rangeFile) ReadAt(b []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(b, off)
	f.fs.mu.Lock()
	f.fs.opens[f.i].ranges = append(f.fs.opens[f.i].ranges, [2]int64{off, int64(n)})
	f.fs.mu.Unlock()
	return n, err
}

// fileUse is what one open of a data file read: the header (a file
// check's), the directory — the extent its catalog places it at — and how
// many data ranges.
type fileUse struct {
	header, dir, data int
}

// TestRestartReadsOnlyPlannedCatalogBytes: a restart reads of a
// generation's catalog, per process, the header and the pane index once
// each — one read of the whole blob, which holds no entry — and each file
// it plans from supplies its own entries: the file's directory, read once
// per process from the extent the catalog places it at, on the handle the
// file's data reads of that round then use, so no round opens a data file
// twice: on the owner, and on a read pool, whose workers keep their
// handles from the round's directory batch to its data batch (with one
// worker, every open of the round is that worker's). The judging rank of a restore walk reads each checked file's
// header and directory and no data; each file's data is read by one
// process, on one open per window's round; and rank 0 of a Rochdf or
// T-Rochdf restore walk, which judges and restores on one Reader, plans its
// own file from the directory its check read. Every window's round after a
// process's first is served from its held chain and reads no catalog or
// directory byte again. What
// the wrapping filesystem saw is what the module's catalog_bytes_read and
// dir_bytes_read counted.
func TestRestartReadsOnlyPlannedCatalogBytes(t *testing.T) {
	for _, tc := range []struct {
		io      IOKind
		n       int
		servers int
		latest  bool
		pool    bool // servers read on a pool of one worker
	}{
		{IORochdf, 3, 0, false, false},
		{IORochdf, 3, 0, true, false},
		{IOTRochdf, 3, 0, false, false},
		{IOTRochdf, 3, 0, true, false},
		{IORocpanda, 5, 2, false, false},
		{IORocpanda, 5, 2, true, false},
		{IORocpanda, 5, 2, false, true},
		{IORocpanda, 5, 2, true, true},
	} {
		name := string(tc.io)
		if tc.pool {
			name += "-pool"
		}
		if tc.latest {
			name += "-latest"
		}
		t.Run(name, func(t *testing.T) {
			const base = "out/snap000004"
			const blobName = base + catalog.Suffix
			fs := rt.NewMemFS()
			cfg := baseCfg(tc.io)
			cfg.Workload.Steps = 4
			if tc.servers > 0 {
				cfg.Rocpanda.NumServers = tc.servers
			}
			if tc.pool {
				cfg.Rocpanda.ParallelRead, cfg.Rocpanda.ReadWorkers = true, 1
			}
			if err := mpi.NewChanWorld(fs, 1).Run(tc.n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfg)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			blob, err := hdf.ReadFile(fs, blobName)
			if err != nil {
				t.Fatal(err)
			}
			cat, err := catalog.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			// Where each file's directory lies, and how many windows (one
			// round each) it holds panes of.
			dirAt, windows := map[string][2]int64{}, map[string]int{}
			for f, file := range cat.Files {
				img, err := hdf.ReadFile(fs, file)
				if err != nil {
					t.Fatal(err)
				}
				size := int64(len(img))
				dirAt[file] = [2]int64{size - cat.DirLen(f), cat.DirLen(f)}
				for _, w := range cat.Windows() {
					if slices.ContainsFunc(cat.Panes(w), func(p int) bool { return slices.Contains(cat.PaneFiles(w, p), f) }) {
						windows[file]++
					}
				}
			}

			reg := metrics.New()
			cfg.OutputDir, cfg.RestartFrom, cfg.Metrics = "again", base, reg
			if tc.latest {
				cfg.OutputDir, cfg.RestartFrom, cfg.RestartFromLatest = "out", "", true
			}
			counted := &restartReads{FS: fs, prefix: base}
			if err := mpi.NewChanWorld(counted, 1).Run(tc.n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfg)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			var catBytes, dirBytes int64
			catOpens := 0
			checks, rounds, dirReads := map[string]int{}, map[string]int{}, map[string]int{}
			for i, o := range counted.opens {
				if o.name == blobName {
					catOpens++
					if len(o.ranges) != 1 || o.ranges[0] != [2]int64{0, int64(len(blob))} {
						t.Fatalf("open %d of the catalog read %v; want the %d-byte blob in one read", i, o.ranges, len(blob))
					}
					catBytes += o.ranges[0][1]
					continue
				}
				at, ok := dirAt[o.name]
				if !ok {
					t.Fatalf("open %d of %s, a file the catalog does not list", i, o.name)
				}
				var use fileUse
				for _, r := range o.ranges {
					switch {
					case r == [2]int64{0, hdf.HeaderSize()}:
						use.header++
					case r == at:
						use.dir++
						dirBytes += r[1]
					case r[0] >= hdf.HeaderSize() && r[0]+r[1] <= at[0]:
						use.data++
					default:
						t.Fatalf("open %d of %s read [%d,+%d): no header, directory or data range", i, o.name, r[0], r[1])
					}
				}
				switch {
				case use.dir > 1:
					t.Fatalf("open %d of %s read its directory %d times", i, o.name, use.dir)
				case use.header > 0 && (use.header != 1 || use.dir != 1 || use.data != 0):
					t.Fatalf("a file check of %s read %+v (%v, directory at %v); want the header and the directory", o.name, use, o.ranges, at)
				case use.header > 0:
					checks[o.name]++
				case use.data == 0:
					t.Fatalf("open %d of %s read %+v: a directory without the data it plans", i, o.name, use)
				default:
					rounds[o.name]++
				}
				dirReads[o.name] += use.dir
			}
			if got := reg.Snapshot().Counters[string(tc.io)+".restart.catalog_bytes_read"]; got != catBytes {
				t.Errorf("%s.restart.catalog_bytes_read = %d, the filesystem saw %d", tc.io, got, catBytes)
			}
			if pooled := reg.Snapshot().Counters["iosched.read.tasks"] > 0; pooled != tc.pool {
				t.Errorf("read ran scheduler tasks = %v, want %v", pooled, tc.pool)
			}
			if got := reg.Snapshot().Counters[string(tc.io)+".restart.dir_bytes_read"]; got != dirBytes {
				t.Errorf("%s.restart.dir_bytes_read = %d, the filesystem saw %d", tc.io, got, dirBytes)
			}

			// Who loads the chain: every Rochdf or T-Rochdf rank (rank 0's
			// walk and round share a Reader); Client 0's judgment, then
			// every server.
			wantCat := tc.n
			if tc.io == IORocpanda {
				wantCat = tc.servers
				if tc.latest {
					wantCat++
				}
			}
			if catOpens != wantCat {
				t.Errorf("%d opens of the catalog, want %d", catOpens, wantCat)
			}
			for _, file := range cat.Files {
				// One process reads each file's data, one round per window,
				// each on one open; a restore walk checks every file once.
				wantChecks, wantDirs := 0, 1
				if tc.latest {
					wantChecks, wantDirs = 1, 2
					if _, rank, ok := catalog.ParseRankFile(file); ok && rank == 0 {
						wantDirs = 1 // rank 0 plans its own file from its check's read
					}
				}
				if rounds[file] != windows[file] || checks[file] != wantChecks || dirReads[file] != wantDirs {
					t.Errorf("%s: %d round opens, %d checks, %d directory reads; want %d (one per window), %d and %d",
						file, rounds[file], checks[file], dirReads[file], windows[file], wantChecks, wantDirs)
				}
			}
			t.Logf("%d opens: %d catalog bytes, %d directory bytes of a %d-byte catalog", len(counted.opens), catBytes, dirBytes, len(blob))
		})
	}
}
