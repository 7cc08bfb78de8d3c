package rocman

import (
	"slices"
	"sync"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// catalogReads is an rt.FS that records, per open of the file name, the
// byte ranges read through that handle. A handle is one process's: no
// process hands its open files to another.
type catalogReads struct {
	rt.FS
	name string

	mu    sync.Mutex
	opens [][][2]int64 // per open, each read's offset and length
}

func (fs *catalogReads) Open(name string) (rt.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || name != fs.name {
		return f, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.opens = append(fs.opens, nil)
	return &rangeFile{File: f, fs: fs, i: len(fs.opens) - 1}, nil
}

// rangeFile records the ranges read through it on its catalogReads.
type rangeFile struct {
	rt.File
	fs *catalogReads
	i  int
}

func (f *rangeFile) ReadAt(b []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(b, off)
	f.fs.mu.Lock()
	f.fs.opens[f.i] = append(f.fs.opens[f.i], [2]int64{off, int64(n)})
	f.fs.mu.Unlock()
	return n, err
}

// catalogUse is what one open read of a catalog: the header and the file
// table and pane index (each a count of reads), and each entry run's file.
type catalogUse struct {
	header, index int
	runs          []string
}

// classify names each range an open read: the header, the file table and
// pane index, or whole adjacent entry runs — any other range fails t.
func classify(t *testing.T, blob []byte, ranges [][2]int64) catalogUse {
	t.Helper()
	h, err := catalog.ReadHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	var use catalogUse
	indexOff, indexLen := h.IndexExtent()
	for _, r := range ranges {
		switch {
		case r == [2]int64{0, int64(h.Len())}:
			use.header++
		case r == [2]int64{indexOff, indexLen}:
			use.index++
		default:
			off, end := r[0], r[0]+r[1]
			for f := range cat.Files {
				if runOff, n := cat.RunExtent(f); runOff == off && off+n <= end && (n > 0 || off < end) {
					use.runs, off = append(use.runs, cat.Files[f]), off+n
				}
			}
			if off != end {
				t.Fatalf("read [%d,+%d) of the catalog is no header, index or whole runs", r[0], r[1])
			}
		}
	}
	return use
}

// TestRestartReadsOnlyPlannedCatalogBytes: a restart reads of a
// generation's catalog, per process, the header and the file table and pane
// index once each, and only the entry runs of the files that process plans
// from, each once. The judging rank of a Rocpanda restore walk (client 0)
// reads no entry run; each Rocpanda server reads only the runs of the files
// dealt to it; a Rochdf or T-Rochdf rank restarting its own panes reads its
// own file's run alone. Every window's round after a process's first is
// served from its held chain and reads no catalog byte again, and no
// process opens the catalog a second time to read a run. What the wrapping
// filesystem saw is what the module's catalog_bytes_read counted.
func TestRestartReadsOnlyPlannedCatalogBytes(t *testing.T) {
	for _, tc := range []struct {
		io      IOKind
		n       int
		servers int
		latest  bool
	}{
		{IORochdf, 3, 0, false},
		{IORochdf, 3, 0, true},
		{IOTRochdf, 3, 0, false},
		{IOTRochdf, 3, 0, true},
		{IORocpanda, 5, 2, false},
		{IORocpanda, 5, 2, true},
	} {
		name := string(tc.io)
		if tc.latest {
			name += "-latest"
		}
		t.Run(name, func(t *testing.T) {
			const blobName = "out/snap000004" + catalog.Suffix
			fs := rt.NewMemFS()
			cfg := baseCfg(tc.io)
			cfg.Workload.Steps = 4
			if tc.servers > 0 {
				cfg.Rocpanda.NumServers = tc.servers
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
			reg := metrics.New()
			cfg.OutputDir, cfg.RestartFrom, cfg.Metrics = "again", "out/snap000004", reg
			if tc.latest {
				cfg.OutputDir, cfg.RestartFrom, cfg.RestartFromLatest = "out", "", true
			}
			counted := &catalogReads{FS: fs, name: blobName}
			if err := mpi.NewChanWorld(counted, 1).Run(tc.n, func(ctx mpi.Ctx) error {
				_, err := Run(ctx, cfg)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			var total int64
			var withRuns [][]string
			judges := 0
			for i, ranges := range counted.opens {
				for _, r := range ranges {
					total += r[1]
				}
				use := classify(t, blob, ranges)
				if use.header != 1 || use.index != 1 {
					t.Fatalf("open %d read the header %d times and the index %d times, want once each (ranges %v)", i, use.header, use.index, ranges)
				}
				if sorted := slices.Sorted(slices.Values(use.runs)); len(slices.Compact(sorted)) != len(use.runs) {
					t.Fatalf("open %d read a run twice: %v", i, use.runs)
				}
				if len(use.runs) == 0 {
					judges++
				} else {
					withRuns = append(withRuns, use.runs)
				}
			}
			if total >= int64(len(blob))*int64(len(counted.opens)) {
				t.Errorf("%d opens read %d catalog bytes, no fewer than %d whole blobs of %d", len(counted.opens), total, len(counted.opens), len(blob))
			}
			if got := reg.Snapshot().Counters[string(tc.io)+".restart.catalog_bytes_read"]; got != total {
				t.Errorf("%s.restart.catalog_bytes_read = %d, the filesystem saw %d", tc.io, got, total)
			}

			switch {
			case tc.io == IORocpanda:
				// Client 0's judgment, then one open per server, each reading
				// the runs of its own files only.
				want := 0
				if tc.latest {
					want = 1
				}
				if judges != want || len(withRuns) != tc.servers {
					t.Fatalf("%d opens read no run and %d read runs %v; want %d judgment(s) and %d servers", judges, len(withRuns), withRuns, want, tc.servers)
				}
				homes := map[int]bool{}
				for _, runs := range withRuns {
					_, home, _, _ := catalog.ParseServerFile(runs[0])
					for _, f := range runs {
						if _, h, _, _ := catalog.ParseServerFile(f); h != home {
							t.Fatalf("one server read the runs of %v, files of two servers", runs)
						}
					}
					if homes[home] {
						t.Fatalf("two servers read the runs of server %d's files", home)
					}
					homes[home] = true
				}
			case !tc.latest:
				// Each rank restarts the panes it wrote: its own file's run.
				seen := map[string]bool{}
				for _, runs := range withRuns {
					if len(runs) != 1 || seen[runs[0]] {
						t.Fatalf("the ranks read runs %v; want one file each, each its own", withRuns)
					}
					seen[runs[0]] = true
				}
				if judges != 0 || len(withRuns) != tc.n {
					t.Fatalf("%d opens read no run and %d read runs; want %d ranks reading one each", judges, len(withRuns), tc.n)
				}
			default:
				// Rank 0 judges and restores on one Reader: one open each.
				if judges != 0 || len(withRuns) != tc.n {
					t.Fatalf("%d opens read no run and %d read runs %v; want one open per rank", judges, len(withRuns), withRuns)
				}
			}
			t.Logf("%d opens read %d bytes of a %d-byte catalog", len(counted.opens), total, len(blob))
		})
	}
}
