package snapshot

import (
	"errors"
	"strings"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// writeGen writes one committed-looking generation (nfiles rank files under
// base, rank p's holding pane p+1) and returns the file names. Commit is the
// caller's choice.
func writeGen(t *testing.T, fsys rt.FS, base string, nfiles int, val float64) []string {
	t.Helper()
	clock := rt.NewWallClock()
	var names []string
	for p := 0; p < nfiles; p++ {
		name := base + "_p0000" + string(rune('0'+p)) + ".rhdf"
		w, err := hdf.Create(fsys, name, clock, hdf.NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset(roccom.PanePrefix("fluid", p+1)+"p", hdf.F64, []int64{3}, nil,
			hdf.F64Bytes([]float64{val, val + 1, val + 2})); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

func TestCommitLoadVerifyRoundTrip(t *testing.T) {
	fsys := rt.NewMemFS()
	files := writeGen(t, fsys, "out/snap000010", 2, 1)
	m, err := Commit(fsys, "out/snap000010", 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != len(files) {
		t.Fatalf("manifest lists %d files, want %d", len(m.Files), len(files))
	}
	got, err := Load(fsys, "out/snap000010")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 10 || got.Time != 0.5 || got.Base != "out/snap000010" {
		t.Fatalf("manifest %+v", got)
	}
	// The walk's file check passes the committed files and fails a
	// truncated one.
	accept := func(string) error { return nil }
	if base, err := restoreOn(t, fsys, "out/", accept, nil); err != nil || base != got.Base {
		t.Fatalf("walk over the committed generation: %q, %v", base, err)
	}
	// Damage one file's length: the check must fail.
	if err := faults.TruncateTail(fsys, files[1], 4); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreOn(t, fsys, "out/", accept, nil); err == nil {
		t.Fatal("the walk accepted a truncated file")
	}
}

func TestCommitRequiresFiles(t *testing.T) {
	fsys := rt.NewMemFS()
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err == nil {
		t.Fatal("committed an empty generation")
	}
	// Staged residue alone is not a generation either.
	f, _ := fsys.Create("out/snap000000_p00000.rhdf" + hdf.TmpSuffix)
	f.Close()
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err == nil {
		t.Fatal("committed a generation of staged temporaries")
	}
}

func TestGenerationsDiscovery(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", 1, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fsys, "out/snap000050", 1, 1)
	if _, err := Commit(fsys, "out/snap000050", 50, 1); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fsys, "out/snap000100", 1, 2) // crashed before commit
	// Noise that must not become generations.
	for _, n := range []string{"out/notes.txt", "out/bench.json"} {
		f, _ := fsys.Create(n)
		f.Close()
	}
	gens, err := Generations(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	want := []Generation{
		{Base: "out/snap000100", Committed: false},
		{Base: "out/snap000050", Committed: true},
		{Base: "out/snap000000", Committed: true},
	}
	if len(gens) != len(want) {
		t.Fatalf("generations %+v", gens)
	}
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("generation %d = %+v, want %+v", i, gens[i], want[i])
		}
	}
}

// TestDecodeStepEmptyMessage: a damaged broadcast ends the walk with an
// error instead of indexing into nothing.
func TestDecodeStepEmptyMessage(t *testing.T) {
	if st := decodeStep(nil); !st.end || st.err == nil {
		t.Fatalf("decodeStep(nil) = %+v, want an end-with-error step", st)
	}
	for _, st := range []step{{base: "out/g"}, {err: errors.New("skip")}, {end: true}, {end: true, err: errors.New("list")}} {
		got := decodeStep(st.encode())
		if got.base != st.base || got.end != st.end || (got.err == nil) != (st.err == nil) {
			t.Fatalf("decodeStep(encode(%+v)) = %+v", st, got)
		}
	}
}

func TestBaseOf(t *testing.T) {
	cases := map[string]string{
		"out/snap000010.manifest":        "out/snap000010",
		"out/snap000010.manifest.tmp":    "out/snap000010",
		"out/snap000010_s003.rhdf":       "out/snap000010",
		"out/snap000010_p00002.rhdf":     "out/snap000010",
		"out/snap000010_p00002.rhdf.tmp": "out/snap000010",
		"out/notes.txt":                  "",
		"out/bench.json":                 "",
		"out/snap000010_x1.rhdf":         "",
		"out/snap000010_p12a.rhdf":       "",
		"plain.rhdf":                     "",
	}
	for in, want := range cases {
		if got := baseOf(in); got != want {
			t.Fatalf("baseOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// tryRead restores by reading every manifested file's datasets — the shape
// the I/O services' ReadAttribute takes.
func tryRead(fsys rt.FS) func(base string) error {
	return func(base string) error {
		m, err := Load(fsys, base)
		if err != nil {
			return err
		}
		for _, e := range m.Files {
			r, err := hdf.Open(fsys, e.Name, rt.NewWallClock(), hdf.NullProfile())
			if err != nil {
				return err
			}
			for _, d := range r.Datasets() {
				if _, err := r.ReadData(d); err != nil {
					r.Close()
					return err
				}
			}
			r.Close()
		}
		return nil
	}
}

// onFresh runs f on a fresh Reader in a one-rank channel world over fsys,
// its counters landing in reg (nil: none) under a Rocpanda client's restart
// names, which the walk's tests assert on.
func onFresh(t *testing.T, fsys rt.FS, reg *metrics.Registry, f func(comm mpi.Comm, rd *Reader)) {
	t.Helper()
	err := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) error {
		f(ctx.Comm(), NewReader(ctx, ReaderConfig{Metrics: reg, Prefix: "rocpanda.restart."}))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// restoreOn is the restore walk under prefix on a fresh Reader (onFresh).
func restoreOn(t *testing.T, fsys rt.FS, prefix string, try func(string) error, reg *metrics.Registry) (base string, err error) {
	t.Helper()
	onFresh(t, fsys, reg, func(comm mpi.Comm, rd *Reader) { base, err = rd.Restore(comm, prefix, try) })
	return base, err
}

// universeOn is a fresh Reader's pane universe of base (onFresh).
func universeOn(t *testing.T, fsys rt.FS, base, window string) (ids []int, err error) {
	t.Helper()
	onFresh(t, fsys, nil, func(_ mpi.Comm, rd *Reader) { ids, err = rd.PaneUniverse(base, window) })
	return ids, err
}

func TestRestoreFallsBackPastDamage(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", 2, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	files := writeGen(t, fsys, "out/snap000100", 2, 1)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fsys, "out/snap000200", 2, 2) // uncommitted (crash residue)

	// Bit-flip a payload byte of the newest committed generation: its
	// manifest still verifies (sizes and directory CRCs intact) but the
	// dataset CRC catches the damage during try().
	if err := faults.FlipBit(fsys, files[0], int64(hdf.HeaderSize()*8+5)); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	base, err := restoreOn(t, fsys, "out/", tryRead(fsys), reg)
	if err != nil {
		t.Fatal(err)
	}
	if base != "out/snap000000" {
		t.Fatalf("restored %q, want the oldest intact generation", base)
	}
	if got := reg.Counter("rocpanda.restart.generations_scanned").Value(); got != 3 {
		t.Fatalf("generations_scanned = %d, want 3", got)
	}
	if got := reg.Counter("rocpanda.restart.fallbacks").Value(); got != 2 {
		t.Fatalf("fallbacks = %d, want 2 (uncommitted + bit-flipped)", got)
	}
}

func TestRestoreNoGenerations(t *testing.T) {
	fsys := rt.NewMemFS()
	if _, err := restoreOn(t, fsys, "out/", tryRead(fsys), nil); err == nil {
		t.Fatal("restored from nothing")
	}
}

// TestRestoreCollectiveAgreement: damage visible to only one rank's try
// must still move every rank to the older generation together.
func TestRestoreCollectiveAgreement(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", 4, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	files := writeGen(t, fsys, "out/snap000100", 4, 1)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := faults.FlipBit(fsys, files[2], int64(hdf.HeaderSize()*8)); err != nil {
		t.Fatal(err)
	}

	world := mpi.NewChanWorld(fsys, 1)
	err := world.Run(4, func(ctx mpi.Ctx) error {
		me := ctx.Comm().Rank()
		try := func(base string) error {
			// Each rank reads only its own file, as the individual-I/O
			// modules do; only rank 2's file is damaged.
			m, err := Load(fsys, base)
			if err != nil {
				return err
			}
			name := m.Files[me].Name
			r, err := hdf.Open(fsys, name, ctx.Clock(), hdf.NullProfile())
			if err != nil {
				return err
			}
			defer r.Close()
			for _, d := range r.Datasets() {
				if _, err := r.ReadData(d); err != nil {
					return err
				}
			}
			return nil
		}
		base, err := NewReader(ctx, ReaderConfig{}).Restore(ctx.Comm(), "out/", try)
		if err != nil {
			return err
		}
		if base != "out/snap000000" {
			return errors.New("rank did not fall back: " + base)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreListFailureEveryRankAgrees: a walk that fails on some ranks
// must end the same way on every rank. Only rank 0 lists, so one failed
// listing is the one every rank hears about; when each rank listed for
// itself the rank that saw the failure returned while the others entered
// the collective and waited for it forever. A try that fails on one rank
// alone falls past the generation on every rank, so each reports the same
// failed walk, the clean ranks naming the peer.
func TestRestoreListFailureEveryRankAgrees(t *testing.T) {
	raw := rt.NewMemFS()
	writeGen(t, raw, "out/snap000000", 4, 0)
	if _, err := Commit(raw, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name    string
		fsys    rt.FS
		failing int // the rank whose try fails, or -1
	}{
		{"list-fails", faults.WrapFS(raw, faults.NewFSPlan(1, faults.FSRule{Op: faults.OpList, PathPrefix: "out/", Nth: 1})), -1},
		{"try-fails-on-one-rank", raw, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			type result struct {
				base   string
				failed bool
			}
			results := make([]result, 4)
			errs := make([]error, len(results))
			err := mpi.NewChanWorld(row.fsys, 1).Run(len(results), func(ctx mpi.Ctx) error {
				rank := ctx.Comm().Rank()
				try := func(string) error {
					if rank == row.failing {
						return errors.New("read failed")
					}
					return nil
				}
				base, err := NewReader(ctx, ReaderConfig{}).Restore(ctx.Comm(), "out/", try)
				results[rank], errs[rank] = result{base, err != nil}, err
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, r := range results {
				if r != results[0] {
					t.Fatalf("rank %d returned %+v, rank 0 %+v", rank, r, results[0])
				}
			}
			if !results[0].failed {
				t.Fatalf("the failure was swallowed: restored %q", results[0].base)
			}
			if row.failing < 0 {
				return
			}
			for rank, err := range errs {
				if !strings.Contains(err.Error(), "no restorable generation") {
					t.Errorf("rank %d: %v, want no restorable generation", rank, err)
				}
				if rank != row.failing && !errors.Is(err, mpi.ErrPeerFailed) {
					t.Errorf("rank %d: %v, want mpi.ErrPeerFailed", rank, err)
				}
			}
		})
	}
}

func TestPruneRetention(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := []string{"out/snap000000", "out/snap000050", "out/snap000100"}
	for i, b := range bases {
		writeGen(t, fsys, b, 2, float64(i))
		if _, err := Commit(fsys, b, int64(i*50), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := Prune(fsys, "out/", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "out/snap000000" {
		t.Fatalf("removed %v, want the oldest generation", removed)
	}
	if names, _ := fsys.List("out/snap000000"); len(names) != 0 {
		t.Fatalf("pruned generation left artifacts: %v", names)
	}
	gens, _ := Generations(fsys, "out/")
	if len(gens) != 2 || !gens[0].Committed || !gens[1].Committed {
		t.Fatalf("survivors %+v", gens)
	}
	// Idempotent and retain<=0 keeps everything.
	if removed, _ := Prune(fsys, "out/", 2); removed != nil {
		t.Fatalf("second prune removed %v", removed)
	}
	if removed, _ := Prune(fsys, "out/", 0); removed != nil {
		t.Fatalf("retain=0 removed %v", removed)
	}
}

func TestFsckVerdicts(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", 2, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	files := writeGen(t, fsys, "out/snap000100", 2, 1)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fsys, "out/snap000200", 1, 2) // uncommitted
	// Staged residue inside the healthy generation.
	f, _ := fsys.Create("out/snap000000_p00009.rhdf" + hdf.TmpSuffix)
	f.Close()
	// One flipped payload bit in one file of the newest committed
	// generation; the directory CRC stays valid, so only the deep scrub
	// sees it.
	if err := faults.FlipBit(fsys, files[1], int64(hdf.HeaderSize()*8+1)); err != nil {
		t.Fatal(err)
	}

	reports, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports %+v", reports)
	}
	byBase := map[string]GenReport{}
	for _, r := range reports {
		byBase[r.Base] = r
	}
	if v := byBase["out/snap000200"].Verdict; v != VerdictUncommitted {
		t.Fatalf("uncommitted generation verdict %q", v)
	}
	if v := byBase["out/snap000000"].Verdict; v != VerdictOK {
		t.Fatalf("healthy generation verdict %q", v)
	}
	bad := byBase["out/snap000100"]
	if bad.Verdict != VerdictCorrupt {
		t.Fatalf("damaged generation verdict %q", bad.Verdict)
	}
	var corrupt []string
	for _, fr := range bad.Files {
		if fr.Status == "corrupt" {
			corrupt = append(corrupt, fr.Name)
			if !strings.Contains(fr.Detail, "checksum") {
				t.Fatalf("corrupt detail %q does not name the checksum", fr.Detail)
			}
		}
	}
	if len(corrupt) != 1 || corrupt[0] != files[1] {
		t.Fatalf("fsck flagged %v, want exactly %q", corrupt, files[1])
	}
	// The staged temporary is flagged but does not fail its generation.
	var staged int
	for _, fr := range byBase["out/snap000000"].Files {
		if fr.Status == "staged" {
			staged++
		}
	}
	if staged != 1 {
		t.Fatalf("staged residue not flagged: %+v", byBase["out/snap000000"].Files)
	}

	if Clean(reports) {
		t.Fatal("Clean() true with a corrupt generation")
	}
	out := Format(reports)
	for _, frag := range []string{VerdictCorrupt, VerdictUncommitted, VerdictOK, files[1]} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Format output lacks %q:\n%s", frag, out)
		}
	}
}

// TestFileCheckReadsHeaderCount: the file check reads the header and the raw
// directory and decodes nothing, so it holds the header's dataset count to
// the manifest entry: a flipped count bit leaves the size and directory CRC
// intact but fails the scrub, as the directory walk it replaces did.
func TestFileCheckReadsHeaderCount(t *testing.T) {
	fsys := rt.NewMemFS()
	files := writeGen(t, fsys, "out/snap000100", 2, 1)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := faults.FlipBit(fsys, files[0], 16*8+2); err != nil { // the header's dataset count
		t.Fatal(err)
	}
	reports, err := FsckQuick(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Verdict != VerdictCorrupt || !strings.Contains(Format(reports), "header counts") {
		t.Fatalf("quick scrub of a file with a flipped header count:\n%s", Format(reports))
	}
}
