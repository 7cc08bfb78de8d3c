package snapshot

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// writeServerFile writes one server-style snapshot file holding the given
// panes. Two calls with the same panes produce byte-identical files —
// the property the replica layer guarantees and repair relies on.
func writeServerFile(t *testing.T, fsys rt.FS, name string, paneIDs []int) {
	t.Helper()
	w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range paneIDs {
		ds := fmt.Sprintf("/fluid/pane%06d/pressure", id)
		if err := w.CreateDataset(ds, hdf.F64, []int64{4}, nil,
			hdf.F64Bytes([]float64{float64(id), 1, 2, 3})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeReplicatedGen writes an R=2 generation: each server's primary plus
// a byte-identical replica homed at the next server's file set.
func writeReplicatedGen(t *testing.T, fsys rt.FS, base string, nservers, npanes int) {
	t.Helper()
	for s := 0; s < nservers; s++ {
		var panes []int
		for p := s; p < npanes; p += nservers {
			panes = append(panes, 1000+p)
		}
		writeServerFile(t, fsys, fmt.Sprintf("%s_s%03d.rhdf", base, s), panes)
		home := (s + 1) % nservers
		writeServerFile(t, fsys, fmt.Sprintf("%s_s%03dr1.rhdf", base, home), panes)
	}
}

func readFileBytes(t *testing.T, fsys rt.FS, name string) []byte {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestBaseOfReplicaNames(t *testing.T) {
	cases := map[string]string{
		"out/snap000010_s000r1.rhdf":     "out/snap000010",
		"out/snap000010_s012r2.rhdf.tmp": "out/snap000010",
		"out/snap000010_s000r.rhdf":      "", // empty replica digits
		"out/snap000010_sr1.rhdf":        "", // empty server digits
		"out/snap000010_s0a0r1.rhdf":     "", // non-digit server part
		"out/snap000010_p00002r1.rhdf":   "", // per-rank files have no replicas
	}
	for in, want := range cases {
		if got := baseOf(in); got != want {
			t.Fatalf("baseOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCommitRecordsReplication(t *testing.T) {
	fsys := rt.NewMemFS()
	writeReplicatedGen(t, fsys, "out/snap000010", 2, 4)
	m, err := Commit(fsys, "out/snap000010", 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 4 {
		t.Fatalf("manifest lists %d files, want 4 (2 primaries + 2 replicas)", len(m.Files))
	}
	// Replicas are byte-identical to their primaries, so the manifest pins
	// matching (size, dir CRC) pairs — what content-addressed repair needs.
	bySize := map[string]int{}
	for _, e := range m.Files {
		bySize[fmt.Sprintf("%d/%08x", e.Size, e.DirCRC)]++
	}
	for k, n := range bySize {
		if n != 2 {
			t.Fatalf("file fingerprint %s appears %d times, want a primary+replica pair", k, n)
		}
	}
}

func TestRestoreAllUncommitted(t *testing.T) {
	fsys := rt.NewMemFS()
	// Two generations, both crash residue: files on disk, no manifest.
	writeGen(t, fsys, "out/snap000000", 2, 0)
	writeGen(t, fsys, "out/snap000100", 2, 1)

	reg := metrics.New()
	if _, err := restoreOn(t, fsys, "out/", tryRead(fsys), reg); err == nil {
		t.Fatal("restored from a tree of uncommitted generations")
	} else if !strings.Contains(err.Error(), "uncommitted") {
		t.Fatalf("error %v does not name the uncommitted cause", err)
	}
	if got := reg.Counter("rocpanda.restart.generations_scanned").Value(); got != 2 {
		t.Fatalf("generations_scanned = %d, want 2", got)
	}
	if got := reg.Counter("rocpanda.restart.fallbacks").Value(); got != 2 {
		t.Fatalf("fallbacks = %d, want 2", got)
	}
}

// TestRestoreAttemptsDegradedReplicatedGeneration: losing a file costs a
// replicated generation nothing at the walk level — the attempt proceeds
// and the read path (here stubbed) decides — while the same loss on an
// unreplicated generation still falls back before trying.
func TestRestoreAttemptsDegradedReplicatedGeneration(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", 2, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeReplicatedGen(t, fsys, "out/snap000100", 2, 4)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000100_s000.rhdf"); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	attempted := []string{}
	try := func(base string) error { attempted = append(attempted, base); return nil }
	base, err := restoreOn(t, fsys, "out/", try, reg)
	if err != nil {
		t.Fatal(err)
	}
	if base != "out/snap000100" {
		t.Fatalf("restored %q, want the degraded replicated generation", base)
	}
	if got := reg.Counter("rocpanda.restart.fallbacks").Value(); got != 0 {
		t.Fatalf("fallbacks = %d, want 0", got)
	}

	// Control: the same loss on an R=1 generation is a fallback, before
	// the attempt — existing behaviour, unchanged.
	fsys2 := rt.NewMemFS()
	writeGen(t, fsys2, "out/snap000000", 2, 0)
	if _, err := Commit(fsys2, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	files := writeGen(t, fsys2, "out/snap000100", 2, 1)
	if _, err := Commit(fsys2, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := fsys2.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	reg2 := metrics.New()
	attempted = attempted[:0]
	base, err = restoreOn(t, fsys2, "out/", try, reg2)
	if err != nil {
		t.Fatal(err)
	}
	if base != "out/snap000000" {
		t.Fatalf("R=1 restored %q, want the older intact generation", base)
	}
	for _, b := range attempted {
		if b == "out/snap000100" {
			t.Fatal("R=1 walk attempted the damaged generation")
		}
	}
	if got := reg2.Counter("rocpanda.restart.fallbacks").Value(); got != 1 {
		t.Fatalf("R=1 fallbacks = %d, want 1", got)
	}
}

func TestPruneRemovesReplicaFiles(t *testing.T) {
	fsys := rt.NewMemFS()
	writeReplicatedGen(t, fsys, "out/snap000000", 2, 4)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeReplicatedGen(t, fsys, "out/snap000100", 2, 4)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(fsys, "out/", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "out/snap000000" {
		t.Fatalf("removed %v", removed)
	}
	if names, _ := fsys.List("out/snap000000"); len(names) != 0 {
		t.Fatalf("pruned generation left artifacts (replicas?): %v", names)
	}
}

// TestRepairRebuildsCorruptTree drives the genxfsck -repair engine: a
// generation with a bit-flipped primary, a deleted primary, and a damaged
// catalog blob must come back OK from its replicas, the second scrub must
// pass, and no committed-good file may change by a single byte.
func TestRepairRebuildsCorruptTree(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", 2, 0) // older healthy generation
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeReplicatedGen(t, fsys, "out/snap000100", 2, 4)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}

	good := map[string][]byte{}
	for _, name := range []string{
		"out/snap000000_p00000.rhdf", "out/snap000000_p00001.rhdf",
		"out/snap000100_s000r1.rhdf", "out/snap000100_s001r1.rhdf",
	} {
		good[name] = readFileBytes(t, fsys, name)
	}
	wantPrimary := map[string][]byte{
		// s000's data is replicated at s001r1 and vice versa.
		"out/snap000100_s000.rhdf": good["out/snap000100_s001r1.rhdf"],
		"out/snap000100_s001.rhdf": good["out/snap000100_s000r1.rhdf"],
	}

	// Damage: flip a payload bit in one primary and delete the other.
	if err := faults.FlipBit(fsys, "out/snap000100_s000.rhdf", int64(hdf.HeaderSize()*8+3)); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000100_s001.rhdf"); err != nil {
		t.Fatal(err)
	}

	pre, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if pre[0].Verdict != VerdictCorrupt {
		t.Fatalf("damaged generation scrubs %q, want CORRUPT", pre[0].Verdict)
	}

	reports, err := Repair(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	byBase := map[string]GenReport{}
	for _, r := range reports {
		byBase[r.Base] = r
	}
	rep := byBase["out/snap000100"]
	if rep.Verdict != VerdictRepaired {
		t.Fatalf("repaired generation verdict %q, want %q\n%s", rep.Verdict, VerdictRepaired, Format(reports))
	}
	repaired := map[string]bool{}
	for _, fr := range rep.Files {
		if fr.Status == "repaired" {
			repaired[fr.Name] = true
		}
	}
	for _, name := range []string{"out/snap000100_s000.rhdf", "out/snap000100_s001.rhdf"} {
		if !repaired[name] {
			t.Fatalf("%s not reported repaired: %+v", name, rep.Files)
		}
	}
	if v := byBase["out/snap000000"].Verdict; v != VerdictOK {
		t.Fatalf("healthy generation verdict %q after repair", v)
	}
	if !Clean(reports) {
		t.Fatal("Clean() false after repair")
	}

	// Second scrub pass: the tree is OK again, no REPAIRED annotations
	// needed to excuse anything.
	post, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range post {
		if r.Verdict != VerdictOK {
			t.Fatalf("post-repair scrub: %s is %q\n%s", r.Base, r.Verdict, Format(post))
		}
	}

	// Committed-good files are untouched; rebuilt primaries are exact
	// copies of their replicas.
	for name, want := range good {
		if !bytes.Equal(readFileBytes(t, fsys, name), want) {
			t.Fatalf("repair modified committed-good file %s", name)
		}
	}
	for name, want := range wantPrimary {
		if !bytes.Equal(readFileBytes(t, fsys, name), want) {
			t.Fatalf("rebuilt %s is not byte-identical to its replica", name)
		}
	}
	// No staging residue.
	names, _ := fsys.List("out/")
	for _, name := range names {
		if strings.HasSuffix(name, hdf.TmpSuffix) {
			t.Fatalf("repair left staging residue %s", name)
		}
	}
}

// TestRepairLeavesUnrepairableDamage: with every copy of a pane bad there
// is no donor, so Repair must not invent one — the generation stays
// CORRUPT and the restore walk's generation fallback remains the answer.
func TestRepairLeavesUnrepairableDamage(t *testing.T) {
	fsys := rt.NewMemFS()
	writeReplicatedGen(t, fsys, "out/snap000100", 2, 4)
	if _, err := Commit(fsys, "out/snap000100", 100, 1); err != nil {
		t.Fatal(err)
	}
	// Both copies of server 0's data are damaged.
	if err := faults.FlipBit(fsys, "out/snap000100_s000.rhdf", int64(hdf.HeaderSize()*8+3)); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000100_s001r1.rhdf"); err != nil {
		t.Fatal(err)
	}
	reports, err := Repair(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Verdict != VerdictCorrupt {
		t.Fatalf("verdict %q, want CORRUPT (no donor exists)", reports[0].Verdict)
	}
	if Clean(reports) {
		t.Fatal("Clean() true with unrepairable damage")
	}
}
