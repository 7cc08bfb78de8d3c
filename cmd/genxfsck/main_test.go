package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

func writeGen(t *testing.T, fsys rt.FS, base string, panes []int) {
	t.Helper()
	w, err := hdf.Create(fsys, base+"_s000.rhdf", rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range panes {
		ds := roccom.PanePrefix("fluid", id) + "p"
		if err := w.CreateDataset(ds, hdf.F64, []int64{2}, nil,
			hdf.F64Bytes([]float64{1, 2})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScrubCatalogMissing: the quick pass must report an absent pinned
// catalog blob as CATALOG-MISSING (catalog state "missing"), not as the
// generic mismatch, and exit-code it as corrupt.
func TestQuickScrubCatalogMissing(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", []int{1, 2})
	if _, err := snapshot.Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000000" + catalog.Suffix); err != nil {
		t.Fatal(err)
	}
	reports, err := snapshot.FsckQuick(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Verdict != snapshot.VerdictCatalogMissing {
		t.Fatalf("reports %+v, want one CATALOG-MISSING", reports)
	}
	if reports[0].Catalog != "missing" {
		t.Fatalf("catalog state %q, want missing", reports[0].Catalog)
	}
	if code := exitCode(reports); code != exitCorrupt {
		t.Fatalf("exit code %d, want %d", code, exitCorrupt)
	}
}

// TestQuickScrubChainBroken: the quick pass runs the chain verdicts too —
// a clean delta over a damaged base is CHAIN-BROKEN even without the
// payload scrub.
func TestQuickScrubChainBroken(t *testing.T) {
	fsys := rt.NewMemFS()
	writeGen(t, fsys, "out/snap000000", []int{1, 2})
	if _, err := snapshot.Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeGen(t, fsys, "out/snap000010", []int{2})
	if _, err := snapshot.CommitChained(fsys, "out/snap000010", 10, 1,
		&snapshot.ChainInfo{Base: "out/snap000000", Depth: 1,
			Panes: map[string][]int{"fluid": {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000000" + catalog.Suffix); err != nil {
		t.Fatal(err)
	}
	reports, err := snapshot.FsckQuick(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, r := range reports {
		verdicts[r.Base] = r.Verdict
	}
	if verdicts["out/snap000000"] != snapshot.VerdictCatalogMissing {
		t.Fatalf("base verdict %q, want CATALOG-MISSING", verdicts["out/snap000000"])
	}
	if verdicts["out/snap000010"] != snapshot.VerdictChainBroken {
		t.Fatalf("delta verdict %q, want CHAIN-BROKEN", verdicts["out/snap000010"])
	}
	if code := exitCode(reports); code != exitCorrupt {
		t.Fatalf("exit code %d, want %d", code, exitCorrupt)
	}
}

// TestReplicatedChainExitCodes: a replicated base that lost its primary is
// CORRUPT, but the delta on it is OK — the restore walk goes through the base
// and reads its panes from the replica — so the exit code is 2 for the base
// alone, and -repair rebuilds the primary: REPAIRED, exit 0.
func TestReplicatedChainExitCodes(t *testing.T) {
	fsys := rt.NewMemFS()
	for i, base := range []string{"out/snap000000", "out/snap000010"} {
		panes := []int{1, 2}
		if i > 0 {
			panes = []int{2}
		}
		writeGen(t, fsys, base, panes)
		blob, err := hdf.ReadFile(fsys, base+"_s000.rhdf")
		if err != nil {
			t.Fatal(err)
		}
		if err := hdf.PublishFile(fsys, base+"_s001r1.rhdf", blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := snapshot.Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.CommitChained(fsys, "out/snap000010", 10, 1,
		&snapshot.ChainInfo{Base: "out/snap000000", Depth: 1,
			Panes: map[string][]int{"fluid": {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000000_s000.rhdf"); err != nil {
		t.Fatal(err)
	}
	// In this order: the repair comes last.
	for _, pass := range []struct {
		name  string
		scrub func(rt.FS, string) ([]snapshot.GenReport, error)
	}{{"deep", snapshot.Fsck}, {"quick", snapshot.FsckQuick}, {"repair", snapshot.Repair}} {
		name := pass.name
		reports, err := pass.scrub(fsys, "out/")
		if err != nil {
			t.Fatal(err)
		}
		verdicts := map[string]string{}
		for _, r := range reports {
			verdicts[r.Base] = r.Verdict
		}
		wantBase, wantExit := snapshot.VerdictCorrupt, exitCorrupt
		if name == "repair" {
			wantBase, wantExit = snapshot.VerdictRepaired, exitOK
		}
		if verdicts["out/snap000010"] != snapshot.VerdictOK || verdicts["out/snap000000"] != wantBase {
			t.Fatalf("%s: verdicts %v, want the delta OK and the base %s", name, verdicts, wantBase)
		}
		if code := exitCode(reports); code != wantExit {
			t.Fatalf("%s: exit code %d, want %d", name, code, wantExit)
		}
	}
}

// TestReplicatedChainNamesLostPanes: a replicated base that lost both
// copies of its panes 1 and 3 while the delta on it rewrote only pane 2 is
// CORRUPT, and the delta CHAIN-BROKEN — the restore walk will not go through
// it — with the detail naming the panes that have no intact copy.
func TestReplicatedChainNamesLostPanes(t *testing.T) {
	fsys := rt.NewMemFS()
	for i, base := range []string{"out/snap000000", "out/snap000010"} {
		panes := []int{1, 3}
		if i > 0 {
			panes = []int{2}
		}
		writeGen(t, fsys, base, panes)
		blob, err := hdf.ReadFile(fsys, base+"_s000.rhdf")
		if err != nil {
			t.Fatal(err)
		}
		if err := hdf.PublishFile(fsys, base+"_s001r1.rhdf", blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := snapshot.Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.CommitChained(fsys, "out/snap000010", 10, 1,
		&snapshot.ChainInfo{Base: "out/snap000000", Depth: 1,
			Panes: map[string][]int{"fluid": {1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"out/snap000000_s000.rhdf", "out/snap000000_s001r1.rhdf"} {
		if err := fsys.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	for name, scrub := range map[string]func(rt.FS, string) ([]snapshot.GenReport, error){"deep": snapshot.Fsck, "quick": snapshot.FsckQuick} {
		reports, err := scrub(fsys, "out/")
		if err != nil {
			t.Fatal(err)
		}
		var detail string
		for _, r := range reports {
			if r.Base != "out/snap000010" {
				continue
			}
			if r.Verdict != snapshot.VerdictChainBroken {
				t.Fatalf("%s: delta verdict %q, want CHAIN-BROKEN\n%s", name, r.Verdict, snapshot.Format(reports))
			}
			for _, f := range r.Files {
				if f.Status == "chain-broken" {
					detail = f.Detail
				}
			}
		}
		if !strings.HasSuffix(detail, "no intact copy of fluid:1, fluid:3 (2 in all)") {
			t.Fatalf("%s: chain-broken detail %q, want the panes 1 and 3 named", name, detail)
		}
		if code := exitCode(reports); code != exitCorrupt {
			t.Fatalf("%s: exit code %d, want %d", name, code, exitCorrupt)
		}
	}
}

// TestExitCodeSeverity: worst verdict wins, chain and catalog verdicts rank
// with corrupt.
func TestExitCodeSeverity(t *testing.T) {
	cases := []struct {
		verdicts []string
		want     int
	}{
		{[]string{snapshot.VerdictOK, snapshot.VerdictRepaired}, exitOK},
		{[]string{snapshot.VerdictOK, snapshot.VerdictUncommitted}, exitUncommitted},
		{[]string{snapshot.VerdictUncommitted, snapshot.VerdictCorrupt}, exitCorrupt},
		{[]string{snapshot.VerdictOK, snapshot.VerdictCatalogMismatch}, exitCorrupt},
		{[]string{snapshot.VerdictOK, snapshot.VerdictCatalogMissing}, exitCorrupt},
		{[]string{snapshot.VerdictOK, snapshot.VerdictChainBroken}, exitCorrupt},
	}
	for _, c := range cases {
		var reports []snapshot.GenReport
		for i, v := range c.verdicts {
			reports = append(reports, snapshot.GenReport{Base: fmt.Sprintf("g%d", i), Verdict: v})
		}
		if got := exitCode(reports); got != c.want {
			t.Fatalf("verdicts %v -> exit %d, want %d", c.verdicts, got, c.want)
		}
	}
}

// TestCatalogMismatchNamesWhere: a catalog that is the blob its manifest
// pins but lies is CATALOG-MISMATCH, and the detail names where: a byte
// flipped in its file table or its pane index names that section (the
// quick scrub sees it too), and a file table that places a file's
// directory elsewhere than the file holds it names the directory extent of
// that file (the full scrub, which loads every directory as a restart does).
func TestCatalogMismatchNamesWhere(t *testing.T) {
	const base = "out/snap000000"
	for _, tc := range []struct {
		name, detail string
		quick        bool
		damage       func(t *testing.T, fsys rt.FS)
	}{
		{"file table", "file table", true, func(t *testing.T, fsys rt.FS) { flipCatalogByte(t, fsys, base, func(int) int { return 36 + 3 }) }},
		{"pane index", "pane index", true, func(t *testing.T, fsys rt.FS) { flipCatalogByte(t, fsys, base, func(n int) int { return n - 1 }) }},
		{"directory extent", "directory extent of " + base + "_s000.rhdf", false, func(t *testing.T, fsys rt.FS) {
			// The catalog indexes file 0 by file 1's directory: its
			// length and panes. Repinned, it is the blob the manifest pins.
			var s catalog.Splice
			d1, err := hdf.ReadRawDir(fsys, base+"_s001.rhdf")
			if err != nil {
				t.Fatal(err)
			}
			d0 := d1
			d0.Name = base + "_s000.rhdf"
			for _, d := range []hdf.RawDir{d0, d1} {
				if err := s.AddDir(d); err != nil {
					t.Fatal(err)
				}
			}
			repin(t, fsys, base, s.Blob())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := rt.NewMemFS()
			writeGen(t, fsys, base, []int{1, 2})
			writeGenFile(t, fsys, base+"_s001.rhdf", []int{3, 4, 5})
			if _, err := snapshot.Commit(fsys, base, 0, 0); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, fsys)
			scrubs := []func(rt.FS, string) ([]snapshot.GenReport, error){snapshot.Fsck}
			if tc.quick {
				scrubs = append(scrubs, snapshot.FsckQuick)
			}
			for _, scrub := range scrubs {
				reports, err := scrub(fsys, "out/")
				if err != nil {
					t.Fatal(err)
				}
				if out := snapshot.Format(reports); len(reports) != 1 || reports[0].Verdict != snapshot.VerdictCatalogMismatch ||
					!strings.Contains(out, tc.detail) || exitCode(reports) != exitCorrupt {
					t.Fatalf("want %s naming %q:\n%s", snapshot.VerdictCatalogMismatch, tc.detail, out)
				}
			}
		})
	}
}

// writeGenFile writes one more file of a generation: panes of "fluid".
func writeGenFile(t *testing.T, fsys rt.FS, name string, panes []int) {
	t.Helper()
	w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range panes {
		if err := w.CreateDataset(roccom.PanePrefix("fluid", id)+"p", hdf.F64, []int64{1}, nil, hdf.F64Bytes([]float64{1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipCatalogByte flips the byte at(n) of base's n-byte catalog blob.
func flipCatalogByte(t *testing.T, fsys rt.FS, base string, at func(n int) int) {
	t.Helper()
	blob, err := hdf.ReadFile(fsys, base+catalog.Suffix)
	if err != nil {
		t.Fatal(err)
	}
	blob[at(len(blob))] ^= 0x20
	if err := hdf.PublishFile(fsys, base+catalog.Suffix, blob); err != nil {
		t.Fatal(err)
	}
}

// repin installs blob as base's catalog and rewrites the manifest to pin it.
func repin(t *testing.T, fsys rt.FS, base string, blob []byte) {
	t.Helper()
	m, err := snapshot.Load(fsys, base)
	if err != nil {
		t.Fatal(err)
	}
	if m.Catalog.Size, m.Catalog.CRC, err = catalog.WriteBlob(fsys, base, blob); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := hdf.PublishFile(fsys, base+snapshot.Suffix, enc); err != nil {
		t.Fatal(err)
	}
}
