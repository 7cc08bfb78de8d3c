package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// writePaneGen writes a generation whose files hold real pane datasets
// (the path grammar the catalog indexes), panes dealt round-robin across
// nfiles server-style files.
func writePaneGen(t *testing.T, fsys rt.FS, base string, nfiles, npanes int) {
	t.Helper()
	clock := rt.NewWallClock()
	for s := 0; s < nfiles; s++ {
		name := fmt.Sprintf("%s_s%03d.rhdf", base, s)
		w, err := hdf.Create(fsys, name, clock, hdf.NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		for p := s; p < npanes; p += nfiles {
			id := 1000 + p
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
}

func TestCommitWritesCatalogBeforeManifest(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 2, 5)
	m, err := Commit(fsys, "out/snap000010", 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Catalog == nil {
		t.Fatal("manifest carries no catalog reference")
	}
	if m.Catalog.Name != "out/snap000010"+catalog.Suffix {
		t.Fatalf("catalog name %q", m.Catalog.Name)
	}
	// Golden: the blob and the files of this fixed generation. The blob is
	// in the version-3 layout — the file table and pane index, no copy of
	// an entry — whose header CRC32C the manifest pins; the files did not
	// move with it.
	if m.Catalog.Size != 121 || m.Catalog.CRC != 0x45b140b7 {
		t.Errorf("catalog blob is %d bytes header crc %08x, golden 121 bytes header crc 45b140b7", m.Catalog.Size, m.Catalog.CRC)
	}
	if f := m.Files; len(f) != 2 || f[0].Size != 307 || f[0].DirCRC != 0x053bc0c5 || f[1].Size != 214 || f[1].DirCRC != 0x6017f34e {
		t.Errorf("files %+v, golden 307 bytes dir crc 053bc0c5 and 214 bytes dir crc 6017f34e", f)
	}
	chain, err := LoadChain(fsys, "out/snap000010")
	if err != nil || chain[0].Derived {
		t.Fatalf("pinned catalog: derived %v, err %v", chain[0].Derived, err)
	}
	cat := chain[0].Catalog
	if len(cat.Files) != 2 || len(cat.Entries) != 5 {
		t.Fatalf("catalog has %d files, %d entries; want 2, 5", len(cat.Files), len(cat.Entries))
	}
	if got := cat.Panes("fluid"); !reflect.DeepEqual(got, []int{1000, 1001, 1002, 1003, 1004}) {
		t.Fatalf("pane universe %v", got)
	}
	// The manifest's size and header CRC pin the blob on disk.
	f, _ := fsys.Open(m.Catalog.Name)
	size, _ := f.Size()
	blob := make([]byte, size)
	f.ReadAt(blob, 0)
	f.Close()
	if h, err := catalog.ReadHeader(blob); err != nil || size != m.Catalog.Size || h.CRC != m.Catalog.CRC {
		t.Fatalf("catalog ref size %d crc %08x, blob is %d bytes (header: %v)", m.Catalog.Size, m.Catalog.CRC, size, err)
	}
	// The reloaded manifest round-trips the reference.
	got, err := Load(fsys, "out/snap000010")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Catalog, m.Catalog) {
		t.Fatalf("reloaded catalog ref %+v, want %+v", got.Catalog, m.Catalog)
	}
}

func TestVerifyIgnoresCatalogDamage(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 1, 2)
	m, err := Commit(fsys, "out/snap000010", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.FlipBit(fsys, m.Catalog.Name, 12*8+3); err != nil {
		t.Fatal(err)
	}
	// A damaged catalog must not fail the walk's file check — restart
	// degrades to the scan path instead of abandoning the generation.
	if got, err := restoreOn(t, fsys, "out/", func(string) error { return nil }, nil); err != nil || got != m.Base {
		t.Fatalf("walk on catalog damage: restored %q, %v", got, err)
	}
	if chain, err := LoadChain(fsys, "out/snap000010"); err != nil || !chain[0].Derived {
		t.Fatal("damaged catalog loaded cleanly")
	}
}

func TestPruneRemovesCatalog(t *testing.T) {
	fsys := rt.NewMemFS()
	for i, b := range []string{"out/snap000000", "out/snap000100"} {
		writePaneGen(t, fsys, b, 1, 2)
		if _, err := Commit(fsys, b, int64(i*100), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Prune(fsys, "out/", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Open("out/snap000000" + catalog.Suffix); err == nil {
		t.Fatal("pruned generation's catalog survived")
	}
	if names, _ := fsys.List("out/snap000000"); len(names) != 0 {
		t.Fatalf("pruned generation left artifacts: %v", names)
	}
	if chain, err := LoadChain(fsys, "out/snap000100"); err != nil || chain[0].Derived {
		t.Fatalf("surviving generation's catalog gone: %v", err)
	}
}

func TestPaneUniverse(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 2, 4)
	if _, err := Commit(fsys, "out/snap000010", 10, 0); err != nil {
		t.Fatal(err)
	}
	want := []int{1000, 1001, 1002, 1003}
	got, err := universeOn(t, fsys, "out/snap000010", "fluid")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog universe %v, want %v", got, want)
	}
	// Without the catalog file, the index derived from the files answers.
	if err := fsys.Remove("out/snap000010" + catalog.Suffix); err != nil {
		t.Fatal(err)
	}
	got, err = universeOn(t, fsys, "out/snap000010", "fluid")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan universe %v, want %v", got, want)
	}
	if _, err := universeOn(t, fsys, "out/snap000010", "solid"); err == nil {
		t.Fatal("empty window produced a universe")
	}
}

func TestFsckCatalogMismatch(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 2, 4)
	if _, err := Commit(fsys, "out/snap000010", 10, 0); err != nil {
		t.Fatal(err)
	}
	reports, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Verdict != VerdictOK || reports[0].Catalog != "ok" {
		t.Fatalf("clean scrub: %+v", reports)
	}

	// Bit-flip the catalog body: data files are fine, so the verdict is
	// CATALOG-MISMATCH, not CORRUPT — and the scrub is no longer clean.
	if err := faults.FlipBit(fsys, "out/snap000010"+catalog.Suffix, 12*8+3); err != nil {
		t.Fatal(err)
	}
	reports, err = Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Verdict != VerdictCatalogMismatch || rep.Catalog != "mismatch" {
		t.Fatalf("tampered catalog: verdict %q, catalog %q", rep.Verdict, rep.Catalog)
	}
	if Clean(reports) {
		t.Fatal("Clean() true with a catalog mismatch")
	}
	if out := Format(reports); !strings.Contains(out, VerdictCatalogMismatch) {
		t.Fatalf("Format output lacks the verdict:\n%s", out)
	}

	// A flipped payload bit on top of that dominates: CORRUPT wins.
	if err := faults.FlipBit(fsys, "out/snap000010_s000.rhdf", hdf.HeaderSize()*8+1); err != nil {
		t.Fatal(err)
	}
	reports, _ = Fsck(fsys, "out/")
	if reports[0].Verdict != VerdictCorrupt {
		t.Fatalf("corrupt+mismatch verdict %q, want %q", reports[0].Verdict, VerdictCorrupt)
	}
}

// indexOf is the index of the generation m commits as a reader of the whole
// blob gets it: readCatalog, then index.
func indexOf(fsys rt.FS, m *Manifest) (*catalog.Catalog, bool, error) {
	cat, err := readCatalog(fsys, m, nil)
	return index(fsys, m, cat, err)
}

// TestIndex: the one answer to "where are this generation's pane bytes" is
// the committed blob when it is the blob the manifest pins, and otherwise —
// for a full generation only — the same catalog derived from the files.
func TestIndex(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 2, 5)
	m, err := Commit(fsys, "out/snap000010", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	committed := readAll(t, fsys, m.Catalog.Name)
	index := func(wantDerived bool) *catalog.Catalog {
		t.Helper()
		cat, derived, err := indexOf(fsys, m)
		if err != nil || derived != wantDerived {
			t.Fatalf("index: derived %v err %v, want derived %v", derived, err, wantDerived)
		}
		if !bytes.Equal(cat.Encode(), committed) {
			t.Fatalf("index (derived %v) is not the catalog the commit wrote", derived)
		}
		return cat
	}
	index(false)

	// Another generation's blob, self-consistent, in this one's place.
	writePaneGen(t, fsys, "out/snap000020", 2, 3)
	other, err := Commit(fsys, "out/snap000020", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, fsys, m.Catalog.Name, readAll(t, fsys, other.Catalog.Name))
	index(true)
	if ids, err := universeOn(t, fsys, "out/snap000010", "fluid"); err != nil || len(ids) != 5 {
		t.Fatalf("PaneUniverse beside a stale catalog = %v, %v; want this generation's 5 panes", ids, err)
	}
	if err := fsys.Remove(m.Catalog.Name); err != nil {
		t.Fatal(err)
	}
	index(true)

	// A file whose directory will not read: the rest is indexed and the
	// error says so; the pane universe, which must be whole, refuses.
	if err := fsys.Remove("out/snap000010_s001.rhdf"); err != nil {
		t.Fatal(err)
	}
	cat, derived, err := indexOf(fsys, m)
	if !derived || !errors.Is(err, rt.ErrNotExist) || len(cat.Files) != 1 || len(cat.Entries) != 3 {
		t.Fatalf("index short a file: derived %v err %v, %d files %d entries", derived, err, len(cat.Files), len(cat.Entries))
	}
	if _, err := universeOn(t, fsys, "out/snap000010", "fluid"); err == nil {
		t.Fatal("PaneUniverse answered from an index short a file")
	}

	// A delta generation is never derived.
	writePaneGen(t, fsys, "out/snap000030", 1, 1)
	delta, err := CommitChained(fsys, "out/snap000030", 30, 0,
		&ChainInfo{Base: "out/snap000020", Depth: 1, Panes: map[string][]int{"fluid": {1000, 1001, 1002}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := indexOf(fsys, delta); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(delta.Catalog.Name); err != nil {
		t.Fatal(err)
	}
	if cat, derived, err := indexOf(fsys, delta); err == nil || derived || cat != nil {
		t.Fatalf("index of a delta without its blob: cat %v derived %v err %v", cat, derived, err)
	}

	// An orphan catalog beside an unreadable manifest is nobody's index.
	writeAll(t, fsys, "out/snap000020"+Suffix, []byte("{"))
	if ids, err := universeOn(t, fsys, "out/snap000020", "fluid"); err == nil {
		t.Fatalf("PaneUniverse answered %v from an orphan catalog", ids)
	}
}

// TestDamagedSectionFailsOnlyItsReads: one flipped byte in a section of a
// delta head's catalog — its file table or its pane index. The header
// still matches the manifest's pin, so the damage is caught by the
// section's own CRC32C, and it is the damaged catalog it always was: a
// delta head that will not load fails the round, and the scrub's
// CATALOG-MISMATCH names the section and carries a chain-broken line.
func TestDamagedSectionFailsOnlyItsReads(t *testing.T) {
	for _, tc := range []struct{ name, section string }{{"files", "file table"}, {"index", "pane index"}} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := rt.NewMemFS()
			head := commitChain(t, fsys)[2]
			name := head + catalog.Suffix
			blob := readAll(t, fsys, name)
			// The file table follows the 36-byte header; the pane index ends
			// the blob.
			at := int64(len(blob) - 1)
			if tc.name == "files" {
				at = 36 + 3
			}
			flipByte(t, fsys, name, at)

			onReader(t, fsys, metrics.New(), func(_ mpi.Ctx, rd *Reader) {
				if got, mode := readPanes(rd, head); mode != ReadFailed || len(got) != 0 {
					t.Fatalf("round: mode %d, %d panes; want a failed round", mode, len(got))
				}
			})
			reports, err := Fsck(fsys, "out/")
			if err != nil {
				t.Fatal(err)
			}
			listing := Format(reports[:1])
			if rep := reports[0]; rep.Base != head || rep.Verdict != VerdictCatalogMismatch || !strings.Contains(listing, tc.section) ||
				!strings.Contains(listing, "chain-broken") {
				t.Fatalf("scrub of %s: want %s naming %q and a broken chain\n%s", head, VerdictCatalogMismatch, tc.section, Format(reports))
			}
		})
	}
}
