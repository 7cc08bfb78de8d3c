package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

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

// catalogAt returns base's commit record and where in it the catalog's
// sections begin: they end the record.
func catalogAt(t *testing.T, fsys rt.FS, base string) ([]byte, int) {
	t.Helper()
	buf := readAll(t, fsys, base+Suffix)
	_, cat, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf, len(buf) - len(cat.Encode())
}

// cutCatalog cuts base's commit record short where its catalog's sections
// begin: the record has lost its catalog.
func cutCatalog(t *testing.T, fsys rt.FS, base string) {
	t.Helper()
	buf, at := catalogAt(t, fsys, base)
	writeAll(t, fsys, base+Suffix, buf[:at])
}

// reseal recomputes a commit record's CRC32C after its bytes were changed in
// place: the record a writer would have sealed around them.
func reseal(buf []byte) {
	binary.LittleEndian.PutUint32(buf[8:], hdf.Checksum(buf[recordHeader:]))
}

// TestCommitWritesOneRecord: a commit publishes one file, the commit record,
// which carries the catalog — no catalog file beside it — and pins the
// files; it reloads to the same record and re-encodes to its bytes.
func TestCommitWritesOneRecord(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 2, 5)
	m, err := Commit(fsys, "out/snap000010", 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := fsys.List("out/snap000010."); len(names) != 1 || names[0] != "out/snap000010"+Suffix {
		t.Fatalf("the commit left %v, want the record alone", names)
	}
	// Golden: the record and the files of this fixed generation.
	if m.Size != 146 || m.CRC != 0x63ed6899 {
		t.Errorf("record is %d bytes crc %08x, golden 146 bytes crc 63ed6899", m.Size, m.CRC)
	}
	if f := m.Files; len(f) != 2 || f[0].Size != 307 || f[0].DirCRC != 0x053bc0c5 || f[1].Size != 214 || f[1].DirCRC != 0x6017f34e {
		t.Errorf("files %+v, golden 307 bytes dir crc 053bc0c5 and 214 bytes dir crc 6017f34e", f)
	}
	chain, err := LoadChain(fsys, "out/snap000010")
	if err != nil {
		t.Fatal(err)
	}
	cat := chain[0].Catalog
	if len(cat.Files) != 2 || len(cat.Entries) != 5 {
		t.Fatalf("catalog has %d files, %d entries; want 2, 5", len(cat.Files), len(cat.Entries))
	}
	if got := cat.Panes("fluid"); !reflect.DeepEqual(got, []int{1000, 1001, 1002, 1003, 1004}) {
		t.Fatalf("pane universe %v", got)
	}
	got, err := Load(fsys, "out/snap000010")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("reloaded record %+v, want %+v", got, m)
	}
	buf, at := catalogAt(t, fsys, "out/snap000010")
	if again := encodeRecord(got, buf[at:]); !bytes.Equal(again, buf) {
		t.Fatal("the reloaded record encodes to other bytes")
	}
}

// TestRecordDamageCostsItsGeneration: the catalog lives in the commit
// record, under its CRC32C, so a damaged catalog is a damaged record — the
// generation is not loaded, and the walk falls back past it. There is no
// index derived from the files in its place.
func TestRecordDamageCostsItsGeneration(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000000", 1, 2)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writePaneGen(t, fsys, "out/snap000010", 1, 2)
	if _, err := Commit(fsys, "out/snap000010", 10, 0); err != nil {
		t.Fatal(err)
	}
	_, at := catalogAt(t, fsys, "out/snap000010")
	flipByte(t, fsys, "out/snap000010"+Suffix, int64(at+3))
	if got, err := restoreOn(t, fsys, "out/", func(string) error { return nil }, nil); err != nil || got != "out/snap000000" {
		t.Fatalf("walk on a damaged record: restored %q, %v; want the generation before it", got, err)
	}
	if _, err := LoadChain(fsys, "out/snap000010"); !errors.Is(err, hdf.ErrChecksum) {
		t.Fatalf("damaged record loaded: %v", err)
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
	if names, _ := fsys.List("out/snap000000"); len(names) != 0 {
		t.Fatalf("pruned generation left artifacts: %v", names)
	}
	if chain, err := LoadChain(fsys, "out/snap000100"); err != nil || len(chain[0].Catalog.Files) != 1 {
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
	if _, err := universeOn(t, fsys, "out/snap000010", "solid"); err == nil {
		t.Fatal("empty window produced a universe")
	}
	// A record that lost its catalog answers nothing: no universe is
	// derived from the files.
	cutCatalog(t, fsys, "out/snap000010")
	if ids, err := universeOn(t, fsys, "out/snap000010", "fluid"); err == nil {
		t.Fatalf("PaneUniverse answered %v from a record without its catalog", ids)
	}
}

// TestFsckCatalogMismatch: a bit flipped in the catalog a commit record
// carries is damage to the record: the generation is CORRUPT, the record's
// line says why, and the scrub is no longer clean — quick or deep.
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
	if len(reports) != 1 || reports[0].Verdict != VerdictOK || reports[0].Record == nil || len(reports[0].Record.Files) != 2 {
		t.Fatalf("clean scrub: %+v", reports)
	}
	_, at := catalogAt(t, fsys, "out/snap000010")
	flipByte(t, fsys, "out/snap000010"+Suffix, int64(at+3))
	for _, scrub := range []func(rt.FS, string) ([]GenReport, error){Fsck, FsckQuick} {
		reports, err = scrub(fsys, "out/")
		if err != nil {
			t.Fatal(err)
		}
		out := Format(reports)
		if rep := reports[0]; rep.Verdict != VerdictCorrupt || rep.Record != nil || !strings.Contains(out, "out/snap000010"+Suffix) ||
			!strings.Contains(out, "crc32c") {
			t.Fatalf("damaged record's catalog: want %s naming the record\n%s", VerdictCorrupt, out)
		}
		if Clean(reports) {
			t.Fatal("Clean() true with a damaged record")
		}
	}
}

// TestIndex: the one answer to "where are this generation's pane bytes" is
// the catalog its commit record carries. Another generation's record in its
// place, or none, is no index of it: nothing is derived from the files.
func TestIndex(t *testing.T) {
	fsys := rt.NewMemFS()
	writePaneGen(t, fsys, "out/snap000010", 2, 5)
	if _, err := Commit(fsys, "out/snap000010", 10, 0); err != nil {
		t.Fatal(err)
	}
	buf, at := catalogAt(t, fsys, "out/snap000010")
	chain, err := LoadChain(fsys, "out/snap000010")
	if err != nil || !bytes.Equal(chain[0].Catalog.Encode(), buf[at:]) {
		t.Fatalf("index is not the catalog the record carries (%v)", err)
	}

	// Another generation's record, self-consistent, in this one's place.
	writePaneGen(t, fsys, "out/snap000020", 2, 3)
	if _, err := Commit(fsys, "out/snap000020", 20, 0); err != nil {
		t.Fatal(err)
	}
	writeAll(t, fsys, "out/snap000010"+Suffix, readAll(t, fsys, "out/snap000020"+Suffix))
	if _, err := LoadChain(fsys, "out/snap000010"); err == nil || !strings.Contains(err.Error(), "the record of out/snap000020") {
		t.Fatalf("another generation's record loaded as this one's: %v", err)
	}
	if ids, err := universeOn(t, fsys, "out/snap000010", "fluid"); err == nil {
		t.Fatalf("PaneUniverse answered %v from another generation's record", ids)
	}
	if err := fsys.Remove("out/snap000010" + Suffix); err != nil {
		t.Fatal(err)
	}
	if ids, err := universeOn(t, fsys, "out/snap000010", "fluid"); err == nil {
		t.Fatalf("PaneUniverse answered %v with no record", ids)
	}
}

// TestDamagedSectionFailsOnlyItsReads: one flipped byte in a section of a
// delta head record's catalog — its file table or its pane index — fails
// the record's CRC32C: the head will not load, so its round fails, and the
// scrub says CORRUPT on the record, with a chain-broken line.
func TestDamagedSectionFailsOnlyItsReads(t *testing.T) {
	for _, name := range []string{"files", "index"} {
		t.Run(name, func(t *testing.T) {
			fsys := rt.NewMemFS()
			head := commitChain(t, fsys)[2]
			buf, at := catalogAt(t, fsys, head)
			off := int64(len(buf) - 1) // the pane index ends the record
			if name == "files" {
				off = int64(at + 3) // the first file's name
			}
			flipByte(t, fsys, head+Suffix, off)

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
			if rep := reports[0]; rep.Base != head || rep.Verdict != VerdictCorrupt || !strings.Contains(listing, "crc32c") ||
				!strings.Contains(listing, "chain-broken") {
				t.Fatalf("scrub of %s: want %s naming the record's crc32c and a broken chain\n%s", head, VerdictCorrupt, Format(reports))
			}
		})
	}
}
