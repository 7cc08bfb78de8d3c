package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"unsafe"

	"genxio/internal/hdf"
)

// goldenDir is the RHDF directory of one dataset —
// /fluid/pane000001/pressure, float64 dims [4 1], attribute
// location="node", 32 stored bytes at offset 24 with CRC32C 0xdeadbeef —
// byte for byte: its count, then its one entry.
func goldenDir(t testing.TB) hdf.RawDir {
	dir, err := hex.DecodeString("01000000" +
		"1a002f666c7569642f70616e653030303030312f7072657373757265" +
		"010202" + "0400000000000000" + "0100000000000000" +
		"1800000000000000" + "2000000000000000" + "efbeadde" +
		"0100" + "08006c6f636174696f6e" + "05" + "04000000" + "6e6f6465")
	if err != nil {
		t.Fatal(err)
	}
	return hdf.RawDir{Name: "snap_s000.rhdf", Size: 24 + 32 + int64(len(dir)), Count: 1, Bytes: dir}
}

// goldenBlob is the catalog sections of one file, "snap_s000.rhdf", whose
// directory is goldenDir, byte for byte: the format pin. The file table
// records the directory's 92 bytes; no entry is copied.
func goldenBlob(t testing.TB) []byte {
	blob, err := hex.DecodeString("01" + // one file
		"0e00736e61705f733030302e72686466" + "5c000000" + // file table
		"01" + "0500666c756964" + "01" + "02") // pane index
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenBlob pins the sections' format: the golden sections decode to
// the file and directory length they describe, its directory loads to the
// entry it holds, and the catalog re-encodes to the golden bytes.
func TestGoldenBlob(t *testing.T) {
	blob := goldenBlob(t)
	c, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Files) != 1 || c.Files[0] != "snap_s000.rhdf" || c.DirLen(0) != 92 || c.HasDir(0) || len(c.Entries) != 0 {
		t.Fatalf("decoded %+v", c)
	}
	if err := c.LoadDir(0, goldenDir(t)); err != nil || len(c.Entries) != 1 {
		t.Fatalf("LoadDir: %v, %d entries", err, len(c.Entries))
	}
	e := &c.Entries[0]
	d := c.Dataset(e)
	off, length := e.Extent()
	loc, _ := d.Attr("location")
	if dOff, dLength := d.Extent(); dOff != off || dLength != length {
		t.Fatalf("entry extent [%d,+%d), its dataset's [%d,+%d)", off, length, dOff, dLength)
	}
	if e.File != 0 || d.Name != "/fluid/pane000001/pressure" || e.Window != "fluid" || e.Pane != 1 || e.Attr != "pressure" ||
		d.Type != hdf.F64 || len(d.Dims) != 2 || d.Dims[0] != 4 || d.Dims[1] != 1 || loc.Str() != "node" ||
		off != 24 || length != 32 || d.CRC() != 0xdeadbeef || d.Compressed() {
		t.Fatalf("decoded entry %+v, dataset %+v", *e, d)
	}
	if !bytes.Equal(c.Encode(), blob) {
		t.Fatalf("re-encoded blob differs:\n got %x\nwant %x", c.Encode(), blob)
	}
	var s Splice
	if err := s.AddDir(goldenDir(t)); err != nil || !bytes.Equal(s.Blob(), blob) {
		t.Fatalf("spliced blob differs (%v):\n got %x\nwant %x", err, s.Blob(), blob)
	}
}

// TestDecodeRefusesCRCLessEntry: a catalog's entries, read from the file's
// own directory, must carry their CRC: a directory whose entry lacks the
// CRC bit does not load (LoadDir refuses it, as the directory's gate does),
// and the splice refuses it too.
func TestDecodeRefusesCRCLessEntry(t *testing.T) {
	c, err := Decode(goldenBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	d := goldenDir(t)
	d.Bytes[4+2+len("/fluid/pane000001/pressure")+1] &^= 2
	if err := c.LoadDir(0, d); err == nil || !strings.Contains(err.Error(), "carries no CRC") || c.HasDir(0) {
		t.Fatalf("LoadDir of an entry without its CRC bit: %v", err)
	}
	var s Splice
	if err := s.AddDir(d); err == nil {
		t.Fatal("Splice took an entry without its CRC bit")
	}
}

// TestDecodeRefusesOtherVersions: a blob of the retired catalog file —
// magic, version and section headers before the sections, versions 1 to 3
// — is not the sections and does not decode. (The commit record refuses
// it by name: TestRecordRefusesOlderFormats.)
func TestDecodeRefusesOtherVersions(t *testing.T) {
	for _, v := range []uint32{1, 2, 3} {
		blob := binary.LittleEndian.AppendUint32([]byte(Magic), v)
		blob = append(blob, make([]byte, 28)...)
		blob = append(blob, goldenBlob(t)...)
		if _, err := Decode(blob); err == nil {
			t.Errorf("Decode took a version-%d catalog blob", v)
		}
	}
}

// FuzzCatalogDecode feeds arbitrary bytes to Decode: malformed sections
// must come back as errors, never panics or hangs, and any bytes that
// decode must re-encode to themselves (the catalog is the restart path's
// map — a crash here would turn recoverable corruption into an
// unrecoverable one).
func FuzzCatalogDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0x80, 0x00}) // an overlong zero
	f.Add([]byte("RCAT\x03\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(new(Catalog).Encode())

	valid := goldenBlob(f)
	f.Add(valid)
	for _, i := range []int{0, 1, 2, 16, 20, 21, 27, len(valid) - 1} {
		m := append([]byte(nil), valid...)
		m[i] ^= 0x40
		f.Add(m)
	}
	two, _ := twoFileBlob(f, 4, 2)
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(append(two, 0))
	f.Add(append([]byte{1, 0x80, 0x80, 0x00}, valid[1:]...)) // an overlong file count

	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := Decode(blob)
		if err != nil {
			return
		}
		if again := c.Encode(); !bytes.Equal(again, blob) {
			t.Fatalf("decoded catalog re-encodes to other bytes:\n got %x\nwant %x", again, blob)
		}
	})
}

// TestEntrySize: PlanReads copies entries by value, several per pane, so an
// Entry must not outgrow the 152 bytes it was before it carried hdf.Dataset.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 152 {
		t.Fatalf("Entry is %d bytes, want at most 152", n)
	}
}
