package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// goldenBlob is the catalog of one file, "snap_s000.rhdf", whose directory
// is goldenDir, in the version-3 layout, byte for byte: the format pin. The
// file table records the directory's 92 bytes; no entry is copied.
func goldenBlob(t testing.TB) []byte {
	blob, err := hex.DecodeString("52434154" + "03000000" + "6e19d914" +
		"14000000" + "01000000" + "316625bd" + // file table
		"0a000000" + "01000000" + "6e3f180f" + // pane index
		"0e00736e61705f733030302e72686466" + "5c000000" +
		"01" + "0500666c756964" + "01" + "02")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reseal recomputes, after bytes of blob were changed in place, each
// section's CRC32C from the bytes its record's length covers, then the
// header's: the blob a writer would have sealed around them.
func reseal(blob []byte) {
	off := blobHeader
	for i := 0; i < 2; i++ {
		r := blob[headerSize+recordSize*i:]
		n := int(binary.LittleEndian.Uint32(r))
		binary.LittleEndian.PutUint32(r[8:], hdf.Checksum(blob[off:off+n]))
		off += n
	}
	binary.LittleEndian.PutUint32(blob[8:], hdf.Checksum(blob[headerSize:blobHeader]))
}

// TestGoldenBlob pins the blob format: the golden blob decodes to the file
// and directory length it describes, its directory loads to the entry it
// holds, and the catalog re-encodes to the golden blob.
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

// TestDecodeRefusesOtherVersions: a version-2 blob — the layout that copied
// every directory entry — and any other version is an error that names it.
func TestDecodeRefusesOtherVersions(t *testing.T) {
	for _, v := range []uint32{1, 2, 4, 0xffffffff} {
		blob := goldenBlob(t)
		binary.LittleEndian.PutUint32(blob[4:], v)
		want := fmt.Sprintf("version %d, want 3", v)
		if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode of a version-%d blob: %v, want %q", v, err, want)
		}
		if _, err := ReadHeader(blob[:8]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadHeader of a version-%d blob's first 8 bytes: %v, want %q", v, err, want)
		}
	}
}

// FuzzCatalogDecode feeds arbitrary bytes to Decode: malformed blobs must
// come back as errors, never panics or hangs, and any blob that decodes
// must re-encode to itself (the catalog is the restart path's map — a
// crash here would turn recoverable corruption into an unrecoverable one).
func FuzzCatalogDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RCAT"))
	f.Add([]byte("RCAT\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("RCAT\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("RCAT\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	empty := new(Catalog).Encode()
	f.Add(empty)

	valid := goldenBlob(f)
	f.Add(valid)
	// Seed a few near-valid mutants so the fuzzer starts past the checksum.
	for _, i := range []int{0, 5, 8, headerSize, len(valid) - 1} {
		m := append([]byte(nil), valid...)
		m[i] ^= 0x40
		f.Add(m)
	}
	// ... and past every section's: resealed flips in the file table (a
	// name, the directory length) and the pane index, each a blob whose
	// checksums all hold.
	for _, i := range []int{blobHeader + 3, blobHeader + 16 + 1, blobHeader + 20 + 3, len(valid) - 1} {
		m := append([]byte(nil), valid...)
		m[i] ^= 0x40
		reseal(m)
		f.Add(m)
	}
	two, _ := twoFileBlob(f, 4, 2)
	f.Add(two)
	f.Add(two[:len(two)-1])

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
