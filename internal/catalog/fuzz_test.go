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

// goldenBlob is the catalog of one file, "snap_s000.rhdf", holding one
// dataset — /fluid/pane000001/pressure, float64 dims [4 1], attribute
// location="node", 32 stored bytes at offset 24 with CRC32C 0xdeadbeef —
// in the version-2 layout, byte for byte: the format pin. The entry run is
// the dataset's RHDF directory entry, byte for byte.
func goldenBlob(t testing.TB) []byte {
	blob, err := hex.DecodeString("52434154" + "02000000" + "5dffe13e" + "01000000" +
		"10000000" + "01000000" + "fdfeee36" + // file table
		"0a000000" + "01000000" + "6e3f180f" + // pane index
		"58000000" + "01000000" + "c6adff42" + // the run of snap_s000.rhdf
		"0e00736e61705f733030302e72686466" +
		"01" + "0500666c756964" + "01" + "02" +
		"1a002f666c7569642f70616e653030303030312f7072657373757265" +
		"010202" + "0400000000000000" + "0100000000000000" +
		"1800000000000000" + "2000000000000000" + "efbeadde" +
		"0100" + "08006c6f636174696f6e" + "05" + "04000000" + "6e6f6465")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reseal recomputes, after bytes of blob were changed in place, every
// section's CRC32C from the bytes its record's length covers, then the
// header's: the blob a writer would have sealed around them.
func reseal(blob []byte) {
	nf := int(binary.LittleEndian.Uint32(blob[12:]))
	off := HeaderSize(nf)
	for i := 0; i < secRuns+nf; i++ {
		r := blob[headerSize+4+recordSize*i:]
		n := int(binary.LittleEndian.Uint32(r))
		binary.LittleEndian.PutUint32(r[8:], hdf.Checksum(blob[off:off+n]))
		off += n
	}
	binary.LittleEndian.PutUint32(blob[8:], hdf.Checksum(blob[headerSize:HeaderSize(nf)]))
}

// TestGoldenBlob pins the blob format: the golden blob decodes to the entry
// it describes and re-encodes to itself.
func TestGoldenBlob(t *testing.T) {
	blob := goldenBlob(t)
	c, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Files) != 1 || c.Files[0] != "snap_s000.rhdf" || len(c.Entries) != 1 {
		t.Fatalf("decoded %+v", c)
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
}

// TestDecodeRefusesCRCLessEntry: a catalog entry, like the directory entry
// it copies, must carry its CRC; one whose flags lack the CRC bit is refused
// even under valid section and header checksums.
func TestDecodeRefusesCRCLessEntry(t *testing.T) {
	blob := goldenBlob(t)
	flags := HeaderSize(1) + 2 + len("snap_s000.rhdf") + 10 + 2 + len("/fluid/pane000001/pressure") + 1
	blob[flags] &^= 2
	reseal(blob)
	if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), "carries no CRC") {
		t.Fatalf("Decode of an entry without its CRC bit: %v", err)
	}
}

// FuzzCatalogDecode feeds arbitrary bytes to Decode: malformed blobs must
// come back as errors, never panics or hangs, and any blob that decodes
// must re-encode to something that decodes again (the catalog is the
// restart path's map — a crash here would turn recoverable corruption into
// an unrecoverable one).
func FuzzCatalogDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RCAT"))
	f.Add([]byte("RCAT\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("RCAT\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
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
	// ... and past every section's: one resealed flip in the file table,
	// the pane index and the run, each a blob whose checksums all hold.
	for _, i := range []int{HeaderSize(1) + 3, HeaderSize(1) + 16 + 3, HeaderSize(1) + 16 + 10 + 5, len(valid) - 1} {
		m := append([]byte(nil), valid...)
		m[i] ^= 0x40
		reseal(m)
		f.Add(m)
	}
	two := twoFileBlob(f, 4, 2)
	f.Add(two)
	f.Add(two[:len(two)-1])

	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := Decode(blob)
		if err != nil {
			return
		}
		if _, err := Decode(c.Encode()); err != nil {
			t.Fatalf("decoded catalog failed to round-trip: %v", err)
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
