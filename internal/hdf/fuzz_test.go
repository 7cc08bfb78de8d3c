package hdf

// FuzzReaderOpen throws arbitrary bytes at the RHDF reader. The invariant
// is total: for any input, Open either fails with an error or yields a
// reader whose every dataset can be ReadData'd (possibly to a checksum
// error) — no panics, no runaway allocations — and every dataset ReadData
// accepts has stored bytes matching its recorded CRC. CI runs this as a
// short smoke (-fuzz=FuzzReaderOpen -fuzztime=20s) on top of the checked-in
// seed corpus executed by plain `go test`.

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"genxio/internal/rt"
)

// seedImage is a pristine file of one dataset, fluid.1.p: three float64s at
// offset headerSize, with an attribute.
func seedImage(t testing.TB) []byte {
	t.Helper()
	fsys := rt.NewMemFS()
	w, err := Create(fsys, "seed.rhdf", rt.NewWallClock(), NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("fluid.1.p", F64, []int64{3}, []Attr{StrAttr("units", "Pa")}, F64Bytes([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := ReadFile(fsys, "seed.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// crcLessImage is seedImage's one dataset as no writer leaves it: bit 1 of
// its entry's flags byte (the CRC bit) cleared and one payload byte flipped,
// so only the CRC the entry still records could show the damage.
func crcLessImage(t testing.TB) []byte {
	img := seedImage(t)
	dirOff := binary.LittleEndian.Uint64(img[8:])
	name := uint64(binary.LittleEndian.Uint16(img[dirOff+4:]))
	img[dirOff+4+2+name+1] &^= flagHasCRC // count, name, type: the flags byte
	img[headerSize] ^= 0x01
	return img
}

// legacyV2Image is a version-2 RHDF file, the layout before the per-entry
// CRC: no directory entry has a CRC field. It holds a pane dataset with an
// attribute, a two-dimensional pane dataset, and a non-pane "_meta" marker.
func legacyV2Image() []byte {
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	str := func(s string) []byte { return AppendStr(nil, s) }
	return bytes.Join([][]byte{
		// header: magic, version 2, directory offset (24 + 16 + 24 + 1 data
		// bytes), 3 datasets, reserved
		[]byte(Magic), {2, 0, 0, 0}, u64(65), {3, 0, 0, 0}, {0, 0, 0, 0},
		// data: pressure @24, _coords @40, _meta @64
		F64Bytes([]float64{1, 2}), F64Bytes([]float64{1, 2, 4}), {7},
		// directory: the count, then per entry its name, type, flags, ndims,
		// dims, offset and length — no CRC — and its attributes
		{3, 0, 0, 0},
		str("/fluid/pane000001/pressure"), {byte(F64), 0, 1}, u64(2), u64(24), u64(16),
		{1, 0}, str("units"), {byte(U8)}, {2, 0, 0, 0}, []byte("Pa"),
		str("/fluid/pane000001/_coords"), {byte(F64), 0, 2}, u64(1), u64(3), u64(40), u64(24), {0, 0},
		str("_meta"), {byte(U8), 0, 1}, u64(1), u64(64), u64(1), {0, 0},
	}, nil)
}

// openImage opens img as an RHDF file.
func openImage(img []byte) (*Reader, error) {
	fsys := rt.NewMemFS()
	if err := PublishFile(fsys, "f.rhdf", img); err != nil {
		return nil, err
	}
	return Open(fsys, "f.rhdf", rt.NewWallClock(), NullProfile())
}

// TestReaderRefusesUncheckedPayloads: version 3 is the one layout, and every
// entry carries its CRC. A version-2 file fails with a version error, and a
// version-3 entry without the CRC bit fails Open, so the payload byte
// flipped under it is never handed back.
func TestReaderRefusesUncheckedPayloads(t *testing.T) {
	if r, err := openImage(legacyV2Image()); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 file: %v", err)
		if r != nil {
			r.Close()
		}
	}
	r, err := openImage(crcLessImage(t))
	if err == nil {
		defer r.Close()
		for _, d := range r.Datasets() {
			data, err := r.ReadData(d)
			t.Errorf("%s: a CRC-less entry opened, and ReadData returned %v (%v)", d.Name, BytesF64(data), err)
		}
		return
	}
	if !strings.Contains(err.Error(), "carries no CRC") {
		t.Fatalf("CRC-less entry refused for another reason: %v", err)
	}
	if r, err := openImage(seedImage(t)); err != nil {
		t.Fatalf("the intact file: %v", err)
	} else {
		r.Close()
	}
}

func FuzzReaderOpen(f *testing.F) {
	// Seeds: a pristine v3 file, one whose entry lost its CRC bit over a
	// damaged payload, a legacy v2 image, truncations, and noise.
	seed := seedImage(f)
	f.Add(seed)
	f.Add(seed[:headerSize])
	f.Add(seed[:len(seed)-5])
	f.Add(crcLessImage(f))
	f.Add(legacyV2Image())
	f.Add([]byte(Magic))
	f.Add([]byte("not an rhdf file"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := rt.NewMemFS()
		fl, _ := fsys.Create("f.rhdf")
		if len(data) > 0 {
			fl.WriteAt(data, 0)
		}
		fl.Close()
		r, err := Open(fsys, "f.rhdf", rt.NewWallClock(), NullProfile())
		if err != nil {
			return
		}
		defer r.Close()
		for _, d := range r.Datasets() {
			if _, err := r.ReadData(d); err != nil { // must not panic; errors are fine
				continue
			}
			stored := make([]byte, d.length)
			r.f.ReadAt(stored, d.offset)
			if got := Checksum(stored); got != d.crc {
				t.Fatalf("ReadData accepted %q, whose stored bytes have crc32c %08x, not the recorded %08x", d.Name, got, d.crc)
			}
		}
	})
}
