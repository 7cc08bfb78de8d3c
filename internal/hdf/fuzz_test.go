package hdf

// FuzzReaderOpen throws arbitrary bytes at the RHDF reader. The invariant
// is total: for any input, Open either fails with an error or yields a
// reader whose every dataset can be ReadData'd (possibly to a checksum
// error) — no panics, no runaway allocations. CI runs this as a short
// smoke (-fuzz=FuzzReaderOpen -fuzztime=20s) on top of the checked-in
// seed corpus executed by plain `go test`.

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"genxio/internal/rt"
)

// legacyV2Path is legacyV2Image on disk, for the tests of the packages that
// index RHDF files (catalog, snapshot).
const legacyV2Path = "testdata/legacy_v2.rhdf"

// legacyV2Image is a hand-built version-2 RHDF file: the layout before the
// per-entry CRC, so no directory entry has a CRC field. It holds a pane
// dataset with an attribute, a two-dimensional pane dataset, and a non-pane
// "_meta" marker.
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

// TestLegacyV2Image: the checked-in legacy file is legacyV2Image, and the
// reader takes it as version 2 — no dataset has a CRC, every value reads
// back.
func TestLegacyV2Image(t *testing.T) {
	img := legacyV2Image()
	if disk, err := os.ReadFile(legacyV2Path); err != nil || !bytes.Equal(disk, img) {
		t.Fatalf("%s is not legacyV2Image (%v)", legacyV2Path, err)
	}
	fsys := rt.NewMemFS()
	f, _ := fsys.Create("v2.rhdf")
	f.WriteAt(img, 0)
	f.Close()
	r, err := Open(fsys, "v2.rhdf", rt.NewWallClock(), NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := map[string][]byte{
		"/fluid/pane000001/pressure": F64Bytes([]float64{1, 2}),
		"/fluid/pane000001/_coords":  F64Bytes([]float64{1, 2, 4}),
		"_meta":                      {7},
	}
	for _, d := range r.Datasets() {
		got, err := r.ReadData(d)
		if _, has := d.CRC(); has || err != nil || !bytes.Equal(got, want[d.Name]) {
			t.Errorf("%s: crc %v, read %v (%v), want %v", d.Name, has, got, err, want[d.Name])
		}
	}
	if a, ok := r.Datasets()[0].Attr("units"); !ok || a.Str() != "Pa" || len(r.Datasets()) != 3 {
		t.Fatalf("datasets %v", r.Names())
	}
}

func FuzzReaderOpen(f *testing.F) {
	// Seeds: a pristine v3 file, a legacy v2 image, truncations, and noise.
	fsys, clock := rt.NewMemFS(), rt.NewWallClock()
	w, err := Create(fsys, "seed.rhdf", clock, NullProfile())
	if err != nil {
		f.Fatal(err)
	}
	if err := w.CreateDataset("fluid.1.p", F64, []int64{3}, []Attr{StrAttr("units", "Pa")}, F64Bytes([]float64{1, 2, 3})); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	file, err := fsys.Open("seed.rhdf")
	if err != nil {
		f.Fatal(err)
	}
	sz, _ := file.Size()
	seed := make([]byte, sz)
	file.ReadAt(seed, 0)
	file.Close()

	f.Add(seed)
	f.Add(seed[:headerSize])
	f.Add(seed[:len(seed)-5])
	f.Add([]byte(Magic))
	f.Add([]byte("not an rhdf file"))
	f.Add([]byte{})
	f.Add(legacyV2Image())

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
			r.ReadData(d) // must not panic; errors are fine
		}
	})
}
