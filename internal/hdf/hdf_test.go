package hdf

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"genxio/internal/rt"
)

func newFile(t *testing.T) (rt.FS, rt.Clock) {
	t.Helper()
	return rt.NewMemFS(), rt.NewWallClock()
}

func TestWriteReadRoundTrip(t *testing.T) {
	fsys, clock := newFile(t)
	w, err := Create(fsys, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	coords := []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1}
	attrs := []Attr{
		StrAttr("units", "m"),
		F64Attr("time", 0.83),
		I32Attr("ghost", 1, 2),
	}
	if err := w.CreateDataset("/fluid/pane0001/coords", F64, []int64{4, 3}, attrs, F64Bytes(coords)); err != nil {
		t.Fatal(err)
	}
	press := []float32{101.3, 99.8}
	if err := w.CreateDataset("/fluid/pane0001/pressure", F32, []int64{2}, nil, F32Bytes(press)); err != nil {
		t.Fatal(err)
	}
	conn := []int32{0, 1, 2, 3}
	if err := w.CreateDataset("/fluid/pane0001/conn", I32, []int64{1, 4}, nil, I32Bytes(conn)); err != nil {
		t.Fatal(err)
	}
	if w.NumDatasets() != 3 {
		t.Fatalf("NumDatasets = %d", w.NumDatasets())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(fsys, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumDatasets() != 3 {
		t.Fatalf("reader NumDatasets = %d", r.NumDatasets())
	}
	ds, ok := r.Lookup("/fluid/pane0001/coords")
	if !ok {
		t.Fatal("coords not found")
	}
	if ds.Type != F64 || fmt.Sprint(ds.Dims) != "[4 3]" || ds.Len() != 12 {
		t.Fatalf("descriptor %+v", ds)
	}
	raw, err := r.ReadData(ds)
	if err != nil {
		t.Fatal(err)
	}
	got := BytesF64(raw)
	for i := range coords {
		if got[i] != coords[i] {
			t.Fatalf("coords[%d] = %v, want %v", i, got[i], coords[i])
		}
	}
	a, ok := ds.Attr("units")
	if !ok || a.Str() != "m" {
		t.Fatalf("units attr = %+v, %v", a, ok)
	}
	tm, _ := ds.Attr("time")
	if v := tm.F64s(); len(v) != 1 || v[0] != 0.83 {
		t.Fatalf("time attr = %v", v)
	}
	g, _ := ds.Attr("ghost")
	if v := g.I32s(); len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Fatalf("ghost attr = %v", v)
	}
	if _, ok := ds.Attr("missing"); ok {
		t.Fatal("found missing attr")
	}

	ps, ok := r.Lookup("/fluid/pane0001/pressure")
	if !ok {
		t.Fatal("pressure missing")
	}
	raw, _ = r.ReadData(ps)
	if p := BytesF32(raw); p[0] != 101.3 || p[1] != 99.8 {
		t.Fatalf("pressure = %v", p)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "d.rhdf", clock, NullProfile())
	if err := w.CreateDataset("x", U8, []int64{1}, nil, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("x", U8, []int64{1}, nil, []byte{2}); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
	w.Close()
}

func TestDimsMismatchRejected(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "m.rhdf", clock, NullProfile())
	if err := w.CreateDataset("x", F64, []int64{3}, nil, make([]byte, 16)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := w.CreateDataset("y", F64, []int64{-1}, nil, nil); err == nil {
		t.Fatal("negative dim accepted")
	}
	w.Close()
}

func TestWriteAfterCloseRejected(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "c.rhdf", clock, NullProfile())
	w.Close()
	if err := w.CreateDataset("x", U8, []int64{0}, nil, nil); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "e.rhdf", clock, NullProfile())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fsys, "e.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDatasets() != 0 {
		t.Fatalf("datasets = %d", r.NumDatasets())
	}
	r.Close()
}

func TestZeroLengthDataset(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "z.rhdf", clock, NullProfile())
	if err := w.CreateDataset("empty", F64, []int64{0, 3}, nil, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, _ := Open(fsys, "z.rhdf", clock, NullProfile())
	ds, ok := r.Lookup("empty")
	if !ok || ds.Len() != 0 || ds.NumBytes() != 0 {
		t.Fatalf("empty dataset %+v %v", ds, ok)
	}
	data, err := r.ReadData(ds)
	if err != nil || len(data) != 0 {
		t.Fatalf("read empty: %v %v", data, err)
	}
	r.Close()
}

func TestOpenAppend(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "ap.rhdf", clock, NullProfile())
	w.CreateDataset("first", I32, []int64{2}, nil, I32Bytes([]int32{1, 2}))
	w.Close()

	w2, err := OpenAppend(fsys, "ap.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumDatasets() != 1 {
		t.Fatalf("appender sees %d datasets", w2.NumDatasets())
	}
	if err := w2.CreateDataset("second", I32, []int64{1}, nil, I32Bytes([]int32{3})); err != nil {
		t.Fatal(err)
	}
	if err := w2.CreateDataset("first", I32, []int64{1}, nil, I32Bytes([]int32{9})); err == nil {
		t.Fatal("append allowed duplicate of pre-existing dataset")
	}
	w2.Close()

	r, _ := Open(fsys, "ap.rhdf", clock, NullProfile())
	defer r.Close()
	if r.NumDatasets() != 2 {
		t.Fatalf("after append: %d datasets", r.NumDatasets())
	}
	d1, _ := r.Lookup("first")
	raw, _ := r.ReadData(d1)
	if v := BytesI32(raw); v[0] != 1 || v[1] != 2 {
		t.Fatalf("first = %v", v)
	}
	d2, _ := r.Lookup("second")
	raw, _ = r.ReadData(d2)
	if v := BytesI32(raw); v[0] != 3 {
		t.Fatalf("second = %v", v)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	fsys, clock := newFile(t)
	f, _ := fsys.Create("bad")
	f.WriteAt([]byte("this is not an RHDF file at all......."), 0)
	f.Close()
	if _, err := Open(fsys, "bad", clock, NullProfile()); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unclosed file: header present, no directory.
	w, _ := Create(fsys, "unclosed", clock, NullProfile())
	w.CreateDataset("x", U8, []int64{1}, nil, []byte{1})
	// no Close
	if _, err := Open(fsys, "unclosed", clock, NullProfile()); err == nil {
		t.Fatal("directoryless file accepted")
	}
	if _, err := Open(fsys, "missing", clock, NullProfile()); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCorruptDirectoryDetected(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "corrupt", clock, NullProfile())
	w.CreateDataset("x", F64, []int64{4}, nil, F64Bytes([]float64{1, 2, 3, 4}))
	w.Close()
	// Truncate inside the directory.
	f, _ := fsys.Open("corrupt")
	sz, _ := f.Size()
	f.Truncate(sz - 5)
	f.Close()
	if _, err := Open(fsys, "corrupt", clock, NullProfile()); err == nil {
		t.Fatal("corrupt directory accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	fsys, clock := newFile(t)
	i := 0
	f := func(vals []float64, i32s []int32, aname string) bool {
		i++
		name := fmt.Sprintf("f%d.rhdf", i)
		aname = strings.ToValidUTF8(aname, "_")
		if len(aname) > 60000 {
			aname = aname[:60000]
		}
		w, err := Create(fsys, name, clock, NullProfile())
		if err != nil {
			return false
		}
		for j, v := range vals {
			if math.IsNaN(v) {
				vals[j] = 0
			}
		}
		attrs := []Attr{StrAttr("n", aname), I32Attr("vals", i32s...)}
		if err := w.CreateDataset("d", F64, []int64{int64(len(vals))}, attrs, F64Bytes(vals)); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := Open(fsys, name, clock, NullProfile())
		if err != nil {
			return false
		}
		defer r.Close()
		ds, ok := r.Lookup("d")
		if !ok {
			return false
		}
		raw, err := r.ReadData(ds)
		if err != nil {
			return false
		}
		got := BytesF64(raw)
		if len(got) != len(vals) {
			return false
		}
		for j := range got {
			if got[j] != vals[j] {
				return false
			}
		}
		a, _ := ds.Attr("n")
		b, _ := ds.Attr("vals")
		if a.Str() != aname || len(b.I32s()) != len(i32s) {
			return false
		}
		for j, v := range b.I32s() {
			if v != i32s[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConversionRoundTrips(t *testing.T) {
	if err := quick.Check(func(v []float64) bool {
		got := BytesF64(F64Bytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v []int32) bool {
		got := BytesI32(I32Bytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v []int64) bool {
		got := BytesI64(I64Bytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v []float32) bool {
		got := BytesF32(F32Bytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{F64: 8, F32: 4, I64: 8, I32: 4, U8: 1, DType(99): 0}
	for typ, want := range cases {
		if got := typ.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", typ, got, want)
		}
	}
	if F64.String() != "float64" || U8.String() != "uint8" {
		t.Error("DType.String names wrong")
	}
}

// countClock counts charged compute seconds, to verify cost-profile
// charging.
type countClock struct{ total float64 }

func (c *countClock) Now() float64      { return 0 }
func (c *countClock) Compute(d float64) { c.total += d }

func TestCostCharging(t *testing.T) {
	fsys := rt.NewMemFS()
	write := func(profile CostProfile, n int) float64 {
		clock := &countClock{}
		w, _ := Create(fsys, "cost_"+profile.Name, clock, profile)
		for i := 0; i < n; i++ {
			w.CreateDataset(fmt.Sprintf("d%04d", i), U8, []int64{1}, nil, []byte{0})
		}
		w.Close()
		return clock.total
	}
	const n = 400
	h4 := write(HDF4Profile(), n)
	h5 := write(HDF5Profile(), n)
	if h4 <= h5 {
		t.Fatalf("HDF4 create cost %v should exceed HDF5 %v at %d datasets", h4, h5, n)
	}
	// HDF4 must be superlinear: twice the datasets, more than twice the cost.
	h4half := write(HDF4Profile(), n/2)
	if h4 < 2.5*h4half {
		t.Fatalf("HDF4 cost not superlinear: %v vs %v at half size", h4, h4half)
	}
	// HDF5 should be close to linear.
	h5half := write(HDF5Profile(), n/2)
	if h5 > 2.5*h5half {
		t.Fatalf("HDF5 cost superlinear: %v vs %v at half size", h5, h5half)
	}
	if write(NullProfile(), n) != 0 {
		t.Fatal("null profile charged time")
	}
}

func TestLookupCostGrowth(t *testing.T) {
	p4, p5 := HDF4Profile(), HDF5Profile()
	if p4.LookupCost(1000) <= p4.LookupCost(10) {
		t.Fatal("HDF4 lookup cost not growing")
	}
	ratio4 := p4.LookupCost(2000) / p4.LookupCost(100)
	ratio5 := p5.LookupCost(2000) / p5.LookupCost(100)
	if ratio4 <= ratio5 {
		t.Fatalf("HDF4 growth ratio %v should exceed HDF5 %v", ratio4, ratio5)
	}
	if p4.OpenCost(100) <= 0 || p5.CreateCost(0) <= 0 {
		t.Fatal("base costs must be positive")
	}
}

func TestBinaryPortabilityGolden(t *testing.T) {
	// The format must be stable: a golden byte image written by the
	// current writer must match exactly, so files are portable across
	// machines (little-endian on disk regardless of host).
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "g.rhdf", clock, NullProfile())
	w.CreateDataset("g", I32, []int64{2}, []Attr{StrAttr("u", "K")}, I32Bytes([]int32{-1, 258}))
	w.Close()
	f, _ := fsys.Open("g.rhdf")
	sz, _ := f.Size()
	img := make([]byte, sz)
	f.ReadAt(img, 0)
	f.Close()

	want := []byte{
		'R', 'H', 'D', 'F', 3, 0, 0, 0, // magic, version
		32, 0, 0, 0, 0, 0, 0, 0, // dir offset = 24 + 8 data bytes
		1, 0, 0, 0, 0, 0, 0, 0, // 1 dataset + reserved
		0xff, 0xff, 0xff, 0xff, 2, 1, 0, 0, // -1, 258 little-endian
		1, 0, 0, 0, // dir: count=1
		1, 0, 'g', // name
		byte(I32), 2, 1, // type, flags (hasCRC), ndims
		2, 0, 0, 0, 0, 0, 0, 0, // dims[0]=2
		24, 0, 0, 0, 0, 0, 0, 0, // offset
		8, 0, 0, 0, 0, 0, 0, 0, // length
		0x00, 0x4e, 0xd9, 0xe5, // crc32c of the 8 stored bytes
		1, 0, // nattrs
		1, 0, 'u', // attr name
		byte(U8),
		1, 0, 0, 0, // attr len
		'K',
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("golden image mismatch:\n got %v\nwant %v", img, want)
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "z.rhdf", clock, NullProfile())
	w.Compress = true
	// Highly compressible payload.
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i % 8)
	}
	if err := w.CreateDataset("big", F64, []int64{4096}, nil, F64Bytes(vals)); err != nil {
		t.Fatal(err)
	}
	// Small dataset stays raw even with compression on.
	if err := w.CreateDataset("small", I32, []int64{2}, nil, I32Bytes([]int32{1, 2})); err != nil {
		t.Fatal(err)
	}
	// Incompressible data (already-compressed-looking) stays raw.
	noise := make([]byte, 4096)
	st := uint32(12345)
	for i := range noise {
		st = st*1664525 + 1013904223
		noise[i] = byte(st >> 24)
	}
	if err := w.CreateDataset("noise", U8, []int64{4096}, nil, noise); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sz, _ := fsys.Stat("z.rhdf")
	if sz >= 8*4096 {
		t.Fatalf("file %d bytes; compression saved nothing", sz)
	}

	r, err := Open(fsys, "z.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	big, _ := r.Lookup("big")
	if !big.Compressed() {
		t.Fatal("big dataset not compressed")
	}
	if big.NumBytes() >= 8*4096 {
		t.Fatalf("stored %d bytes, no savings", big.NumBytes())
	}
	raw, err := r.ReadData(big)
	if err != nil {
		t.Fatal(err)
	}
	got := BytesF64(raw)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("big[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	small, _ := r.Lookup("small")
	if small.Compressed() {
		t.Fatal("small dataset compressed despite threshold")
	}
	nz, _ := r.Lookup("noise")
	nraw, err := r.ReadData(nz)
	if err != nil {
		t.Fatal(err)
	}
	if string(nraw) != string(noise) {
		t.Fatal("noise corrupted")
	}
}

func TestCompressedCorruptionDetected(t *testing.T) {
	fsys, clock := newFile(t)
	w, _ := Create(fsys, "c.rhdf", clock, NullProfile())
	w.Compress = true
	vals := make([]float64, 2048)
	if err := w.CreateDataset("d", F64, []int64{2048}, nil, F64Bytes(vals)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Flip bytes inside the compressed stream.
	f, _ := fsys.Open("c.rhdf")
	f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 30)
	f.Close()
	r, err := Open(fsys, "c.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d, _ := r.Lookup("d")
	if _, err := r.ReadData(d); err == nil {
		t.Fatal("corrupted compressed stream read back without error")
	}
}

// TestDirectoryAttrsAreCappedViews: attribute values decoded from a file's
// directory alias the directory bytes, capacity-capped, so appending to one
// reallocates it and never overwrites the attribute or entry after it.
func TestDirectoryAttrsAreCappedViews(t *testing.T) {
	fsys, clock := newFile(t)
	w, err := Create(fsys, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for name, attrs := range map[string][]Attr{
		"x": {StrAttr("u", "ab"), StrAttr("v", "cd")},
		"y": {StrAttr("u", "ef")},
	} {
		if err := w.CreateDataset(name, U8, []int64{1}, attrs, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fsys, "a.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := make(map[string]string)
	for _, d := range r.Datasets() {
		for _, a := range d.Attrs {
			if cap(a.Data) != len(a.Data) {
				t.Fatalf("%s.%s has capacity %d past its length %d", d.Name, a.Name, cap(a.Data), len(a.Data))
			}
			want[d.Name+"."+a.Name] = a.Str()
		}
	}
	for _, d := range r.Datasets() {
		for _, a := range d.Attrs {
			_ = append(a.Data, "XXXX"...)
		}
	}
	for _, d := range r.Datasets() {
		for _, a := range d.Attrs {
			if got := a.Str(); got != want[d.Name+"."+a.Name] {
				t.Fatalf("%s.%s reads %q after appends to its neighbours, want %q", d.Name, a.Name, got, want[d.Name+"."+a.Name])
			}
		}
	}
}
