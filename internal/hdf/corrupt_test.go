package hdf

// Hardening tests: hand-corrupted headers and directories must come back
// as errors with file context — never panics, never absurd allocations —
// and payload damage must surface as ErrChecksum.

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// validFileBytes writes a small committed RHDF file and returns its raw
// bytes for mutation.
func validFileBytes(t *testing.T) []byte {
	t.Helper()
	fsys, clock := newFile(t)
	w, err := Create(fsys, "v.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("fluid.1.p", F64, []int64{4}, []Attr{F64Attr("time", 0.5)}, F64Bytes([]float64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("fluid.1.T", F64, []int64{2}, nil, F64Bytes([]float64{300, 301})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("v.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, _ := f.Size()
	b := make([]byte, sz)
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

func openRaw(t *testing.T, b []byte) error {
	t.Helper()
	fsys := rt.NewMemFS()
	f, _ := fsys.Create("m.rhdf")
	if len(b) > 0 {
		if _, err := f.WriteAt(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	r, err := Open(fsys, "m.rhdf", rt.NewWallClock(), NullProfile())
	if err == nil {
		r.Close()
	}
	return err
}

func TestCorruptHeaderRejected(t *testing.T) {
	valid := validFileBytes(t)
	// Sanity: the unmutated bytes open cleanly.
	if err := openRaw(t, valid); err != nil {
		t.Fatalf("pristine copy rejected: %v", err)
	}
	dirOff := binary.LittleEndian.Uint64(valid[8:])

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:headerSize-7] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0)
			return b
		}},
		{"version from the future", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], Version+1)
			return b
		}},
		{"directory offset zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 0)
			return b
		}},
		{"directory offset before header end", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], headerSize-1)
			return b
		}},
		{"directory offset past EOF", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(len(b))+100)
			return b
		}},
		{"directory offset wraps negative", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<63)
			return b
		}},
		{"absurd dataset count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 0xfffffff)
			return b
		}},
		{"count disagrees with directory", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 1)
			return b
		}},
		{"truncated directory", func(b []byte) []byte { return b[:len(b)-3] }},
		{"directory count inflated", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[dirOff:], 0x7fffffff)
			return b
		}},
		{"dataset offset outside data region", func(b []byte) []byte {
			// First entry layout: u32 count, u16 name len, name, u8 type,
			// u8 flags, u8 ndims, dims..., then u64 offset.
			p := dirOff + 4
			nameLen := uint64(binary.LittleEndian.Uint16(b[p:]))
			p += 2 + nameLen + 3 + 8 // name, type/flags/ndims, one dim
			binary.LittleEndian.PutUint64(b[p:], uint64(len(b))+1000)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			if err := openRaw(t, b); err == nil {
				t.Fatal("corrupt file accepted")
			}
		})
	}
}

// TestScanDirRejectsBadExtents: ScanDir and a writer's report
// (Published.Raw, through Walk) feed the snapshot commit — their extents become the
// catalog's, whose run lengths size restart buffers — so both must refuse
// what Open refuses: an extent outside the data region, a negative
// dimension, a count the header does not state.
func TestScanDirRejectsBadExtents(t *testing.T) {
	valid := validFileBytes(t)
	dirOff := binary.LittleEndian.Uint64(valid[8:])
	// First entry layout: u32 count, u16 name len, name, u8 type, u8 flags,
	// u8 ndims, dims..., u64 offset, u64 length.
	dim := dirOff + 4 + 2 + uint64(binary.LittleEndian.Uint16(valid[dirOff+4:])) + 3
	cases := []struct {
		name string
		at   uint64
		v    uint64
	}{
		{"offset past the directory", dim + 8, uint64(len(valid)) + 1000},
		{"length past the directory", dim + 16, 1 << 40},
		{"negative length", dim + 16, 1 << 63},
		{"negative dimension", dim, 1 << 63},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(b[tc.at:], tc.v)
			fsys := rt.NewMemFS()
			f, _ := fsys.Create("m.rhdf")
			if _, err := f.WriteAt(b, 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if _, _, sets, err := ScanDir(fsys, "m.rhdf"); err == nil {
				off, length := sets[0].Extent()
				t.Fatalf("ScanDir accepted dataset %q at [%d,+%d) dims %v in a %d-byte file",
					sets[0].Name, off, length, sets[0].Dims, len(b))
			}
			report := Published{Name: "m.rhdf", Size: int64(len(b)), Count: 2, Dir: b[dirOff:]}
			if err := report.Raw().Walk(func(*DirEntry) {}); err == nil {
				t.Fatal("a report of the same directory decoded")
			}
		})
	}
	if _, _, _, err := ScanDir(rt.NewMemFS(), "absent.rhdf"); !errors.Is(err, rt.ErrNotExist) {
		t.Fatalf("ScanDir of a missing file = %v, want rt.ErrNotExist", err)
	}

	// The undamaged report decodes to exactly what ScanDir reads; a report
	// that misstates the count or the size does not decode.
	report := Published{Name: "v.rhdf", Size: int64(len(valid)), Count: 2, Dir: valid[dirOff:]}
	fsys := rt.NewMemFS()
	f, _ := fsys.Create("v.rhdf")
	f.WriteAt(valid, 0)
	f.Close()
	size, crc, sets, err := ScanDir(fsys, "v.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	gotSets, err := report.Raw().Datasets()
	if gotSize, gotCRC := report.Size, Checksum(report.Dir); err != nil || gotSize != size || gotCRC != crc || !reflect.DeepEqual(gotSets, sets) {
		t.Fatalf("report decoded to %d bytes, crc %08x, %v (%v); ScanDir read %d, %08x, %v", gotSize, gotCRC, gotSets, err, size, crc, sets)
	}
	for name, bad := range map[string]Published{
		"count":          {Name: "v.rhdf", Size: report.Size, Count: 3, Dir: report.Dir},
		"size":           {Name: "v.rhdf", Size: report.Size - 8, Count: 2, Dir: report.Dir},
		"no data region": {Name: "v.rhdf", Size: int64(len(report.Dir)), Count: 2, Dir: report.Dir},
	} {
		if err := bad.Raw().Walk(func(*DirEntry) {}); err == nil {
			t.Errorf("a report with a wrong %s decoded", name)
		}
	}
}

// TestWriterReportsWhatItPublished: Publish returns what Close put on disk —
// the name, the size and the directory bytes — for a created file and for
// an append, so a report decodes to what ScanDir reads back.
func TestWriterReportsWhatItPublished(t *testing.T) {
	fsys, clock := newFile(t)
	for i, open := range []func() (*Writer, error){
		func() (*Writer, error) { return Create(fsys, "p.rhdf", clock, NullProfile()) },
		func() (*Writer, error) { return OpenAppend(fsys, "p.rhdf", clock, NullProfile()) },
	} {
		w, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset(string(rune('a'+i)), F64, []int64{2}, nil, F64Bytes([]float64{1, 2})); err != nil {
			t.Fatal(err)
		}
		p, err := w.Publish()
		if err != nil {
			t.Fatal(err)
		}
		size, crc, sets, err := ScanDir(fsys, "p.rhdf")
		if err != nil {
			t.Fatal(err)
		}
		gotSets, err := p.Raw().Datasets()
		if err != nil || p.Name != "p.rhdf" || p.Count != i+1 || p.Size != size || Checksum(p.Dir) != crc || !reflect.DeepEqual(gotSets, sets) {
			t.Fatalf("publish %d reported %+v (%v), the file reads %d bytes, crc %08x, %d sets", i, p, err, size, crc, len(sets))
		}
		if again, err := w.Publish(); err != nil || again.Name != "" {
			t.Fatalf("a second Publish reported %+v, %v", again, err)
		}
	}
}

// TestChecksumMismatchOnRead flips one payload bit: the directory still
// parses, so Open succeeds, but ReadData must fail with ErrChecksum and
// bump hdf.checksum_failures.
func TestChecksumMismatchOnRead(t *testing.T) {
	b := validFileBytes(t)
	b[headerSize+3] ^= 0x10 // inside the first dataset's payload

	fsys := rt.NewMemFS()
	f, _ := fsys.Create("flip.rhdf")
	f.WriteAt(b, 0)
	f.Close()

	reg := metrics.New()
	r, err := Open(fsys, "flip.rhdf", rt.NewWallClock(), NullProfile())
	if err != nil {
		t.Fatalf("payload damage must not fail Open (directory is intact): %v", err)
	}
	defer r.Close()
	r.Metrics = reg
	ds, ok := r.Lookup("fluid.1.p")
	if !ok {
		t.Fatal("dataset missing")
	}
	if ds.CRC() == 0 {
		t.Fatal("dataset carries no CRC")
	}
	_, err = r.ReadData(ds)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadData error = %v, want ErrChecksum", err)
	}
	for _, frag := range []string{"flip.rhdf", "fluid.1.p"} {
		if !contains(err.Error(), frag) {
			t.Fatalf("checksum error %q lacks context %q", err, frag)
		}
	}
	if got := reg.Counter("hdf.checksum_failures").Value(); got != 1 {
		t.Fatalf("hdf.checksum_failures = %d, want 1", got)
	}
	// The undamaged dataset still reads.
	ds2, _ := r.Lookup("fluid.1.T")
	if _, err := r.ReadData(ds2); err != nil {
		t.Fatalf("undamaged dataset unreadable: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCreateLeavesPreviousFileUntilCommit is the atomic-replace
// regression test: a new Create over an existing name stages at a
// temporary, so a crash (no Close) or a failed commit rename leaves the
// previous committed file bit-identical.
func TestCreateLeavesPreviousFileUntilCommit(t *testing.T) {
	fsys, clock := newFile(t)
	w, err := Create(fsys, "snap.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	old := F64Bytes([]float64{10, 20, 30})
	if err := w.CreateDataset("x", F64, []int64{3}, nil, old); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-rewrite: the writer stages at snap.rhdf.tmp and never
	// commits.
	w2, err := Create(fsys, "snap.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.CreateDataset("x", F64, []int64{1}, nil, F64Bytes([]float64{-1})); err != nil {
		t.Fatal(err)
	}
	// no Close — simulated crash

	r, err := Open(fsys, "snap.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatalf("previous generation unreadable after crashed rewrite: %v", err)
	}
	defer r.Close()
	ds, ok := r.Lookup("x")
	if !ok {
		t.Fatal("dataset gone")
	}
	got, err := r.ReadData(ds)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(old) {
		t.Fatal("previous file's data changed before the new one committed")
	}
	// The staged temporary is visible as residue, never under the final
	// name.
	if _, err := fsys.Open("snap.rhdf" + TmpSuffix); err != nil {
		t.Fatalf("staged temporary missing: %v", err)
	}
}
