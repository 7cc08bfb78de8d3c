package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/rt"
)

// rhdfImage writes sets (name → dims) as an RHDF file and returns its bytes.
func rhdfImage(t testing.TB, sets map[string][]int64) []byte {
	t.Helper()
	fsys := rt.NewMemFS()
	w, err := hdf.Create(fsys, "img.rhdf", rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for name, dims := range sets {
		n := int64(1)
		for _, d := range dims {
			n *= d
		}
		attrs := []hdf.Attr{hdf.StrAttr("location", "node"), hdf.I32Attr("extent", 1, 2, 3)}
		if err := w.CreateDataset(name, hdf.U8, dims, attrs, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := hdf.ReadFile(fsys, "img.rhdf")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// dirOf splits an RHDF image into FuzzDirSplice's inputs: the directory
// bytes and the header facts they are checked against.
func dirOf(img []byte) (dir []byte, count uint32, dataLen uint16) {
	dirOff := binary.LittleEndian.Uint64(img[8:])
	return img[dirOff:], binary.LittleEndian.Uint32(img[16:]), uint16(dirOff - uint64(hdf.HeaderSize()))
}

// fileWith is an RHDF file around dir: the header states count and a
// directory offset past dataLen zero data bytes.
func fileWith(dir []byte, count uint32, dataLen uint16) []byte {
	img := []byte(hdf.Magic)
	img = binary.LittleEndian.AppendUint32(img, hdf.Version)
	img = binary.LittleEndian.AppendUint64(img, uint64(hdf.HeaderSize())+uint64(dataLen))
	img = binary.LittleEndian.AppendUint32(img, count)
	img = append(img, make([]byte, 4+int(dataLen))...)
	return append(img, dir...)
}

// FuzzDirSplice: for any directory bytes and header facts, the splice
// accepts exactly what the materializing reader (hdf.ScanDir) accepts whose
// entries end the directory — the catalog records a directory's exact
// length, where the reader takes any bytes after the last entry (a torn
// append leaves its data there) — and its blob is the one AddFile and
// Encode make of the decoded datasets. A refused directory adds nothing:
// the intact file spliced before it is the whole blob. Each directory's
// report (Record) is made exactly when the splice accepts it, survives its
// wire form, and splices (Add) to the same blob.
func FuzzDirSplice(f *testing.F) {
	v3 := rhdfImage(f, map[string][]int64{
		"/fluid/pane000001/pressure": {4},
		"/fluid/pane000001/_coords":  {2, 3},
		"/solid/pane000007/_conn":    {1, 2, 2},
		"_meta":                      {1},
	})
	small := rhdfImage(f, map[string][]int64{"/fluid/pane000001/pressure": {2}})
	for _, img := range [][]byte{v3, small} {
		dir, count, dataLen := dirOf(img)
		f.Add(dir, count, dataLen)
		f.Add(dir, count+1, dataLen)
		f.Add(dir, count, dataLen-1)
		f.Add(dir[:len(dir)-1], count, dataLen)
		// The first entry without its CRC bit: the reader refuses it, so
		// the splice must too.
		dir = bytes.Clone(dir)
		dir[4+2+int(binary.LittleEndian.Uint16(dir[4:]))+1] &^= 2
		f.Add(dir, count, dataLen)
	}
	// small's entry in the old version-2 layout, with no CRC field: refused.
	dir, count, dataLen := dirOf(small)
	crcAt := 4 + 2 + len("/fluid/pane000001/pressure") + 3 + 8 + 16
	dir = append(bytes.Clone(dir[:crcAt]), dir[crcAt+4:]...)
	dir[4+2+len("/fluid/pane000001/pressure")+1] = 0
	f.Add(dir, count, dataLen)
	f.Add([]byte{}, uint32(0), uint16(0))
	f.Add([]byte{0, 0, 0, 0}, uint32(0), uint16(0))
	// A directory with bytes after its last entry: the reader's, not the
	// catalog's.
	dir, count, dataLen = dirOf(small)
	f.Add(append(bytes.Clone(dir), 0, 0, 0), count, dataLen)
	f.Add([]byte{0, 0, 0, 0, 0}, uint32(0), uint16(0))
	intact := rhdfImage(f, map[string][]int64{"/fluid/pane000002/pressure": {2}})

	f.Fuzz(func(t *testing.T, dir []byte, count uint32, dataLen uint16) {
		fsys := rt.NewMemFS()
		for name, img := range map[string][]byte{"a.rhdf": intact, "b.rhdf": fileWith(dir, count, dataLen)} {
			if err := hdf.PublishFile(fsys, name, img); err != nil {
				t.Fatal(err)
			}
		}
		ref := &Catalog{}
		var s, viaReports Splice
		for _, name := range []string{"a.rhdf", "b.rhdf"} {
			_, _, sets, refErr := hdf.ScanDir(fsys, name)
			d, err := hdf.ReadRawDir(fsys, name)
			if refErr == nil {
				n := 4
				for _, ds := range sets {
					n += len(ds.AppendDirEntry(nil))
				}
				if n != len(d.Bytes) {
					refErr = fmt.Errorf("%d bytes after the last entry", len(d.Bytes)-n)
				}
			}
			var r Report
			rerr := err
			if err == nil {
				err = s.AddDir(d)
				r, rerr = Record(d)
			}
			if (err == nil) != (refErr == nil) || (rerr == nil) != (refErr == nil) {
				t.Fatalf("%s: splice says %v, its report %v, the reader %v", name, err, rerr, refErr)
			}
			if rerr == nil {
				rs, derr := DecodeReports(AppendReports(nil, []Report{r}))
				if derr != nil {
					t.Fatalf("%s: the report does not survive its wire form: %v", name, derr)
				}
				if err := viaReports.Add(rs[0]); err != nil {
					t.Fatalf("%s: the splice refuses the directory's own report: %v", name, err)
				}
			}
			if refErr == nil {
				ref.AddFile(name, sets)
			}
		}
		if got, want := s.Blob(), ref.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("spliced blob differs from the encoded catalog:\n got %x\nwant %x", got, want)
		}
		if got, want := viaReports.Blob(), s.Blob(); !bytes.Equal(got, want) {
			t.Fatalf("the blob spliced from reports differs from the one spliced from directories:\n got %x\nwant %x", got, want)
		}
	})
}

// TestSpliceAllocations: splicing a directory costs a fixed number of
// allocations however many entries it holds — none per entry.
func TestSpliceAllocations(t *testing.T) {
	allocs := func(n int) float64 {
		sets := make(map[string][]int64, n)
		for i := range n {
			sets[fmt.Sprintf("/fluid/pane%06d/pressure", i)] = []int64{1}
		}
		img := rhdfImage(t, sets)
		dir, count, _ := dirOf(img)
		d := hdf.RawDir{Name: "f.rhdf", Size: int64(len(img)), Count: int(count), Bytes: dir}
		return testing.AllocsPerRun(5, func() {
			var s Splice
			if err := s.AddDir(d); err != nil || s.npanes != n {
				t.Fatalf("spliced %d of %d panes: %v", s.npanes, n, err)
			}
			s.Blob()
		})
	}
	if few, many := allocs(48), allocs(4800); many != few || many > 8 {
		t.Fatalf("splicing 48 entries allocates %.0f times, 4800 entries %.0f", few, many)
	}
}
