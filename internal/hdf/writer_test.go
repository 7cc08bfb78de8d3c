package hdf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"genxio/internal/rt"
)

// refWriter is the writer as a list of dataset descriptors, copied and
// encoded into a directory only at Close — the design the byte directory
// replaced, with a fresh flate writer per dataset and a directory encoder
// of its own. FuzzWriterMatchesReference holds Writer to it byte for byte.
// It refuses what the directory layout cannot hold by its own rule.
type refWriter struct {
	f        rt.File
	fsys     rt.FS
	final    string
	staged   bool
	sets     []*Dataset
	names    map[string]int
	off      int64
	closed   bool
	compress bool
}

func refCreate(fsys rt.FS, name string) (*refWriter, error) {
	f, err := fsys.Create(name + TmpSuffix)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return nil, err
	}
	return &refWriter{f: f, fsys: fsys, final: name, staged: true, names: make(map[string]int), off: headerSize}, nil
}

func refOpenAppend(fsys rt.FS, name string) (*refWriter, error) {
	r, err := Open(fsys, name, rt.NewWallClock(), NullProfile())
	if err != nil {
		return nil, err
	}
	size, err := r.f.Size()
	if err != nil {
		return nil, err
	}
	w := &refWriter{f: r.f, fsys: fsys, final: name, sets: r.sets, names: make(map[string]int), off: size}
	for i, d := range r.sets {
		w.names[d.Name] = i
	}
	return w, nil
}

func (w *refWriter) CreateDataset(name string, typ DType, dims []int64, attrs []Attr, data []byte) error {
	if w.closed {
		return fmt.Errorf("hdf: write to closed writer %s", w.final)
	}
	if _, dup := w.names[name]; dup {
		return fmt.Errorf("hdf: duplicate dataset %q in %s", name, w.final)
	}
	const u8, u16, u32 = 1<<8 - 1, 1<<16 - 1, 1<<32 - 1
	switch {
	case len(name) > u16:
		return fmt.Errorf("hdf: dataset name of %d bytes, at most %d fit", len(name), u16)
	case len(dims) > u8:
		return fmt.Errorf("hdf: dataset %q has %d dims, at most %d fit", name, len(dims), u8)
	case len(attrs) > u16:
		return fmt.Errorf("hdf: dataset %q has %d attributes, at most %d fit", name, len(attrs), u16)
	}
	for _, a := range attrs {
		if len(a.Name) > u16 {
			return fmt.Errorf("hdf: dataset %q attribute name of %d bytes, at most %d fit", name, len(a.Name), u16)
		}
		if uint64(len(a.Data)) > u32 {
			return fmt.Errorf("hdf: dataset %q attribute %q of %d bytes, at most %d fit", name, a.Name, len(a.Data), uint64(u32))
		}
	}
	n := int64(1)
	for _, d := range dims {
		if d < 0 {
			return fmt.Errorf("hdf: negative dimension in %q", name)
		}
		n *= d
	}
	if sz := typ.Size(); sz == 0 || n*int64(sz) != int64(len(data)) {
		return fmt.Errorf("hdf: dataset %q dims %v x %s = %d bytes, got %d",
			name, dims, typ, n*int64(typ.Size()), len(data))
	}
	var flags uint8
	stored := data
	if w.compress && len(data) >= 512 {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		zw.Write(data)
		if err := zw.Close(); err != nil {
			return err
		}
		if buf.Len() < len(data) {
			stored = buf.Bytes()
			flags |= flagDeflate
		}
	}
	if _, err := w.f.WriteAt(stored, w.off); err != nil {
		return fmt.Errorf("hdf: writing %q: %w", name, err)
	}
	w.names[name] = len(w.sets)
	w.sets = append(w.sets, &Dataset{
		Name:   name,
		Type:   typ,
		Dims:   append([]int64(nil), dims...),
		Attrs:  append([]Attr(nil), attrs...),
		flags:  flags | flagHasCRC,
		offset: w.off,
		length: int64(len(stored)),
		crc:    Checksum(stored),
	})
	w.off += int64(len(stored))
	return nil
}

// Close writes the directory and the header and commits the file,
// returning the directory it wrote.
func (w *refWriter) Close() ([]byte, error) {
	if w.closed {
		return nil, nil
	}
	w.closed = true
	dir := binary.LittleEndian.AppendUint32(nil, uint32(len(w.sets)))
	for _, d := range w.sets {
		dir = AppendStr(dir, d.Name)
		dir = append(dir, byte(d.Type), d.flags, byte(len(d.Dims)))
		for _, dim := range d.Dims {
			dir = binary.LittleEndian.AppendUint64(dir, uint64(dim))
		}
		dir = binary.LittleEndian.AppendUint64(dir, uint64(d.offset))
		dir = binary.LittleEndian.AppendUint64(dir, uint64(d.length))
		dir = binary.LittleEndian.AppendUint32(dir, d.crc)
		dir = binary.LittleEndian.AppendUint16(dir, uint16(len(d.Attrs)))
		for _, a := range d.Attrs {
			dir = AppendStr(dir, a.Name)
			dir = append(dir, byte(a.Type))
			dir = binary.LittleEndian.AppendUint32(dir, uint32(len(a.Data)))
			dir = append(dir, a.Data...)
		}
	}
	if _, err := w.f.WriteAt(dir, w.off); err != nil {
		return nil, err
	}
	if err := w.f.Truncate(w.off + int64(len(dir))); err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(w.off))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(w.sets)))
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		return nil, err
	}
	if w.staged {
		if err := w.fsys.Rename(w.final+TmpSuffix, w.final); err != nil {
			return nil, err
		}
	}
	return dir, nil
}

// opStream turns fuzz bytes into the arguments of a writer op sequence;
// an exhausted stream reads zeros.
type opStream []byte

func (s *opStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// dataset draws one CreateDataset's arguments: a name from a small pool (so
// duplicates happen), any type byte, 0–3 dims and attributes, a payload
// that usually fits the dims, straddles 512 bytes and compresses or not,
// and now and then a field the directory layout cannot hold (or one that
// just fits).
func (s *opStream) dataset() (string, DType, []int64, []Attr, []byte) {
	names := [...]string{"a", "b", "/fluid/pane000001/pressure", "/fluid/pane000002/_coords", "_meta", ""}
	name := names[int(s.next())%len(names)]
	typ := DType(s.next() % 7)
	dims := make([]int64, s.next()%4)
	for i := range dims {
		dims[i] = int64(s.next() % 9)
		if dims[i] == 8 {
			dims[i] = -1
		}
	}
	if len(dims) > 0 && s.next()%2 == 0 && typ.Size() > 0 {
		// 448–575 bytes, either side of the deflate floor.
		dims[0] = int64(448+int(s.next()%128)) / int64(typ.Size())
		for i := 1; i < len(dims); i++ {
			dims[i] = 1
		}
	}
	attrs := make([]Attr, s.next()%4)
	for i := range attrs {
		attrs[i] = Attr{Name: names[int(s.next())%len(names)], Type: DType(s.next() % 7), Data: bytes.Repeat([]byte{s.next()}, int(s.next()%16))}
	}
	switch s.next() % 64 {
	case 0:
		name = strings.Repeat("n", math.MaxUint16+1)
	case 1:
		name = strings.Repeat("n", math.MaxUint16)
	case 2:
		dims = make([]int64, math.MaxUint8+1)
	case 3:
		dims = make([]int64, math.MaxUint8)
	case 4:
		attrs = make([]Attr, math.MaxUint16+1)
	case 5:
		attrs = append(attrs, Attr{Name: strings.Repeat("a", math.MaxUint16+1)})
	}
	for i := range dims {
		if len(dims) > 4 {
			dims[i] = 1
		}
	}
	size := int64(typ.Size())
	for _, d := range dims {
		size *= max(d, 0)
	}
	if s.next()%8 == 0 {
		size++
	}
	data := make([]byte, size)
	if seed := s.next(); seed%2 == 0 {
		for i := range data {
			data[i] = byte(i / 64) // compresses
		}
	} else {
		x := uint32(seed) | 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x) // does not
		}
	}
	return name, typ, dims, attrs, data
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzWriterMatchesReference: for any op sequence — CreateDataset with
// duplicate names, unencodable fields, 0–3 dims and attributes, payloads
// either side of the 512-byte deflate floor, Compress toggled, Publish +
// Reopen of a created file (which the reference does not have: a publish
// taken back must not show), and Close + OpenAppend midway — Writer returns the reference writer's error for every
// op, publishes the directory the reference encodes, and leaves the same
// file bytes, which Open accepts.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 2, 3, 1, 1, 0, 0, 1, 2, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 1, 1, 1, 0, 9, 1, 0, 0, 0, 0, 4, 6, 0, 2, 1, 2, 0, 0, 0, 0, 7})
	f.Add([]byte{0, 3, 5, 2, 0, 0, 0, 0, 6, 0, 0, 2, 3, 1, 0, 0, 1, 0, 3, 0})
	f.Add([]byte{0, 0, 1, 1, 3, 0, 0, 0, 0, 6, 0, 1, 1, 1, 3, 0, 1, 3, 0, 0, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		s := opStream(in)
		fsW, fsR := rt.NewMemFS(), rt.NewMemFS()
		clock := rt.NewWallClock()
		const file = "f.rhdf"
		w, err := Create(fsW, file, clock, NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refCreate(fsR, file)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 24 && len(s) > 0; op++ {
			switch s.next() % 8 {
			case 5:
				w.Compress = !w.Compress
				ref.compress = w.Compress
			case 7:
				if !w.staged {
					break // an append's header patch is its commit point: it does not reopen
				}
				if _, err := w.Publish(); err != nil {
					t.Fatalf("op %d: Publish: %v", op, err)
				}
				if err := w.Reopen(); err != nil {
					t.Fatalf("op %d: Reopen: %v", op, err)
				}
			case 6:
				p, err := w.Publish()
				dir, refErr := ref.Close()
				if errText(err) != errText(refErr) || !bytes.Equal(p.Dir, dir) || p.Count != len(ref.sets) {
					t.Fatalf("op %d: Publish reported %d entries, %d directory bytes (%v); the reference %d, %d (%v)",
						op, p.Count, len(p.Dir), err, len(ref.sets), len(dir), refErr)
				}
				compress := w.Compress
				if w, err = OpenAppend(fsW, file, clock, NullProfile()); err != nil {
					t.Fatalf("op %d: OpenAppend: %v", op, err)
				}
				if ref, err = refOpenAppend(fsR, file); err != nil {
					t.Fatalf("op %d: the reference's OpenAppend: %v", op, err)
				}
				w.Compress, ref.compress = compress, compress
				if w.NumDatasets() != len(ref.sets) {
					t.Fatalf("op %d: the appender sees %d datasets, the reference %d", op, w.NumDatasets(), len(ref.sets))
				}
			default:
				name, typ, dims, attrs, data := s.dataset()
				got, want := errText(w.CreateDataset(name, typ, dims, attrs, data)), errText(ref.CreateDataset(name, typ, dims, attrs, data))
				if got != want {
					t.Fatalf("op %d: CreateDataset(%.40q, %v, %d dims, %d attrs, %d bytes) = %.200s, the reference %.200s",
						op, name, typ, len(dims), len(attrs), len(data), got, want)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := ref.Close(); err != nil {
			t.Fatalf("the reference's Close: %v", err)
		}
		got, err := ReadFile(fsW, file)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReadFile(fsR, file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the writer left %d bytes, the reference %d, and they differ", len(got), len(want))
		}
		r, err := Open(fsW, file, clock, NullProfile())
		if err != nil {
			t.Fatalf("the writer published a file its reader refuses: %v", err)
		}
		r.Close()
	})
}

// TestCreateDatasetRefusesUnencodable: a dataset whose directory entry the
// layout cannot hold is refused when it is created, not truncated into a
// directory the reader then refuses; the file stays publishable, and a field
// at its limit still round-trips.
func TestCreateDatasetRefusesUnencodable(t *testing.T) {
	fsys, clock := newFile(t)
	w, err := Create(fsys, "u.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", math.MaxUint16+1)
	for _, c := range []struct {
		what  string
		name  string
		dims  []int64
		attrs []Attr
	}{
		{"a 65 536-byte name", long, []int64{1}, nil},
		{"256 dims", "dims", make([]int64, 256), nil},
		{"65 536 attributes", "attrs", []int64{1}, make([]Attr, math.MaxUint16+1)},
		{"a 65 536-byte attribute name", "attrname", []int64{1}, []Attr{{Name: long, Type: U8}}},
	} {
		for i := range c.dims {
			c.dims[i] = 1
		}
		if err := w.CreateDataset(c.name, U8, c.dims, c.attrs, []byte{7}); err == nil {
			t.Errorf("CreateDataset with %s accepted", c.what)
		}
	}
	atLimit := make([]int64, 255)
	for i := range atLimit {
		atLimit[i] = 1
	}
	if err := w.CreateDataset(long[1:], U8, atLimit, []Attr{{Name: long[1:], Type: U8, Data: []byte{1}}}, []byte{7}); err != nil {
		t.Fatalf("fields at their limits refused: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fsys, "u.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatalf("the published file does not open: %v", err)
	}
	defer r.Close()
	if d, ok := r.Lookup(long[1:]); !ok || len(d.Dims) != 255 || len(d.Attrs) != 1 || r.NumDatasets() != 1 {
		t.Fatalf("the file holds %d datasets; the one at the limits: %v", r.NumDatasets(), ok)
	}
}

// TestDeflateReuseMatchesFreshWriter: the writer's one flate stream, Reset
// per dataset, stores exactly the bytes a fresh flate writer produces for
// each dataset, whatever was compressed before it.
func TestDeflateReuseMatchesFreshWriter(t *testing.T) {
	fsys, clock := newFile(t)
	w, err := Create(fsys, "z.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	w.Compress = true
	payloads := make(map[string][]byte)
	for i, n := range []int{4096, 600, 100000, 512, 3000} {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(j/64) + byte(i)
		}
		name := fmt.Sprintf("d%d", i)
		payloads[name] = data
		if err := w.CreateDataset(name, U8, []int64{int64(n)}, nil, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fsys, "z.rhdf", clock, NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, d := range r.Datasets() {
		var fresh bytes.Buffer
		zw, _ := flate.NewWriter(&fresh, flate.BestSpeed)
		zw.Write(payloads[d.Name])
		zw.Close()
		off, n := d.Extent()
		stored := make([]byte, n)
		if _, err := r.f.ReadAt(stored, off); err != nil {
			t.Fatal(err)
		}
		if !d.Compressed() || !bytes.Equal(stored, fresh.Bytes()) {
			t.Fatalf("%s: stored %d bytes (compressed %v), a fresh writer makes %d", d.Name, len(stored), d.Compressed(), fresh.Len())
		}
	}
}
