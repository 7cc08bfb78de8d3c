package hdf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"

	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Writer creates or extends an RHDF file. Datasets are appended
// sequentially; Publish writes the directory after the last of them,
// patches the header to point at it and closes the file. New files are
// staged under a temporary name and renamed into place only when Publish
// succeeds, so a crashed or failed write never replaces a previous snapshot
// file. Appends (OpenAppend) write past the existing directory and patch
// the header last, at Publish, so an interrupted append leaves the previous
// directory (and every dataset it describes) intact. A published file can
// be taken back for more datasets without reading it (Reopen): a new file
// goes back under its staged name and its next dataset overwrites the
// directory Publish wrote — the next Publish leaves the bytes of a file
// never published in between — and an appended one is appended to again.
//
// The directory is bytes from the first dataset: CreateDataset appends the
// dataset's entry, in AppendDirEntry's layout, to one buffer that Publish
// writes as it stands, so a dataset costs no descriptor, no copy of its dims
// or attributes and no deflate state of its own.
type Writer struct {
	f      rt.File
	fsys   rt.FS
	final  string // committed name; staged writes go to final+TmpSuffix
	staged bool   // true for Create (rename at Close), false for append
	clock  rt.Clock
	cost   CostProfile
	dir    []byte // u32 count (patched as the directory is written) | one entry per dataset
	count  int
	names  map[string]struct{}
	off    int64
	closed bool // Publish ran
	done   bool // Publish succeeded: the file is on disk under final, whole
	// current: the directory and header on disk describe every dataset
	// so far (Publish wrote them, and Reopen took the file back since).
	current bool

	// zw and zbuf are the writer's one deflate stream and its output,
	// Reset for each compressed dataset.
	zw   *flate.Writer
	zbuf bytes.Buffer

	// Compress stores subsequent datasets deflate-compressed (HDF's
	// gzip filter equivalent). Readers inflate transparently. Small
	// datasets (under 512 bytes) are stored raw regardless.
	Compress bool

	// Metrics, when set, receives hdf.datasets_written, hdf.bytes_written
	// (logical) and hdf.bytes_stored (post-compression) counters. A nil
	// registry is a no-op.
	Metrics *metrics.Registry
}

// TmpSuffix marks a staged file that has not been renamed into place yet.
// A *.rhdf.tmp left behind is an uncommitted write, never restart input.
const TmpSuffix = ".tmp"

// Create starts a new RHDF file named name on fsys. The bytes are staged
// at name+TmpSuffix and renamed to name only when Close succeeds, so an
// existing file under name survives any failure in between. Management
// overhead is charged to clock according to cost.
func Create(fsys rt.FS, name string, clock rt.Clock, cost CostProfile) (*Writer, error) {
	f, err := fsys.Create(name + TmpSuffix)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f:      f,
		fsys:   fsys,
		final:  name,
		staged: true,
		clock:  clock,
		cost:   cost,
		dir:    make([]byte, 4, 512),
		names:  make(map[string]struct{}),
		off:    headerSize,
	}
	// Reserve the header; the directory offset is patched by Publish.
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenAppend opens an existing RHDF file for appending more datasets. New
// data land after the old directory, which stays valid until Close patches
// the header to the new one — the commit point of the append. The new
// directory starts as the entries Open's walk accepted, each re-appended as
// stored.
func OpenAppend(fsys rt.FS, name string, clock rt.Clock, cost CostProfile) (*Writer, error) {
	r, err := Open(fsys, name, clock, cost)
	if err != nil {
		return nil, err
	}
	size, err := r.f.Size()
	if err != nil {
		r.f.Close()
		return nil, err
	}
	w := &Writer{
		f:     r.f,
		fsys:  fsys,
		final: name,
		clock: clock,
		cost:  cost,
		dir:   make([]byte, 4, 512),
		count: len(r.sets),
		names: make(map[string]struct{}, len(r.sets)),
		off:   size,
	}
	for _, d := range r.sets {
		w.dir = d.AppendDirEntry(w.dir)
		w.names[d.Name] = struct{}{}
	}
	return w, nil
}

// NumDatasets returns the number of datasets written so far.
func (w *Writer) NumDatasets() int { return w.count }

// CreateDataset appends a dataset with raw little-endian data. The element
// count implied by dims must match len(data)/typ.Size(). Dataset names must
// be unique within a file, and the name, the number of dims and attributes
// and each attribute must fit the directory's field widths.
func (w *Writer) CreateDataset(name string, typ DType, dims []int64, attrs []Attr, data []byte) error {
	if w.closed {
		return fmt.Errorf("hdf: write to closed writer %s", w.final)
	}
	if _, dup := w.names[name]; dup {
		return fmt.Errorf("hdf: duplicate dataset %q in %s", name, w.final)
	}
	if err := checkEncodable(name, dims, attrs); err != nil {
		return err
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
	// Charge the library's dataset-management overhead (DD-list upkeep in
	// HDF4 terms) before the transfer itself.
	w.clock.Compute(w.cost.CreateCost(w.count))
	flags := uint8(flagHasCRC)
	stored := data
	if w.Compress && len(data) >= 512 {
		z, err := w.deflate(data)
		if err != nil {
			return err
		}
		if len(z) < len(data) {
			stored = z
			flags |= flagDeflate
		}
	}
	// Any write attempt, even a short one that fails, may cover the
	// directory a Publish wrote before a Reopen, so it is no longer current.
	w.current = false
	if _, err := w.f.WriteAt(stored, w.off); err != nil {
		return fmt.Errorf("hdf: writing %q: %w", name, err)
	}
	w.dir = appendEntry(w.dir, name, typ, flags, dims, w.off, int64(len(stored)), Checksum(stored), attrs)
	w.names[name] = struct{}{}
	w.count++
	w.off += int64(len(stored))
	w.Metrics.Counter("hdf.datasets_written").Inc()
	w.Metrics.Counter("hdf.bytes_written").Add(int64(len(data)))
	w.Metrics.Counter("hdf.bytes_stored").Add(int64(len(stored)))
	return nil
}

// checkEncodable refuses a dataset whose directory entry AppendDirEntry's
// field widths cannot hold — a u16 name length, a u8 rank, a u16 attribute
// count and, per attribute, a u16 name length and a u32 value length —
// rather than truncate a field and publish a directory no reader accepts.
func checkEncodable(name string, dims []int64, attrs []Attr) error {
	switch {
	case len(name) > math.MaxUint16:
		return fmt.Errorf("hdf: dataset name of %d bytes, at most %d fit", len(name), math.MaxUint16)
	case len(dims) > math.MaxUint8:
		return fmt.Errorf("hdf: dataset %q has %d dims, at most %d fit", name, len(dims), math.MaxUint8)
	case len(attrs) > math.MaxUint16:
		return fmt.Errorf("hdf: dataset %q has %d attributes, at most %d fit", name, len(attrs), math.MaxUint16)
	}
	for _, a := range attrs {
		if len(a.Name) > math.MaxUint16 {
			return fmt.Errorf("hdf: dataset %q attribute name of %d bytes, at most %d fit", name, len(a.Name), math.MaxUint16)
		}
		if uint64(len(a.Data)) > math.MaxUint32 {
			return fmt.Errorf("hdf: dataset %q attribute %q of %d bytes, at most %d fit", name, a.Name, len(a.Data), uint64(math.MaxUint32))
		}
	}
	return nil
}

// deflate compresses data through the writer's one flate stream into its
// one output buffer; Reset leaves the stream as flate.NewWriter would, so
// the bytes are a fresh writer's. The result is valid until the next call.
func (w *Writer) deflate(data []byte) ([]byte, error) {
	w.zbuf.Reset()
	if w.zw == nil {
		zw, err := flate.NewWriter(&w.zbuf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		w.zw = zw
	} else {
		w.zw.Reset(&w.zbuf)
	}
	if _, err := w.zw.Write(data); err != nil {
		return nil, err
	}
	if err := w.zw.Close(); err != nil {
		return nil, err
	}
	return w.zbuf.Bytes(), nil
}

// Close is Publish for a caller that needs only the outcome.
func (w *Writer) Close() error {
	_, err := w.Publish()
	return err
}

// writeDir writes the directory at w.off, truncates the file after it and
// patches the header to point at it: the one place the file's end is laid
// out.
func (w *Writer) writeDir() error {
	binary.LittleEndian.PutUint32(w.dir, uint32(w.count))
	if _, err := w.f.WriteAt(w.dir, w.off); err != nil {
		return fmt.Errorf("hdf: writing directory: %w", err)
	}
	if err := w.f.Truncate(w.off + int64(len(w.dir))); err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(w.off))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(w.count))
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("hdf: patching header: %w", err)
	}
	return nil
}

// Publish writes the directory and patches the header (unless they are
// current: a Reopen with no dataset since), closes the file, and — for
// newly created files — renames the staged bytes into place, returning what
// it put on disk. Any failure before the rename leaves the previous file
// (if one existed) untouched, with the staged *.tmp orphan as the only
// residue. A writer publishes once per open; later calls return the zero
// report.
func (w *Writer) Publish() (Published, error) {
	if w.closed {
		return Published{}, nil
	}
	w.closed = true
	if !w.current {
		if err := w.writeDir(); err != nil {
			w.f.Close()
			return Published{}, err
		}
	}
	if err := w.f.Close(); err != nil {
		return Published{}, err
	}
	if w.staged {
		if err := w.fsys.Rename(w.final+TmpSuffix, w.final); err != nil {
			return Published{}, fmt.Errorf("hdf: committing %s: %w", w.final, err)
		}
	}
	w.done, w.current = true, true
	dir := w.dir[:len(w.dir):len(w.dir)]
	return Published{Name: w.final, Size: w.off + int64(len(dir)), Count: w.count, Dir: dir}, nil
}

// Closed reports whether Publish has run since the writer was opened or
// reopened, whether or not it succeeded.
func (w *Writer) Closed() bool { return w.closed }

// Reopen takes a file this writer published back for more datasets, from
// what the writer holds: no byte of the file is read. A created file goes
// back under its staged name — until the next Publish no reader takes it
// for a whole file — and the next dataset overwrites the directory Publish
// wrote, so the next Publish leaves the bytes of a file never published in
// between. An append's header patch is its commit point, so an appended
// file is reopened in place and written past its directory, which stays
// the file's until the next Publish — the bytes OpenAppend would write. A
// writer whose Publish failed does not reopen: it may have left no file
// under the final name.
func (w *Writer) Reopen() error {
	if !w.closed || !w.done {
		return fmt.Errorf("hdf: reopen of %s, which is not published", w.final)
	}
	name := w.final
	if w.staged {
		if err := w.fsys.Rename(name, name+TmpSuffix); err != nil {
			return fmt.Errorf("hdf: reopening %s: %w", w.final, err)
		}
		name += TmpSuffix
	}
	f, err := w.fsys.Open(name)
	if err != nil {
		return fmt.Errorf("hdf: reopening %s: %w", w.final, err)
	}
	if !w.staged {
		w.off += int64(len(w.dir))
		w.current = false
	}
	w.f, w.closed, w.done = f, false, false
	return nil
}

// AppendDirEntry appends d's directory entry in the version-3 layout, the
// form an RHDF directory and a block-catalog blob share:
//
//	str name | u8 type | u8 flags | u8 ndims | u64 dims... |
//	u64 offset | u64 length | u32 crc |
//	u16 nattrs | { str name | u8 type | u32 len | bytes }...
func (d *Dataset) AppendDirEntry(b []byte) []byte {
	return appendEntry(b, d.Name, d.Type, d.flags, d.Dims, d.offset, d.length, d.crc, d.Attrs)
}

// appendEntry is AppendDirEntry over the entry's fields, which CreateDataset
// has as arguments rather than as a Dataset.
func appendEntry(b []byte, name string, typ DType, flags uint8, dims []int64, offset, length int64, crc uint32, attrs []Attr) []byte {
	b = AppendStr(b, name)
	b = append(b, byte(typ), flags, byte(len(dims)))
	for _, dim := range dims {
		b = binary.LittleEndian.AppendUint64(b, uint64(dim))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(length))
	b = binary.LittleEndian.AppendUint32(b, crc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(attrs)))
	for _, a := range attrs {
		b = AppendStr(b, a.Name)
		b = append(b, byte(a.Type))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Data)))
		b = append(b, a.Data...)
	}
	return b
}
