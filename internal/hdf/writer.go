package hdf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"

	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Writer creates or extends an RHDF file. Datasets are appended
// sequentially; the directory is written at Close and the header patched to
// point at it. New files are staged under a temporary name and renamed into
// place only when Close succeeds, so a crashed or failed write never
// replaces a previous snapshot file; appends write past the existing
// directory and patch the header last, so an interrupted append leaves the
// previous directory (and every dataset it describes) intact.
type Writer struct {
	f      rt.File
	fsys   rt.FS
	final  string // committed name; staged writes go to final+TmpSuffix
	staged bool   // true for Create (rename at Close), false for append
	clock  rt.Clock
	cost   CostProfile
	sets   []*Dataset
	names  map[string]int
	off    int64
	closed bool

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
		names:  make(map[string]int),
		off:    headerSize,
	}
	// Reserve the header; the directory offset is patched at Close.
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
// the header to the new one — the commit point of the append.
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
		sets:  r.sets,
		names: make(map[string]int, len(r.sets)),
		off:   size,
	}
	for i, d := range r.sets {
		w.names[d.Name] = i
	}
	return w, nil
}

// NumDatasets returns the number of datasets written so far.
func (w *Writer) NumDatasets() int { return len(w.sets) }

// CreateDataset appends a dataset with raw little-endian data. The element
// count implied by dims must match len(data)/typ.Size(). Dataset names must
// be unique within a file.
func (w *Writer) CreateDataset(name string, typ DType, dims []int64, attrs []Attr, data []byte) error {
	if w.closed {
		return fmt.Errorf("hdf: write to closed writer %s", w.final)
	}
	if _, dup := w.names[name]; dup {
		return fmt.Errorf("hdf: duplicate dataset %q in %s", name, w.final)
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
	w.clock.Compute(w.cost.CreateCost(len(w.sets)))
	var flags uint8
	stored := data
	if w.Compress && len(data) >= 512 {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(data); err != nil {
			return err
		}
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
	ds := &Dataset{
		Name:   name,
		Type:   typ,
		Dims:   append([]int64(nil), dims...),
		Attrs:  append([]Attr(nil), attrs...),
		flags:  flags | flagHasCRC,
		offset: w.off,
		length: int64(len(stored)),
		crc:    Checksum(stored),
	}
	w.names[name] = len(w.sets)
	w.sets = append(w.sets, ds)
	w.off += int64(len(stored))
	w.Metrics.Counter("hdf.datasets_written").Inc()
	w.Metrics.Counter("hdf.bytes_written").Add(int64(len(data)))
	w.Metrics.Counter("hdf.bytes_stored").Add(int64(len(stored)))
	return nil
}

// Close is Publish for a caller that needs only the outcome.
func (w *Writer) Close() error {
	_, err := w.Publish()
	return err
}

// Publish writes the directory, patches the header, closes the file, and —
// for newly created files — renames the staged bytes into place, returning
// what it put on disk. Any failure before the rename leaves the previous
// file (if one existed) untouched, with the staged *.tmp orphan as the only
// residue. A writer publishes once; later calls return the zero report.
func (w *Writer) Publish() (Published, error) {
	if w.closed {
		return Published{}, nil
	}
	w.closed = true
	dir := encodeDir(w.sets)
	if _, err := w.f.WriteAt(dir, w.off); err != nil {
		w.f.Close()
		return Published{}, fmt.Errorf("hdf: writing directory: %w", err)
	}
	size := w.off + int64(len(dir))
	if err := w.f.Truncate(size); err != nil {
		w.f.Close()
		return Published{}, err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(w.off))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(w.sets)))
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		w.f.Close()
		return Published{}, fmt.Errorf("hdf: patching header: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return Published{}, err
	}
	if w.staged {
		if err := w.fsys.Rename(w.final+TmpSuffix, w.final); err != nil {
			return Published{}, fmt.Errorf("hdf: committing %s: %w", w.final, err)
		}
	}
	return Published{Name: w.final, Size: size, Count: len(w.sets), Dir: dir}, nil
}

// encodeDir serializes the dataset directory (version-3 layout).
func encodeDir(sets []*Dataset) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sets)))
	for _, d := range sets {
		b = d.AppendDirEntry(b)
	}
	return b
}

// AppendDirEntry appends d's directory entry in the version-3 layout, the
// form an RHDF directory and a block-catalog blob share:
//
//	str name | u8 type | u8 flags | u8 ndims | u64 dims... |
//	u64 offset | u64 length | u32 crc |
//	u16 nattrs | { str name | u8 type | u32 len | bytes }...
func (d *Dataset) AppendDirEntry(b []byte) []byte {
	b = AppendStr(b, d.Name)
	b = append(b, byte(d.Type), d.flags, byte(len(d.Dims)))
	for _, dim := range d.Dims {
		b = binary.LittleEndian.AppendUint64(b, uint64(dim))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(d.offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.length))
	b = binary.LittleEndian.AppendUint32(b, d.crc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(d.Attrs)))
	for _, a := range d.Attrs {
		b = AppendStr(b, a.Name)
		b = append(b, byte(a.Type))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Data)))
		b = append(b, a.Data...)
	}
	return b
}
