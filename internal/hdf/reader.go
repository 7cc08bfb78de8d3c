package hdf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Reader reads an RHDF file.
type Reader struct {
	f     rt.File
	clock rt.Clock
	cost  CostProfile
	sets  []*Dataset
	names map[string]int

	// Metrics, when set, receives hdf.lookups, hdf.datasets_read and
	// hdf.bytes_read counters. A nil registry is a no-op.
	Metrics *metrics.Registry
}

// Open opens an RHDF file for reading and parses its directory, charging
// the profile's open cost.
func Open(fsys rt.FS, name string, clock rt.Clock, cost CostProfile) (*Reader, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	r, err := newReader(f, clock, cost)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newReader(f rt.File, clock rt.Clock, cost CostProfile) (*Reader, error) {
	d, err := readRawDir(f)
	if err != nil {
		return nil, err
	}
	sets, err := d.Datasets()
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, clock: clock, cost: cost, sets: sets, names: make(map[string]int, len(sets))}
	for i, d := range sets {
		r.names[d.Name] = i
	}
	clock.Compute(cost.OpenCost(len(sets)))
	return r, nil
}

// readRawDir reads an open file's header, checked against the file's size
// (readHeader), and its directory bytes, which are Walk's to check.
func readRawDir(f rt.File) (RawDir, error) {
	size, err := f.Size()
	if err != nil {
		return RawDir{}, err
	}
	dirOff, count, err := readHeader(f, size)
	if err != nil {
		return RawDir{}, err
	}
	dir := make([]byte, size-dirOff)
	if _, err := f.ReadAt(dir, dirOff); err != nil {
		return RawDir{}, fmt.Errorf("hdf: reading directory of %s: %w", f.Name(), err)
	}
	return RawDir{Name: f.Name(), Size: size, Count: count, Bytes: dir}, nil
}

// NumDatasets returns the number of datasets in the file.
func (r *Reader) NumDatasets() int { return len(r.sets) }

// Datasets returns all dataset descriptors in file order.
func (r *Reader) Datasets() []*Dataset { return r.sets }

// Names returns all dataset names in file order.
func (r *Reader) Names() []string {
	out := make([]string, len(r.sets))
	for i, d := range r.sets {
		out[i] = d.Name
	}
	return out
}

// Lookup finds a dataset by name, charging the profile's lookup cost.
func (r *Reader) Lookup(name string) (*Dataset, bool) {
	r.clock.Compute(r.cost.LookupCost(len(r.sets)))
	r.Metrics.Counter("hdf.lookups").Inc()
	i, ok := r.names[name]
	if !ok {
		return nil, false
	}
	return r.sets[i], true
}

// ReadData reads a dataset's logical bytes: one ReadAt of the stored extent,
// then Unpack, with the file named in any error.
func (r *Reader) ReadData(d *Dataset) ([]byte, error) {
	buf := make([]byte, d.length)
	if _, err := r.f.ReadAt(buf, d.offset); err != nil {
		return nil, fmt.Errorf("hdf: reading %q: %w", d.Name, err)
	}
	out, err := d.Unpack(buf, r.Metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.f.Name(), err)
	}
	r.Metrics.Counter("hdf.datasets_read").Inc()
	r.Metrics.Counter("hdf.bytes_read").Add(int64(len(buf)))
	return out, nil
}

// Unpack turns d's stored bytes, however they were read, into its logical
// bytes — the one place stored payload is trusted. Bytes that do not match
// the recorded CRC32C report ErrChecksum and bump reg's
// hdf.checksum_failures; deflate-compressed storage is inflated; either way
// the result must have the length d's type and dims imply.
func (d *Dataset) Unpack(stored []byte, reg *metrics.Registry) ([]byte, error) {
	if got := Checksum(stored); got != d.crc {
		reg.Counter("hdf.checksum_failures").Inc()
		return nil, fmt.Errorf("%w: dataset %q: stored crc32c %08x, computed %08x", ErrChecksum, d.Name, d.crc, got)
	}
	logical := d.Len() * int64(d.Type.Size())
	if d.Compressed() {
		out, err := InflateStored(stored, logical)
		if err != nil {
			return nil, fmt.Errorf("hdf: %q: %w", d.Name, err)
		}
		return out, nil
	}
	if int64(len(stored)) != logical {
		return nil, fmt.Errorf("hdf: %q stores %d bytes, want %d", d.Name, len(stored), logical)
	}
	return stored, nil
}

// InflateStored inflates a deflate-compressed stored payload and checks it
// against the expected logical size.
func InflateStored(stored []byte, logical int64) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(stored))
	out, err := io.ReadAll(io.LimitReader(zr, logical+1))
	if err != nil {
		return nil, fmt.Errorf("inflating: %w", err)
	}
	if int64(len(out)) != logical {
		return nil, fmt.Errorf("inflated to %d bytes, want %d", len(out), logical)
	}
	return out, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// readHeader validates the fixed header against the actual file size and
// returns (dirOff, count) — ParseHeader of the header bytes read off f.
func readHeader(f rt.File, size int64) (int64, int, error) {
	if size < headerSize {
		return 0, 0, fmt.Errorf("hdf: %s too short for a header (%d bytes)", f.Name(), size)
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, fmt.Errorf("hdf: reading header of %s: %w", f.Name(), err)
	}
	return ParseHeader(f.Name(), hdr, size)
}

// ParseHeader checks hdr, the first HeaderSize bytes of the file name,
// against the file's size, as every reader of the file does, and returns
// where its directory starts and the dataset count the header records: the
// check of a header read apart from its directory (the restore walk's file
// check reads both in pieces). All failure modes of garbage input — wrong
// magic, a version other than Version, offsets outside the file — are
// errors, never panics.
func ParseHeader(name string, hdr []byte, size int64) (dirOff int64, count int, err error) {
	if size < headerSize || len(hdr) < headerSize {
		return 0, 0, fmt.Errorf("hdf: %s too short for a header (%d bytes)", name, size)
	}
	if string(hdr[:4]) != Magic {
		return 0, 0, fmt.Errorf("hdf: %s is not an RHDF file", name)
	}
	if version := binary.LittleEndian.Uint32(hdr[4:]); version != Version {
		return 0, 0, fmt.Errorf("hdf: %s has version %d, want %d", name, version, Version)
	}
	dirOff = int64(binary.LittleEndian.Uint64(hdr[8:]))
	count = int(binary.LittleEndian.Uint32(hdr[16:]))
	if dirOff == 0 {
		return 0, 0, fmt.Errorf("hdf: %s has no directory (incomplete write?)", name)
	}
	if dirOff < headerSize || dirOff > size {
		return 0, 0, fmt.Errorf("hdf: %s directory offset %d outside file [%d,%d]", name, dirOff, headerSize, size)
	}
	return dirOff, count, nil
}

// ScanDir reads and decodes a committed RHDF file's directory without
// touching dataset payloads, returning the file size, the CRC32C of the raw
// directory bytes, and the full dataset descriptors (names, shapes, extents,
// per-dataset CRCs), through the same gate (Walk) a catalog's entries pass.
func ScanDir(fsys rt.FS, name string) (size int64, dirCRC uint32, sets []*Dataset, err error) {
	d, err := ReadRawDir(fsys, name)
	if err != nil {
		return 0, 0, nil, err
	}
	if sets, err = d.Datasets(); err != nil {
		return 0, 0, nil, err
	}
	return d.Size, Checksum(d.Bytes), sets, nil
}

// ReadRawDir reads the named file's directory as stored, undecoded: what a
// commit indexes a file from when no writer reported it, and what the
// restore walk checks a file against its manifest entry by.
func ReadRawDir(fsys rt.FS, name string) (RawDir, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return RawDir{}, err
	}
	defer f.Close()
	return readRawDir(f)
}
