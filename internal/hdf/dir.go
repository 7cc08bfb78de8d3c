package hdf

import (
	"encoding/binary"
	"fmt"
)

// RawDir is one RHDF file's directory as stored and not yet trusted: the
// bytes that end the file, with the header facts they are checked against.
// It comes off the file (ReadRawDir) or from the writer that published the
// file (Published.Raw); Walk is the gate before anything uses it.
type RawDir struct {
	Name  string // the file, for errors
	Size  int64  // the file's size; the directory ends it
	Count int    // the header's dataset count
	Bytes []byte
}

// DirEntry is one directory entry in place: views of the directory bytes,
// valid while those bytes are unchanged.
type DirEntry struct {
	Name []byte

	raw            []byte // the entry as stored
	typ            DType
	flags          uint8
	dims           []byte // ndims little-endian u64s
	offset, length int64
	crc            uint32
	attrs          []byte // nattrs × { str name | u8 type | u32 length | data }
	nattrs         int
}

// minDirEntryBytes is the encoded size of a directory entry with an empty
// name and no dims or attrs; minAttrBytes that of an attribute with empty
// name and data.
const (
	minDirEntryBytes = 2 + 1 + 1 + 1 + 8 + 8 + 4 + 2
	minAttrBytes     = 2 + 1 + 4
)

// Walk is the one gate between directory bytes and anything that trusts
// them — a Reader's payload reads, a committed catalog's extents. The data
// region [headerSize, dirOff) must exist; the header's dataset count must be
// one the bytes could hold and the number of entries the directory has;
// every length is bounded by the bytes (Cursor); every entry carries its
// CRC; every extent lies inside the data region, and no dimension is
// negative. Walk calls yield with each entry as it passes, the same
// *DirEntry refilled, and allocates nothing per entry. An error refuses the
// whole directory, possibly after some entries were yielded.
func (d RawDir) Walk(yield func(*DirEntry)) error {
	dirOff := d.Size - int64(len(d.Bytes))
	if dirOff < headerSize {
		return fmt.Errorf("hdf: %s has %d directory bytes in a %d-byte file", d.Name, len(d.Bytes), d.Size)
	}
	// A header claiming more sets than the directory bytes could hold is
	// garbage — reject it before anything trusts the count.
	if maxSets := len(d.Bytes) / minDirEntryBytes; d.Count > maxSets || d.Count < 0 {
		return fmt.Errorf("hdf: %s header claims %d datasets, directory holds at most %d", d.Name, d.Count, maxSets)
	}
	c := NewCursor(d.Bytes)
	n := c.Fits(int(c.U32()), minDirEntryBytes)
	if c.Err() != nil {
		return fmt.Errorf("hdf: %s: corrupt directory: %w", d.Name, c.Err())
	}
	if n != d.Count {
		return fmt.Errorf("hdf: %s header says %d datasets, directory has %d", d.Name, d.Count, n)
	}
	var e DirEntry
	for i := 0; i < n; i++ {
		if c.Entry(&e); c.Err() != nil {
			return fmt.Errorf("hdf: %s: corrupt directory at dataset %d: %w", d.Name, i, c.Err())
		}
		if e.offset < headerSize || e.length < 0 || e.offset+e.length < e.offset || e.offset+e.length > dirOff {
			return fmt.Errorf("hdf: %s dataset %q extent [%d,+%d) outside data region [%d,%d)",
				d.Name, e.Name, e.offset, e.length, headerSize, dirOff)
		}
		for j := 0; j < len(e.dims); j += 8 {
			if dim := int64(binary.LittleEndian.Uint64(e.dims[j:])); dim < 0 {
				return fmt.Errorf("hdf: %s dataset %q has negative dimension %d", d.Name, e.Name, dim)
			}
		}
		yield(&e)
	}
	return nil
}

// Datasets decodes the directory into dataset descriptors through Walk —
// what a Reader and ScanDir hold.
func (d RawDir) Datasets() ([]*Dataset, error) {
	var sets []*Dataset
	err := d.Walk(func(e *DirEntry) {
		if sets == nil {
			sets = make([]*Dataset, 0, d.Count) // Walk has bounded Count by the bytes
		}
		ds := new(Dataset)
		e.decode(ds)
		sets = append(sets, ds)
	})
	if err != nil {
		return nil, err
	}
	return sets, nil
}

// Entry reads one directory entry in place: the one parser of an entry's
// layout, which AppendDirEntry writes. An entry whose flags do not mark its
// CRC fails the cursor: its payload could not be checked. e is valid only
// while the cursor's input is unchanged, and until the next Entry into it.
func (c *Cursor) Entry(e *DirEntry) {
	start := c.off
	e.Name = c.Bytes(int(c.U16()))
	e.typ = DType(c.U8())
	e.flags = c.U8()
	if c.err == nil && e.flags&flagHasCRC == 0 {
		c.err = fmt.Errorf("entry %q at offset %d carries no CRC", e.Name, start)
	}
	e.dims = c.Bytes(8 * c.Fits(int(c.U8()), 8))
	e.offset = int64(c.U64())
	e.length = int64(c.U64())
	e.crc = c.U32()
	e.nattrs = c.Fits(int(c.U16()), minAttrBytes)
	at := c.off
	for j := 0; j < e.nattrs; j++ {
		c.Bytes(int(c.U16()))
		c.U8()
		c.Bytes(int(c.U32()))
	}
	e.attrs, e.raw = c.b[at:c.off], c.b[start:c.off]
}

// DirEntry is AppendDirEntry's inverse: it reads one directory entry into d.
func (c *Cursor) DirEntry(d *Dataset) {
	var e DirEntry
	if c.Entry(&e); c.err == nil {
		e.decode(d)
	}
}

// decode fills d from e: a name and dims of its own, attribute data as
// capacity-capped views of the directory bytes.
func (e *DirEntry) decode(d *Dataset) {
	d.Name, d.Type, d.flags, d.offset, d.length, d.crc = string(e.Name), e.typ, e.flags, e.offset, e.length, e.crc
	d.Dims, d.Attrs = make([]int64, len(e.dims)/8), make([]Attr, e.nattrs)
	for j := range d.Dims {
		d.Dims[j] = int64(binary.LittleEndian.Uint64(e.dims[8*j:]))
	}
	c := NewCursor(e.attrs)
	for j := range d.Attrs {
		d.Attrs[j].Name = c.Str()
		d.Attrs[j].Type = DType(c.U8())
		d.Attrs[j].Data = c.Bytes(int(c.U32()))
	}
}

// Extent returns the file offset and stored byte length of e's payload.
func (e *DirEntry) Extent() (offset, length int64) { return e.offset, e.length }

// Len returns the byte length of e as stored.
func (e *DirEntry) Len() int { return len(e.raw) }

// Append appends e as stored: the bytes AppendDirEntry writes for the
// dataset e decodes to.
func (e *DirEntry) Append(b []byte) []byte { return append(b, e.raw...) }
