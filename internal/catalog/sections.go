package catalog

// The blob's layout: a header whose table addresses both sections, then
// the sections back to back, each under its own CRC32C.
//
//	header:    "RCAT" | u32 version | u32 crc32c(header[12:]) |
//	           2 × { u32 length | u32 count | u32 crc32c }
//	section 0, the file table: nfiles × { u16 len | name | u32 dirLen }
//	                                                             count: nfiles
//	section 1, the pane index: one record per file, in file order —
//	           uvarint nwindows, then per window, ascending by name:
//	           u16 len | name | uvarint npanes | varint first pane |
//	           (npanes - 1) × uvarint gap to the next, ascending   count: pane IDs
//
// dirLen is the exact byte length of the file's RHDF directory, which ends
// the file: a reader that knows the file's size (its manifest entry's)
// reads the file's entries from [size - dirLen, size) of the file itself,
// held to the manifest's directory CRC32C (LoadDir). The blob holds no
// copy of any entry.
//
// The header's own CRC32C (Header.CRC) is what a manifest pins. It covers
// both sections' records, so a reader that checked the header against the
// pin checks each section against the header: a swapped or damaged catalog
// is caught, and the error names the section.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"genxio/internal/hdf"
	"genxio/internal/roccom"
)

const (
	headerSize = 12 // the header's fixed part: magic(4) + version(4) + CRC(4)
	recordSize = 12 // a section's record: length, count, CRC32C
	blobHeader = headerSize + 2*recordSize

	secFiles = 0 // the section indices: file table, pane index
	secPanes = 1
)

// Header is a catalog blob's header as read and checked: where each
// section lies, how many records it holds and its CRC32C.
type Header struct {
	CRC  uint32 // the header's own CRC32C, which a manifest pins
	secs [2]section
}

// section is one section's place and record.
type section struct {
	off    int64
	length int
	count  int
	crc    uint32
}

// ReadHeader parses and checks the header at the start of b (which may run
// on into the sections): magic, version 3, the header's CRC32C, and counts
// that their sections could hold. Any other version is refused, and the
// error names it.
func ReadHeader(b []byte) (*Header, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("catalog: header too short (%d bytes)", len(b))
	}
	if string(b[:4]) != Magic {
		return nil, fmt.Errorf("catalog: bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != Version {
		return nil, fmt.Errorf("catalog: version %d, want %d", v, Version)
	}
	if len(b) < blobHeader {
		return nil, fmt.Errorf("catalog: header too short (%d bytes)", len(b))
	}
	h := &Header{CRC: binary.LittleEndian.Uint32(b[8:])}
	if got := hdf.Checksum(b[headerSize:blobHeader]); got != h.CRC {
		return nil, fmt.Errorf("%w: catalog header crc32c %08x, computed %08x", hdf.ErrChecksum, h.CRC, got)
	}
	off := int64(blobHeader)
	for i := range h.secs {
		r := b[headerSize+recordSize*i:]
		s := section{off: off, length: int(binary.LittleEndian.Uint32(r)), count: int(binary.LittleEndian.Uint32(r[4:])),
			crc: binary.LittleEndian.Uint32(r[8:])}
		// The smallest record of each section: a file of an empty name and
		// its directory length, a pane ID of 1 byte.
		least := 2 + 4
		if i == secPanes {
			least = 1
		}
		if s.count > s.length/least {
			return nil, fmt.Errorf("catalog: section %d counts %d records in %d bytes", i, s.count, s.length)
		}
		h.secs[i], off = s, off+int64(s.length)
	}
	return h, nil
}

// Size returns the byte length of the blob the header describes.
func (h *Header) Size() int64 {
	last := h.secs[len(h.secs)-1]
	return last.off + int64(last.length)
}

// check holds the section's bytes of blob to the section's record; what
// names it in the error.
func (s *section) check(blob []byte, what string) ([]byte, error) {
	b := blob[s.off : s.off+int64(s.length)]
	if got := hdf.Checksum(b); got != s.crc {
		return nil, fmt.Errorf("%w: catalog %s crc32c %08x, header says %08x", hdf.ErrChecksum, what, got, s.crc)
	}
	return b, nil
}

// Decode parses a whole catalog blob: the header (ReadHeader) must be
// complete, version 3 and sized to the blob, and each section must match
// its CRC32C and parse — every file's directory length at least a
// directory's count, the pane index in order and counting the pane IDs the
// header says. No directory is loaded: the catalog answers resolution,
// source choice and the pane universe from the pane index alone, and plans
// a file's reads once its directory is loaded (LoadDir). All malformed-input
// paths are errors, never panics.
func Decode(blob []byte) (*Catalog, error) {
	h, err := ReadHeader(blob)
	if err != nil {
		return nil, err
	}
	if h.Size() != int64(len(blob)) {
		return nil, fmt.Errorf("catalog: blob is %d bytes, its header describes %d", len(blob), h.Size())
	}
	ft, err := h.secs[secFiles].check(blob, "file table")
	if err != nil {
		return nil, err
	}
	pi, err := h.secs[secPanes].check(blob, "pane index")
	if err != nil {
		return nil, err
	}
	c := &Catalog{}
	nf := h.secs[secFiles].count
	p := hdf.NewCursor(ft)
	c.Files, c.ranks, c.dirs = make([]string, 0, nf), make([]int, 0, nf), make([]dir, 0, nf)
	for i := 0; i < nf; i++ {
		name, n := p.Str(), int64(p.U32())
		if p.Err() == nil && n < 4 {
			return nil, fmt.Errorf("catalog: corrupt file table: %s has a %d-byte directory", name, n)
		}
		c.addFile(name, n)
	}
	if err := p.End(); err != nil {
		return nil, fmt.Errorf("catalog: corrupt file table: %w", err)
	}
	c.index = pi
	c.indexEnd, c.listEnd = make([]int, 0, nf), make([]int, 0, nf)
	c.ids = make([]int, 0, h.secs[secPanes].count)
	at := 0
	for f := 0; f < nf; f++ {
		n, err := c.readRecord(c.index[at:])
		if err != nil {
			return nil, fmt.Errorf("catalog: corrupt pane index of %s: %w", c.Files[f], err)
		}
		at += n
		c.indexEnd = append(c.indexEnd, at)
	}
	if at != len(c.index) {
		return nil, fmt.Errorf("catalog: pane index has %d trailing bytes", len(c.index)-at)
	}
	if c.npanes != h.secs[secPanes].count {
		return nil, fmt.Errorf("catalog: pane index holds %d pane IDs, header says %d", c.npanes, h.secs[secPanes].count)
	}
	c.missing = nf
	return c, nil
}

// DirLen returns the byte length of file f's directory, which ends the
// file.
func (c *Catalog) DirLen(f int) int64 { return c.dirs[f].len }

// HasDir reports whether file f's directory is loaded: always, for a
// catalog AddFile built.
func (c *Catalog) HasDir(f int) bool { return c.dirs[f].loaded }

// Dir returns file f's directory bytes as loaded, nil until it is.
func (c *Catalog) Dir(f int) []byte {
	if !c.dirs[f].loaded {
		return nil
	}
	return c.dirs[f].b
}

// LoadDir indexes d, file f's directory as read off the file — its bytes
// from the file's end less DirLen(f), which the caller has held to what
// pins them — so that f's reads can be planned: d must be as long as the
// file table records, pass the directory's gate (walkPanes) and hold
// exactly the panes the pane index lists for f. The catalog keeps d.Bytes.
// A directory loads once; loading it again does nothing. Once every
// directory is loaded, Entries holds every entry.
func (c *Catalog) LoadDir(f int, d hdf.RawDir) error {
	if f < 0 || f >= len(c.Files) {
		return fmt.Errorf("catalog: no file %d to load", f)
	}
	r := &c.dirs[f]
	if r.loaded {
		return nil
	}
	if int64(len(d.Bytes)) != r.len {
		return fmt.Errorf("catalog: directory of %s is %d bytes, the file table says %d", c.Files[f], len(d.Bytes), r.len)
	}
	var ents []Entry
	err := walkPanes(d, func(e *hdf.DirEntry, at int, window []byte, pane int, attr []byte) {
		if ents == nil {
			ents = make([]Entry, 0, d.Count) // Walk has bounded Count by the bytes
		}
		off, length := e.Extent()
		ents = append(ents, Entry{File: f, Window: c.intern(window), Pane: pane, Attr: c.intern(attr), offset: off, length: length, at: at})
	})
	if err != nil {
		return err
	}
	pairs := make([]panePair[string], len(ents))
	for i := range ents {
		pairs[i] = panePair[string]{ents[i].Window, ents[i].Pane}
	}
	rec, _ := appendRecord(nil, pairs)
	from := 0
	if f > 0 {
		from = c.indexEnd[f-1]
	}
	if !bytes.Equal(rec, c.index[from:c.indexEnd[f]]) {
		return fmt.Errorf("catalog: directory of %s holds other panes than the pane index lists", c.Files[f])
	}
	*r = dir{len: r.len, b: d.Bytes, ents: ents, loaded: true}
	if c.missing--; c.missing == 0 {
		for i := range c.dirs {
			c.Entries = append(c.Entries, c.dirs[i].ents...)
		}
	}
	return nil
}

// walkPanes passes d through the directory's one gate (hdf.RawDir.Walk)
// and calls yield with each pane dataset's entry, its offset in d.Bytes and
// the parts of its name; datasets outside the pane path grammar (e.g. a
// server's "_meta" marker) are skipped. The entries must end the directory:
// a catalog records a directory's exact length, and a reader reads it by
// that length.
func walkPanes(d hdf.RawDir, yield func(e *hdf.DirEntry, at int, window []byte, pane int, attr []byte)) error {
	at := 4 // the entry count
	err := d.Walk(func(e *hdf.DirEntry) {
		if window, pane, attr, ok := roccom.ParseDatasetName(e.Name); ok {
			yield(e, at, window, pane, attr)
		}
		at += e.Len()
	})
	if err == nil && at != len(d.Bytes) {
		err = fmt.Errorf("catalog: %s has %d directory bytes after its last entry", d.Name, len(d.Bytes)-at)
	}
	return err
}

// panePair is one dataset's window and pane, the window a name or a view
// of a directory's bytes.
type panePair[S ~string | ~[]byte] struct {
	window S
	pane   int
}

// compareNames orders names bytewise, for either kind.
func compareNames[S ~string | ~[]byte](a, b S) int {
	switch {
	case string(a) == string(b):
		return 0
	case string(a) < string(b):
		return -1
	}
	return 1
}

// appendRecord appends one file's pane index record of pairs (which it sorts
// and may reorder) and returns it with the number of pane IDs it lists.
func appendRecord[S ~string | ~[]byte](dst []byte, pairs []panePair[S]) ([]byte, int) {
	slices.SortFunc(pairs, func(a, b panePair[S]) int {
		return cmp.Or(compareNames(a.window, b.window), cmp.Compare(a.pane, b.pane))
	})
	pairs = slices.CompactFunc(pairs, func(a, b panePair[S]) bool {
		return a.pane == b.pane && compareNames(a.window, b.window) == 0
	})
	nw, size := 0, binary.MaxVarintLen64
	for i := range pairs {
		if i == 0 || compareNames(pairs[i].window, pairs[i-1].window) != 0 {
			nw++
			size += 2 + len(pairs[i].window) + binary.MaxVarintLen64
		}
		size += binary.MaxVarintLen64
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(nw))
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && compareNames(pairs[j].window, pairs[i].window) == 0 {
			j++
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pairs[i].window)))
		dst = append(dst, pairs[i].window...)
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = binary.AppendVarint(dst, int64(pairs[i].pane))
		for k := i + 1; k < j; k++ {
			dst = binary.AppendUvarint(dst, uint64(pairs[k].pane)-uint64(pairs[k-1].pane))
		}
		i = j
	}
	return dst, len(pairs)
}

// readRecord parses one file's pane index record at the start of b into
// the catalog's lists and returns its length: windows strictly ascending,
// each with at least one pane, panes strictly ascending.
func (c *Catalog) readRecord(b []byte) (int, error) {
	r := varintReader{b: b}
	nw := r.uvarint()
	if nw > uint64(len(b)/4) { // a window is at least a name length, a count and a pane
		return 0, fmt.Errorf("%d windows cannot fit in %d bytes", nw, len(b))
	}
	var prev []byte
	for w := uint64(0); w < nw && r.err == nil; w++ {
		name := r.str()
		if w > 0 && compareNames(name, prev) <= 0 {
			return 0, fmt.Errorf("window %q does not follow %q", name, prev)
		}
		prev = name
		np := r.uvarint()
		if np == 0 || np > uint64(len(b)-r.off) {
			return 0, fmt.Errorf("window %q counts %d panes", name, np)
		}
		start := len(c.ids)
		id := r.varint()
		ids := append(c.ids, int(id))
		for k := uint64(1); k < np && r.err == nil; k++ {
			gap := r.uvarint()
			if gap == 0 || gap > uint64(math.MaxInt)-uint64(id) {
				return 0, fmt.Errorf("window %q: pane gap %d after %d", name, gap, id)
			}
			id = int64(uint64(id) + gap)
			ids = append(ids, int(id))
		}
		c.lists = append(c.lists, paneList{window: c.intern(name), ids: ids[start:len(ids):len(ids)]})
		c.npanes += int(np)
		c.ids = ids
	}
	if r.err != nil {
		return 0, r.err
	}
	c.listEnd = append(c.listEnd, len(c.lists))
	return r.off, nil
}

// varintReader reads a pane index record's fields, sticking the first error.
type varintReader struct {
	b   []byte
	off int
	err error
}

func (r *varintReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
	}
}

func (r *varintReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *varintReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *varintReader) str() []byte {
	if r.err != nil || len(r.b)-r.off < 2 {
		r.fail()
		return nil
	}
	n := int(binary.LittleEndian.Uint16(r.b[r.off:]))
	if len(r.b)-r.off-2 < n {
		r.fail()
		return nil
	}
	r.off += 2 + n
	return r.b[r.off-n : r.off]
}

// assembleBlob writes a blob: the header, the file table (nfiles names and
// directory lengths, fileOf) and the pane index (npanes IDs).
func assembleBlob(nfiles int, fileOf func(f int) (name string, dirLen int64), index []byte, npanes int) []byte {
	size := blobHeader + len(index)
	for f := range nfiles {
		name, _ := fileOf(f)
		size += 2 + len(name) + 4
	}
	blob := make([]byte, blobHeader, size)
	copy(blob, Magic)
	binary.LittleEndian.PutUint32(blob[4:], Version)
	record := func(i, start, count int) {
		r := blob[headerSize+recordSize*i:]
		binary.LittleEndian.PutUint32(r, uint32(len(blob)-start))
		binary.LittleEndian.PutUint32(r[4:], uint32(count))
		binary.LittleEndian.PutUint32(r[8:], hdf.Checksum(blob[start:]))
	}
	start := len(blob)
	for f := range nfiles {
		name, n := fileOf(f)
		blob = hdf.AppendStr(blob, name)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(n))
	}
	record(secFiles, start, nfiles)
	start = len(blob)
	blob = append(blob, index...)
	record(secPanes, start, npanes)
	binary.LittleEndian.PutUint32(blob[8:], hdf.Checksum(blob[headerSize:blobHeader]))
	return blob
}
