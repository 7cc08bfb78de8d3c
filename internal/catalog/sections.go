package catalog

// The blob's layout: a header whose table addresses every section, then
// the sections back to back, each under its own CRC32C.
//
//	header:    "RCAT" | u32 version | u32 crc32c(header[12:]) | u32 nfiles |
//	           (2 + nfiles) × { u32 length | u32 count | u32 crc32c }
//	section 0, the file table: nfiles × { u16 len | name }       count: nfiles
//	section 1, the pane index: one record per file, in file order —
//	           uvarint nwindows, then per window, ascending by name:
//	           u16 len | name | uvarint npanes | varint first pane |
//	           (npanes - 1) × uvarint gap to the next, ascending   count: pane IDs
//	section 2+f, file f's entry run: its pane datasets' RHDF directory
//	           entries, in directory order                        count: entries
//
// The header's own CRC32C (Header.CRC) is what a manifest pins. It covers
// every section's record, so a reader that checked the header against the
// pin checks each section it reads against the header: a swapped or damaged
// catalog is caught by the bytes actually read, and a damaged section fails
// only the reads that need it. A reader that knows the file count (its
// manifest's) reads the header (HeaderSize) in one request, the file table
// and pane index (Header.IndexExtent) in another — all a pane universe,
// resolution or a restore-walk judgment needs — and the runs of the files
// it plans from (Catalog.RunExtent), adjacent runs in one request.

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

	secFiles = 0 // the section indices: file table, pane index, runs
	secPanes = 1
	secRuns  = 2

	// minEntryBytes is the encoded size of a directory entry with an empty
	// name and no dims or attrs.
	minEntryBytes = 2 + 1 + 1 + 1 + 8 + 8 + 4 + 2
)

// HeaderSize returns the byte length of the header of a catalog of nfiles
// files.
func HeaderSize(nfiles int) int { return headerSize + 4 + recordSize*(secRuns+nfiles) }

// Header is a catalog blob's header as read and checked: where every
// section lies, how many records it holds and its CRC32C.
type Header struct {
	CRC  uint32 // the header's own CRC32C, which a manifest pins
	secs []section
}

// section is one section's place and record.
type section struct {
	off    int64
	length int
	count  int
	crc    uint32
}

// ReadHeader parses and checks the header at the start of b (which may run
// on into the sections): magic, version 2, the header's CRC32C, and counts
// that their sections could hold. Any other version is refused.
func ReadHeader(b []byte) (*Header, error) {
	if len(b) < HeaderSize(0) {
		return nil, fmt.Errorf("catalog: header too short (%d bytes)", len(b))
	}
	if string(b[:4]) != Magic {
		return nil, fmt.Errorf("catalog: bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != Version {
		return nil, fmt.Errorf("catalog: version %d, want %d", v, Version)
	}
	nf := binary.LittleEndian.Uint32(b[12:])
	if uint64(nf) > uint64((len(b)-HeaderSize(0))/recordSize) {
		return nil, fmt.Errorf("catalog: header of %d files does not fit in %d bytes", nf, len(b))
	}
	n := HeaderSize(int(nf))
	h := &Header{CRC: binary.LittleEndian.Uint32(b[8:])}
	if got := hdf.Checksum(b[headerSize:n]); got != h.CRC {
		return nil, fmt.Errorf("%w: catalog header crc32c %08x, computed %08x", hdf.ErrChecksum, h.CRC, got)
	}
	h.secs = make([]section, secRuns+int(nf))
	off := int64(n)
	for i := range h.secs {
		r := b[headerSize+4+recordSize*i:]
		s := section{off: off, length: int(binary.LittleEndian.Uint32(r)), count: int(binary.LittleEndian.Uint32(r[4:])),
			crc: binary.LittleEndian.Uint32(r[8:])}
		// The smallest record of each section: a file name of 2 bytes, a
		// pane ID of 1, an entry of minEntryBytes.
		least := minEntryBytes
		switch i {
		case secFiles:
			least = 2
		case secPanes:
			least = 1
		}
		if s.count > s.length/least {
			return nil, fmt.Errorf("catalog: section %d counts %d records in %d bytes", i, s.count, s.length)
		}
		h.secs[i], off = s, off+int64(s.length)
	}
	if h.secs[secFiles].count != int(nf) {
		return nil, fmt.Errorf("catalog: file table counts %d files, header %d", h.secs[secFiles].count, nf)
	}
	return h, nil
}

// Len returns the header's byte length.
func (h *Header) Len() int { return HeaderSize(len(h.secs) - secRuns) }

// Size returns the byte length of the blob the header describes.
func (h *Header) Size() int64 {
	last := h.secs[len(h.secs)-1]
	return last.off + int64(last.length)
}

// IndexExtent returns where the file table and pane index lie, together:
// what Open needs.
func (h *Header) IndexExtent() (off, length int64) {
	return h.secs[secFiles].off, int64(h.secs[secFiles].length + h.secs[secPanes].length)
}

// check holds b to the section's record.
func (s *section) check(b []byte, what string) error {
	if len(b) != s.length {
		return fmt.Errorf("catalog: %s is %d bytes, header says %d", what, len(b), s.length)
	}
	if got := hdf.Checksum(b); got != s.crc {
		return fmt.Errorf("%w: catalog %s crc32c %08x, header says %08x", hdf.ErrChecksum, what, got, s.crc)
	}
	return nil
}

// Open builds a catalog from its header and the bytes at h.IndexExtent —
// the file table and pane index, each checked against its record — with no
// entry run loaded: enough to resolve panes, choose sources, list a pane
// universe and judge, and to name the runs a plan needs (Sources, RunExtent,
// LoadRun).
func Open(h *Header, index []byte) (*Catalog, error) {
	ft, pi := &h.secs[secFiles], &h.secs[secPanes]
	if len(index) != ft.length+pi.length {
		return nil, fmt.Errorf("catalog: index is %d bytes, header says %d", len(index), ft.length+pi.length)
	}
	if err := ft.check(index[:ft.length], "file table"); err != nil {
		return nil, err
	}
	if err := pi.check(index[ft.length:], "pane index"); err != nil {
		return nil, err
	}
	c := &Catalog{hdr: h}
	nf := ft.count
	p := hdf.NewCursor(index[:ft.length])
	c.Files, c.ranks = make([]string, 0, nf), make([]int, 0, nf)
	for i := 0; i < nf; i++ {
		c.addFile(p.Str())
	}
	if err := p.End(); err != nil {
		return nil, fmt.Errorf("catalog: corrupt file table: %w", err)
	}
	c.index = index[ft.length:]
	c.indexEnd, c.listEnd = make([]int, 0, nf), make([]int, 0, nf)
	c.ids = make([]int, 0, pi.count)
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
	if c.npanes != pi.count {
		return nil, fmt.Errorf("catalog: pane index holds %d pane IDs, header says %d", c.npanes, pi.count)
	}
	c.runs, c.missing = make([]run, nf), nf
	for f := range c.runs {
		c.runs[f].at = int(h.secs[secRuns+f].off - h.secs[secRuns].off)
	}
	return c, nil
}

// RunExtent returns where file f's entry run lies in the blob of a catalog
// Decode or Open returned.
func (c *Catalog) RunExtent(f int) (off, length int64) {
	s := &c.hdr.secs[secRuns+f]
	return s.off, int64(s.length)
}

// LoadRun checks b, the bytes at RunExtent(f), against run f's record and
// indexes them: every entry must parse as Decode requires, and the run must
// hold exactly the panes the pane index lists for f. The catalog keeps b.
// A run loads once; loading it again does nothing. Once every run is
// loaded, Entries holds every entry, as Decode's does.
func (c *Catalog) LoadRun(f int, b []byte) error {
	if c.hdr == nil || f < 0 || f >= len(c.Files) {
		return fmt.Errorf("catalog: no run %d to load", f)
	}
	if c.runs[f].loaded {
		return nil
	}
	var sc runScratch
	if _, err := c.readRun(f, b, nil, &sc); err != nil {
		return err
	}
	if c.missing == 0 {
		for i := range c.runs {
			c.Entries = append(c.Entries, c.runs[i].ents...)
		}
	}
	return nil
}

// runScratch is readRun's reusable space: a run's (window, pane)s and its
// pane index record.
type runScratch struct {
	pairs []panePair[string]
	rec   []byte
}

// readRun is LoadRun appending run f's entries to dst (nil: a slice of the
// run's own), which must have room for them.
func (c *Catalog) readRun(f int, b []byte, dst []Entry, sc *runScratch) ([]Entry, error) {
	s := &c.hdr.secs[secRuns+f]
	if err := s.check(b, "entry run of "+c.Files[f]); err != nil {
		return dst, err
	}
	if dst == nil {
		dst = make([]Entry, 0, s.count)
	}
	start, base := len(dst), c.runs[f].at
	p := hdf.NewCursor(b)
	var d hdf.DirEntry
	for i := 0; i < s.count; i++ {
		at := p.Offset()
		if p.Entry(&d); p.Err() != nil {
			return dst[:start], fmt.Errorf("catalog: run of %s corrupt at entry %d: %w", c.Files[f], i, p.Err())
		}
		off, length := d.Extent()
		if off < 0 || length < 0 || off+length < off {
			return dst[:start], fmt.Errorf("catalog: run of %s entry %d has bad extent [%d,+%d)", c.Files[f], i, off, length)
		}
		window, pane, attr, ok := roccom.ParseDatasetName(d.Name)
		if !ok {
			return dst[:start], fmt.Errorf("catalog: run of %s entry %d has unparseable dataset name %q", c.Files[f], i, d.Name)
		}
		dst = append(dst, Entry{File: f, Window: c.intern(window), Pane: pane, Attr: c.intern(attr),
			offset: off, length: length, at: base + at})
	}
	if err := p.End(); err != nil {
		return dst[:start], fmt.Errorf("catalog: run of %s: %w after %d entries", c.Files[f], err, s.count)
	}
	ents := dst[start:len(dst):len(dst)]
	sc.pairs = sc.pairs[:0]
	for i := range ents {
		sc.pairs = append(sc.pairs, panePair[string]{ents[i].Window, ents[i].Pane})
	}
	sc.rec, _ = appendRecord(sc.rec[:0], sc.pairs)
	from := 0
	if f > 0 {
		from = c.indexEnd[f-1]
	}
	if !bytes.Equal(sc.rec, c.index[from:c.indexEnd[f]]) {
		return dst[:start], fmt.Errorf("catalog: run of %s holds other panes than the pane index lists", c.Files[f])
	}
	c.runs[f] = run{at: base, b: b, ents: ents, loaded: true}
	c.missing--
	return dst, nil
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

// assembleBlob writes a blob: the header, the file table (nfiles names,
// nameOf), the pane index (npanes IDs) and each file's entry run (runOf).
func assembleBlob(nfiles int, nameOf func(f int) string, index []byte, npanes int, runOf func(f int) (b []byte, count int)) []byte {
	hs := HeaderSize(nfiles)
	size := hs + len(index)
	for f := range nfiles {
		b, _ := runOf(f)
		size += 2 + len(nameOf(f)) + len(b)
	}
	blob := make([]byte, hs, size)
	copy(blob, Magic)
	binary.LittleEndian.PutUint32(blob[4:], Version)
	binary.LittleEndian.PutUint32(blob[12:], uint32(nfiles))
	record := func(i, start, count int) {
		r := blob[headerSize+4+recordSize*i:]
		binary.LittleEndian.PutUint32(r, uint32(len(blob)-start))
		binary.LittleEndian.PutUint32(r[4:], uint32(count))
		binary.LittleEndian.PutUint32(r[8:], hdf.Checksum(blob[start:]))
	}
	start := len(blob)
	for f := range nfiles {
		blob = hdf.AppendStr(blob, nameOf(f))
	}
	record(secFiles, start, nfiles)
	start = len(blob)
	blob = append(blob, index...)
	record(secPanes, start, npanes)
	for f := range nfiles {
		b, n := runOf(f)
		start = len(blob)
		blob = append(blob, b...)
		record(secRuns+f, start, n)
	}
	binary.LittleEndian.PutUint32(blob[8:], hdf.Checksum(blob[headerSize:hs]))
	return blob
}
