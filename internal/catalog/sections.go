package catalog

// The catalog's sections, as a commit record carries them
// (internal/snapshot): the file table, then the pane index, back to back.
//
//	file table: uvarint nfiles | nfiles × { u16 len | name | u32 dirLen }
//	pane index: one record per file, in file order —
//	            uvarint nwindows, then per window, ascending by name:
//	            u16 len | name | uvarint npanes | varint first pane |
//	            (npanes - 1) × uvarint gap to the next, ascending
//
// dirLen is the exact byte length of the file's RHDF directory, which ends
// the file: a reader that knows the file's size (its commit record's pin)
// reads the file's entries from [size - dirLen, size) of the file itself,
// held to the record's directory CRC32C (LoadDir). The sections hold no copy
// of any entry, and no header or checksum of their own: the record that
// carries them holds one CRC32C over all of its bytes. Every varint is in
// its shortest form, so a decoded catalog encodes to the bytes it came from.

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

// Decode parses a catalog's sections, all of b: the file table — every
// file's directory length at least a directory's count — then one pane
// index record per file, in order, and nothing after. No directory is
// loaded: the catalog answers resolution, source choice and the pane
// universe from the pane index alone, and plans a file's reads once its
// directory is loaded (LoadDir). All malformed-input paths are errors, never
// panics.
func Decode(b []byte) (*Catalog, error) {
	r := varintReader{b: b}
	nf := r.uvarint()
	if nf > uint64(len(b)/(2+4)) { // a file is at least a name's length and a directory length
		return nil, fmt.Errorf("catalog: %d files cannot fit in %d bytes", nf, len(b))
	}
	c := &Catalog{}
	c.Files, c.ranks, c.dirs = make([]string, 0, nf), make([]int, 0, nf), make([]dir, 0, nf)
	for i := uint64(0); i < nf && r.err == nil; i++ {
		name, n := r.str(), int64(r.u32())
		if r.err == nil && n < 4 {
			return nil, fmt.Errorf("catalog: corrupt file table: %s has a %d-byte directory", name, n)
		}
		c.addFile(string(name), n)
	}
	if r.err != nil {
		return nil, fmt.Errorf("catalog: corrupt file table: %w", r.err)
	}
	c.index = b[r.off:]
	c.indexEnd, c.listEnd = make([]int, 0, nf), make([]int, 0, nf)
	c.ids = make([]int, 0, len(c.index)) // a pane ID is at least a byte
	at := 0
	for f := range c.Files {
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
	c.missing = len(c.Files)
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
		c.ids = ids
	}
	if r.err != nil {
		return 0, r.err
	}
	c.listEnd = append(c.listEnd, len(c.lists))
	return r.off, nil
}

// varintReader reads the sections' fields, sticking the first error. A
// varint must be in its shortest form: a longer one that spells the same
// value is an error, so only an encoding's own bytes decode.
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
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *varintReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.Varint
}

func (r *varintReader) u32() uint32 {
	if r.err != nil || len(r.b)-r.off < 4 {
		r.fail()
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
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

// appendSections writes the sections: the file table (nfiles names and
// directory lengths, fileOf), then the pane index.
func appendSections(nfiles int, fileOf func(f int) (name string, dirLen int64), index []byte) []byte {
	size := binary.MaxVarintLen64 + len(index)
	for f := range nfiles {
		name, _ := fileOf(f)
		size += 2 + len(name) + 4
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(nfiles))
	for f := range nfiles {
		name, n := fileOf(f)
		b = hdf.AppendStr(b, name)
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return append(b, index...)
}

// AppendPanes appends panes, pane IDs per window, as one pane index record
// (the layout above): windows ascending, each one's IDs ascending and
// distinct. A window with no panes is not written. A commit record carries
// a delta's pane universe this way.
func AppendPanes(dst []byte, panes map[string][]int) []byte {
	var pairs []panePair[string]
	for w, ids := range panes {
		for _, id := range ids {
			pairs = append(pairs, panePair[string]{w, id})
		}
	}
	dst, _ = appendRecord(dst, pairs)
	return dst
}

// ReadPanes parses one pane index record at the start of b (AppendPanes')
// and returns its pane IDs per window and its length.
func ReadPanes(b []byte) (map[string][]int, int, error) {
	var c Catalog
	n, err := c.readRecord(b)
	if err != nil {
		return nil, 0, fmt.Errorf("catalog: corrupt pane record: %w", err)
	}
	panes := make(map[string][]int, len(c.lists))
	for _, l := range c.lists {
		panes[l.window] = l.ids
	}
	return panes, n, nil
}
