// Package snapshot implements the durable-snapshot commit protocol shared
// by every I/O module: writers stage RHDF files under temporary names and
// rename them into place (internal/hdf), and a completed generation is
// committed by publishing one small binary commit record — epoch, the file
// table with per-file sizes and directory checksums, the pane index and, for
// a delta, its chain — as the last step. A generation without its record
// never happened as far as restart is concerned, which is what makes a
// crash at any point recoverable: the previous committed generation is
// still intact and still selected.
//
// The package also provides the read side: generation discovery, a
// newest-first restore walk that falls back past damaged generations,
// retention pruning, and the scrub behind cmd/genxfsck — which judges a
// generation's files and panes by the walk's own rules (checkFile,
// restorable).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Suffix is appended to a generation's base name to form its commit
// record's file name.
const Suffix = ".manifest"

// The commit record, one per generation, published last (hdf.PublishFile)
// and read whole:
//
//	header: "GXCR" | u32 version | u32 crc32c(record[12:])
//	body:   str base | u64 epoch | u64 time (float64 bits) |
//	        uvarint nlinks | nlinks × { str base | uvarint size | u32 crc32c } |
//	        a delta's pane universe, one pane index record (catalog.AppendPanes),
//	          present when nlinks > 0 |
//	        uvarint nfiles | nfiles × { uvarint size | u32 dirCRC | uvarint datasets } |
//	        the catalog's sections (catalog.Encode: the file table's names and
//	          directory lengths, then the pane index), to the end
//
// str is u16-counted. The links are the generation's chain ancestors,
// nearest first, down to its full generation: each one's base and its
// record's size and header CRC32C, so a reader of the head reads every
// lower record in one batch and holds each to its pin. The per-file pins
// and the catalog's file table are parallel, in lexical file order. Every
// varint is in its shortest form, so a decoded record encodes to its bytes.
const (
	recordMagic   = "GXCR"
	recordVersion = 1
	recordHeader  = 12
	// maxChainDepth bounds the links a record may list. Real chains are
	// capped by the FullEvery cadence, orders of magnitude below this.
	maxChainDepth = 1024
)

// FileEntry records one snapshot file at commit time.
type FileEntry struct {
	// Name is the file's full path on the snapshot filesystem.
	Name string `json:"name"`
	// Size is the committed length in bytes.
	Size int64 `json:"size"`
	// DirCRC is the CRC32C of the file's RHDF directory bytes; a stale or
	// torn replacement of the file cannot keep both Size and DirCRC. It is
	// also what a restart holds the directory to when it reads the file's
	// entries from it (dirLoad): the catalog keeps no copy of them.
	DirCRC uint32 `json:"dir_crc32c"`
	// Datasets is the directory's dataset count.
	Datasets int `json:"datasets"`
}

// Link pins one chain ancestor of a delta generation: its base name and its
// commit record's size and header CRC32C.
type Link struct {
	Base string `json:"base"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32c"`
}

// Manifest is a generation's commit record, decoded.
type Manifest struct {
	// Base is the generation's base name (files are Base_*.rhdf).
	Base string
	// Epoch is the simulation step the snapshot was taken at.
	Epoch int64
	// Time is the simulation time of the snapshot.
	Time float64
	// Files lists every committed file, in lexical order; the record's
	// catalog indexes them in the same order.
	Files []FileEntry
	// Links pins the chain ancestors of a delta, nearest first, down to its
	// full generation; empty on a full generation. BaseGeneration (the
	// first link's base) and ChainDepth (the number of links) are what
	// Links gives: the committed generation this delta resolves against —
	// panes not rewritten here are read from the chain — and the
	// generation's distance from its full base, which bounds the walk and
	// is what the restart counters report.
	Links          []Link
	BaseGeneration string
	ChainDepth     int
	// Panes records a delta generation's global pane universe per window —
	// every pane a restart of it must restore, whether rewritten here or
	// inherited from the chain. A delta needs it because its files alone no
	// longer spell out the universe (a pane deleted by refinement must not
	// resurrect from a base generation). Nil on full generations, whose
	// files are the universe.
	Panes map[string][]int
	// Size and CRC are the record's own length and header CRC32C: what a
	// child's link pins.
	Size int64
	CRC  uint32
}

// link is the pin a delta on m records of it.
func (m *Manifest) link() Link { return Link{Base: m.Base, Size: m.Size, CRC: m.CRC} }

// ChainInfo carries the delta-chain facts CommitChained records in the
// commit record of a delta generation.
type ChainInfo struct {
	// Base is the committed generation this delta resolves against.
	Base string
	// Depth is this generation's chain depth (base's depth + 1).
	Depth int
	// Panes is the global pane universe per window at snapshot time.
	Panes map[string][]int
}

// Commit writes the commit record for the generation under base: it
// summarizes every committed Base_*.rhdf file and atomically publishes
// base+Suffix. It must be called only after all of the generation's
// writers have closed (in the collective modules, by one rank, after a
// barrier). Committing a generation with no files is an error — there is
// nothing to restore.
func Commit(fsys rt.FS, base string, epoch int64, tm float64) (*Manifest, error) {
	return CommitChained(fsys, base, epoch, tm, nil)
}

// CommitChained is Commit for a delta generation: chain records the base
// generation the delta resolves against, its chain depth, and the global
// pane universe at snapshot time. The base's commit record is read for its
// pin and its own links. A nil chain commits a full generation (exactly
// Commit). A delta generation may legitimately have no files — nothing was
// dirty — because its restorable state lives in the chain.
func CommitChained(fsys rt.FS, base string, epoch int64, tm float64, chain *ChainInfo) (*Manifest, error) {
	names, err := fsys.List(base + "_")
	if err != nil {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, err)
	}
	return commit(fsys, base, epoch, tm, chain, nil, names, nil, nil)
}

// commit is CommitChained over names, a listing that holds the generation's
// files (its Base_*.rhdf names are the generation), indexing them from what
// their writers reported publishing (catalog.Report, keyed by file name): a
// listed file with a report is recorded from it, one without — a dead
// writer's published file — has its directory read off the filesystem,
// counted on dirsRead, and a reported file the listing lacks (its rename
// was lost) refuses the commit. The record's bytes are the same either way.
// A delta's links come from its base's record: from known, which holds
// the records a Pending committed, or read off the filesystem. A delta
// whose base has no readable record is refused: it could never restore.
func commit(fsys rt.FS, base string, epoch int64, tm float64, chain *ChainInfo, known map[string]*Manifest,
	names []string, reported map[string]catalog.Report, dirsRead *metrics.Counter) (*Manifest, error) {
	m := &Manifest{Base: base, Epoch: epoch, Time: tm}
	if chain != nil {
		if chain.Base == "" || chain.Base == base {
			return nil, fmt.Errorf("snapshot: commit %s: invalid chain base %q", base, chain.Base)
		}
		if chain.Depth < 1 {
			return nil, fmt.Errorf("snapshot: commit %s: invalid chain depth %d", base, chain.Depth)
		}
		parent := known[chain.Base]
		if parent == nil {
			var err error
			if parent, err = Load(fsys, chain.Base); err != nil {
				return nil, fmt.Errorf("snapshot: commit %s: chain base: %w", base, err)
			}
		}
		m.Links = append([]Link{parent.link()}, parent.Links...)
		if len(m.Links) != chain.Depth {
			return nil, fmt.Errorf("snapshot: commit %s: chain depth %d, its base %s is at depth %d", base, chain.Depth, chain.Base, parent.ChainDepth)
		}
		if slices.ContainsFunc(m.Links, func(l Link) bool { return l.Base == base }) {
			return nil, fmt.Errorf("snapshot: commit %s: its chain already holds it", base)
		}
		for w, ids := range chain.Panes {
			if w == "" || slices.ContainsFunc(ids, func(id int) bool { return id < 0 }) {
				return nil, fmt.Errorf("snapshot: commit %s: pane universe %q holds a negative pane or has no name", base, w)
			}
		}
		m.BaseGeneration, m.ChainDepth, m.Panes = chain.Base, chain.Depth, chain.Panes
	}
	var files []FileEntry
	listed := make(map[string]bool, len(names))
	for _, name := range names {
		// Staged *.tmp residue is not part of the generation.
		if strings.HasPrefix(name, base+"_") && strings.HasSuffix(name, ".rhdf") {
			files = append(files, FileEntry{Name: name})
			listed[name] = true
		}
	}
	var lost []string
	for name := range reported {
		if strings.HasPrefix(name, base+"_") && !listed[name] {
			lost = append(lost, name)
		}
	}
	if len(lost) > 0 {
		sort.Strings(lost)
		return nil, fmt.Errorf("snapshot: commit %s: %s published but not on the filesystem", base, strings.Join(lost, ", "))
	}
	sections, _, entries, errs := deriveCatalog(fsys, files, reported, dirsRead)
	if len(errs) > 0 {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, errs[0])
	}
	m.Files = entries
	if len(m.Files) == 0 && chain == nil {
		return nil, fmt.Errorf("snapshot: commit %s: no snapshot files", base)
	}
	enc := encodeRecord(m, sections)
	if err := hdf.PublishFile(fsys, base+Suffix, enc); err != nil {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, err)
	}
	m.Size, m.CRC = int64(len(enc)), binary.LittleEndian.Uint32(enc[8:])
	return m, nil
}

// Load reads and validates the commit record of the generation under base.
func Load(fsys rt.FS, base string) (*Manifest, error) {
	buf, err := hdf.ReadFile(fsys, base+Suffix)
	if err != nil {
		return nil, err
	}
	m, _, err := decodeRecord(base, buf)
	return m, err
}

// decodeRecord is DecodeRecord of buf, the commit record read for base,
// errors naming base; the record must be base's own.
func decodeRecord(base string, buf []byte) (*Manifest, *catalog.Catalog, error) {
	m, cat, err := DecodeRecord(buf)
	if err == nil && m.Base != base {
		err = fmt.Errorf("the record of %s", m.Base)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: record %s: %w", base+Suffix, err)
	}
	return m, cat, nil
}

// encodeRecord is the one encoder of a commit record: m's fields and
// sections, the catalog's (catalog.Encode, or a Splice's), in the layout
// above. m's Files must be the catalog's files, in its order.
func encodeRecord(m *Manifest, sections []byte) []byte {
	b := make([]byte, recordHeader, 256+len(sections))
	copy(b, recordMagic)
	binary.LittleEndian.PutUint32(b[4:], recordVersion)
	b = hdf.AppendStr(b, m.Base)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Epoch))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Time))
	b = binary.AppendUvarint(b, uint64(len(m.Links)))
	for _, l := range m.Links {
		b = hdf.AppendStr(b, l.Base)
		b = binary.AppendUvarint(b, uint64(l.Size))
		b = binary.LittleEndian.AppendUint32(b, l.CRC)
	}
	if len(m.Links) > 0 {
		b = catalog.AppendPanes(b, m.Panes)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Files)))
	for _, e := range m.Files {
		b = binary.AppendUvarint(b, uint64(e.Size))
		b = binary.LittleEndian.AppendUint32(b, e.DirCRC)
		b = binary.AppendUvarint(b, uint64(e.Datasets))
	}
	b = append(b, sections...)
	binary.LittleEndian.PutUint32(b[8:], hdf.Checksum(b[recordHeader:]))
	return b
}

// DecodeRecord is the one decoder of commit record bytes — every load, the
// scrub and the fuzzer go through it. Beyond the magic, the version and the
// CRC32C it enforces the record's invariants: a named generation; distinct
// links, none the generation itself, at most maxChainDepth of them; a
// well-formed pane universe on a delta; a file table the catalog's sections
// match, each directory inside its file; and at least one file on a full
// generation. So downstream chain walks never see a record that lies about
// its own shape. A JSON manifest or a catalog blob of the older format is
// refused by name.
func DecodeRecord(buf []byte) (*Manifest, *catalog.Catalog, error) {
	if len(buf) < recordHeader || string(buf[:4]) != recordMagic {
		if old := legacyFormat(buf); old != "" {
			return nil, nil, fmt.Errorf("%s is an older format: this build reads commit record version %d only", old, recordVersion)
		}
		return nil, nil, fmt.Errorf("not a commit record")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != recordVersion {
		return nil, nil, fmt.Errorf("commit record version %d, want %d", v, recordVersion)
	}
	crc := binary.LittleEndian.Uint32(buf[8:])
	if got := hdf.Checksum(buf[recordHeader:]); got != crc {
		return nil, nil, fmt.Errorf("%w: commit record crc32c %08x, computed %08x", hdf.ErrChecksum, crc, got)
	}
	m := &Manifest{Size: int64(len(buf)), CRC: crc}
	c := hdf.NewCursor(buf[recordHeader:])
	m.Base = c.Str()
	m.Epoch = int64(c.U64())
	m.Time = math.Float64frombits(c.U64())
	nl := c.Fits(int(min(c.Uvarint(), maxChainDepth+1)), 2+1+4)
	if nl > maxChainDepth {
		return nil, nil, fmt.Errorf("chain of %d links exceeds depth %d", nl, maxChainDepth)
	}
	for range nl {
		l := Link{Base: c.Str(), Size: int64(c.Uvarint()), CRC: c.U32()}
		if c.Err() == nil && (l.Base == "" || l.Size < recordHeader) {
			return nil, nil, fmt.Errorf("chain link %q of %d bytes", l.Base, l.Size)
		}
		m.Links = append(m.Links, l)
	}
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	if m.Base == "" {
		return nil, nil, fmt.Errorf("empty base")
	}
	seen := map[string]bool{m.Base: true}
	for _, l := range m.Links {
		if seen[l.Base] {
			return nil, nil, fmt.Errorf("generation %q chained to %q twice or to itself", m.Base, l.Base)
		}
		seen[l.Base] = true
	}
	if m.ChainDepth = len(m.Links); m.ChainDepth > 0 {
		m.BaseGeneration = m.Links[0].Base
		panes, n, err := catalog.ReadPanes(buf[recordHeader+c.Offset():])
		if err != nil {
			return nil, nil, err
		}
		for w, ids := range panes {
			if w == "" {
				return nil, nil, fmt.Errorf("pane universe with empty window name")
			}
			if ids[0] < 0 {
				return nil, nil, fmt.Errorf("pane universe %q has negative pane %d", w, ids[0])
			}
		}
		m.Panes = panes
		c.Bytes(n)
	}
	nf := c.Fits(int(min(c.Uvarint(), math.MaxInt32)), 1+4+1)
	m.Files = make([]FileEntry, nf)
	for i := range m.Files {
		size, crc, sets := c.Uvarint(), c.U32(), c.Uvarint()
		if size > math.MaxInt64 || sets > math.MaxInt32 {
			return nil, nil, fmt.Errorf("file %d: %d bytes, %d datasets", i, size, sets)
		}
		m.Files[i] = FileEntry{Size: int64(size), DirCRC: crc, Datasets: int(sets)}
	}
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	cat, err := catalog.Decode(buf[recordHeader+c.Offset():])
	if err != nil {
		return nil, nil, err
	}
	if len(cat.Files) != nf {
		return nil, nil, fmt.Errorf("%d file pins, the catalog lists %d files", nf, len(cat.Files))
	}
	for f, name := range cat.Files {
		e := &m.Files[f]
		e.Name = name
		if name == "" {
			return nil, nil, fmt.Errorf("file entry with empty name")
		}
		if e.Size-cat.DirLen(f) < hdf.HeaderSize() {
			return nil, nil, fmt.Errorf("directory extent of %s: a %d-byte directory in a %d-byte file", name, cat.DirLen(f), e.Size)
		}
	}
	if nf == 0 && m.ChainDepth == 0 {
		return nil, nil, fmt.Errorf("full generation with no files")
	}
	return m, cat, nil
}

// legacyFormat names the older format buf is written in — a JSON manifest
// (which pinned a catalog file beside it) or a catalog blob, with
// its version — or returns "".
func legacyFormat(buf []byte) string {
	switch {
	case len(buf) >= 8 && string(buf[:4]) == catalog.Magic:
		return fmt.Sprintf("a %s catalog blob (version %d)", catalog.Suffix, binary.LittleEndian.Uint32(buf[4:]))
	case bytes.HasPrefix(bytes.TrimLeft(buf, " \t\r\n"), []byte("{")):
		schema := "of no known schema"
		if i := bytes.Index(buf, []byte(`"genxio-manifest/v`)); i >= 0 {
			if j := bytes.IndexByte(buf[i+1:], '"'); j >= 0 {
				schema = string(buf[i+1 : i+1+j])
			}
		}
		return fmt.Sprintf("a JSON manifest %s (with a %s file)", schema, catalog.Suffix)
	}
	return ""
}
