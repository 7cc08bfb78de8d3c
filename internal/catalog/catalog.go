// Package catalog implements the per-generation block catalog: a compact
// index mapping every (window, pane, dataset) in a committed snapshot
// generation to its exact byte extent — file, offset, stored length, and
// CRC32C. The committing rank builds it at snapshot commit from the
// directories of the generation's RHDF files (the writer's directory IS the
// per-file index, so no extra wire traffic is needed) and writes it as a
// single blob next to the manifest, before the manifest — the manifest is
// the commit record and always pins its catalog's size and CRC32C, so a
// generation either has its catalog or is not yet committed. A blob entry
// is a file index and the dataset's directory entry byte for byte, so the
// commit builds the blob by copying entries (Splice): each directory passes
// its one gate, hdf.RawDir.Walk, and no dataset is decoded on the way. Every
// entry carries its dataset's CRC32C, in the blob as in the directory; an
// entry without one is refused by both. A Catalog is the decoded blob
// (Decode) that readers plan from.
//
// At restart, servers consult the catalog to open only the files that
// contain requested panes and issue direct offset reads, each entry's bytes
// checked against its CRC. A full generation whose catalog file is missing
// or is not the blob its manifest pins is read the same way through the
// same catalog, derived again from its files' directories (snapshot.Index).
// The catalog also carries the generation's pane universe, which the
// deterministic repartitioner divides among restart ranks — allowing a
// restart topology (client and server counts) different from the writing
// run, per the paper's framing of restart as decoupled from the writing
// decomposition.
package catalog

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"genxio/internal/hdf"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// Magic identifies a catalog blob.
const Magic = "RCAT"

// Version is the current catalog format version.
const Version = 1

// Suffix is appended to a generation base name to form its catalog file,
// e.g. "run/snap000100" + Suffix.
const Suffix = ".catalog"

// headerSize is magic(4) + version(4) + bodyCRC(4).
const headerSize = 12

// Entry is one dataset's coordinates: which file, and that file's own
// directory entry for it — enough to locate, read, verify, and reconstruct
// the dataset without opening the file's directory.
type Entry struct {
	File        int // index into Catalog.Files
	hdf.Dataset     // Name is the full dataset path, /<window>/pane<ID>/<attr>

	// Parsed from Name for query convenience; not stored separately.
	Window string
	Pane   int
	Attr   string
}

func (e *Entry) offset() int64 { off, _ := e.Extent(); return off }

// Catalog is a generation's merged block index.
type Catalog struct {
	Files   []string // file names relative to the snapshot root
	Entries []Entry
}

// AddFile merges one file's dataset descriptors into the catalog and
// returns the file's index. Datasets whose names do not follow the pane
// path grammar (e.g. server-side "_meta" markers) are skipped — the catalog
// indexes restartable blocks, not bookkeeping. With Encode it is the
// decoded reference a Splice of the same directories must match.
func (c *Catalog) AddFile(name string, sets []*hdf.Dataset) int {
	idx := len(c.Files)
	c.Files = append(c.Files, name)
	for _, d := range sets {
		if window, pane, attr, ok := roccom.ParseDatasetName(d.Name); ok {
			c.Entries = append(c.Entries, Entry{File: idx, Dataset: *d, Window: window, Pane: pane, Attr: attr})
		}
	}
	return idx
}

// Encode serializes the catalog:
//
//	"RCAT" | u32 version | u32 crc32c(body) | body
//	body:  u32 nfiles | files... | u32 nentries | entries...
//	file:  u16 len | bytes
//	entry: u32 fileIdx | the dataset's RHDF directory entry
//	       (hdf.Dataset.AppendDirEntry)
func (c *Catalog) Encode() []byte {
	var entries []byte
	for i := range c.Entries {
		entries = binary.LittleEndian.AppendUint32(entries, uint32(c.Entries[i].File))
		entries = c.Entries[i].AppendDirEntry(entries)
	}
	return assembleBlob(c.Files, len(c.Entries), entries)
}

// assembleBlob writes a blob around n encoded entries: the header, the file
// table, the entry count and the body CRC32C.
func assembleBlob(files []string, n int, entries []byte) []byte {
	size := headerSize + 4 + 4 + len(entries)
	for _, f := range files {
		size += 2 + len(f)
	}
	blob := make([]byte, headerSize, size)
	copy(blob, Magic)
	binary.LittleEndian.PutUint32(blob[4:], Version)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(files)))
	for _, f := range files {
		blob = hdf.AppendStr(blob, f)
	}
	blob = binary.LittleEndian.AppendUint32(blob, uint32(n))
	blob = append(blob, entries...)
	binary.LittleEndian.PutUint32(blob[8:], hdf.Checksum(blob[headerSize:]))
	return blob
}

// Splice builds a catalog blob the way a commit does: each file's
// directory entries pass the directory's one gate (hdf.RawDir.Walk) and
// the pane-path grammar, and are copied into the body as they stand — no
// dataset is decoded and encoded again. The blob is the one AddFile and
// Encode make of the same directories (FuzzDirSplice). The zero value is
// empty.
type Splice struct {
	files   []string
	n       int
	entries []byte // n × { u32 fileIdx | directory entry }
}

// AddDir indexes d's pane datasets under the next file index. A directory
// that fails the gate adds nothing and its error says why.
func (s *Splice) AddDir(d hdf.RawDir) error {
	mark, n, idx := len(s.entries), s.n, uint32(len(s.files))
	// An entry is at least 27 bytes and gains its 4-byte file index here, so
	// the directory's quarter again holds whatever it adds.
	s.entries = slices.Grow(s.entries, len(d.Bytes)+len(d.Bytes)/4)
	err := d.Walk(func(e *hdf.DirEntry) {
		if _, _, _, ok := roccom.ParseDatasetName(e.Name); ok {
			s.entries = binary.LittleEndian.AppendUint32(s.entries, idx)
			s.entries = e.Append(s.entries)
			s.n++
		}
	})
	if err != nil {
		s.entries, s.n = s.entries[:mark], n
		return err
	}
	s.files = append(s.files, d.Name)
	return nil
}

// Blob returns the catalog blob of the directories added.
func (s *Splice) Blob() []byte { return assembleBlob(s.files, s.n, s.entries) }

// Decode parses a catalog blob, verifying magic, version, and the body
// checksum. All malformed-input paths are errors, never panics.
func Decode(blob []byte) (*Catalog, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("catalog: blob too short (%d bytes)", len(blob))
	}
	if string(blob[:4]) != Magic {
		return nil, fmt.Errorf("catalog: bad magic")
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != Version {
		return nil, fmt.Errorf("catalog: version %d, want %d", v, Version)
	}
	body := blob[headerSize:]
	if want, got := binary.LittleEndian.Uint32(blob[8:]), hdf.Checksum(body); got != want {
		return nil, fmt.Errorf("%w: catalog body crc32c %08x, computed %08x", hdf.ErrChecksum, want, got)
	}
	p := hdf.NewCursor(body)
	c := &Catalog{}
	// Every count is capped by what the remaining bytes could hold before
	// it sizes an allocation: a file record is at least 2 bytes, the
	// smallest entry (empty name, no dims, no attrs) 4+2+1+1+1+8+8+4+2 = 31.
	// Every entry must carry its CRC (Cursor.DirEntry), as in a directory.
	nf := p.Fits(int(p.U32()), 2)
	c.Files = make([]string, 0, nf)
	for i := 0; i < nf; i++ {
		c.Files = append(c.Files, p.Str())
	}
	ne := p.Fits(int(p.U32()), 31)
	if p.Err() != nil {
		return nil, fmt.Errorf("catalog: corrupt header: %w", p.Err())
	}
	c.Entries = make([]Entry, 0, ne)
	for i := 0; i < ne; i++ {
		var e Entry
		e.File = int(p.U32())
		p.DirEntry(&e.Dataset)
		if p.Err() != nil {
			return nil, fmt.Errorf("catalog: corrupt at entry %d: %w", i, p.Err())
		}
		if e.File < 0 || e.File >= len(c.Files) {
			return nil, fmt.Errorf("catalog: entry %d references file %d of %d", i, e.File, len(c.Files))
		}
		if off, length := e.Extent(); off < 0 || length < 0 || off+length < off {
			return nil, fmt.Errorf("catalog: entry %d has bad extent [%d,+%d)", i, off, length)
		}
		window, pane, attr, ok := roccom.ParseDatasetName(e.Name)
		if !ok {
			return nil, fmt.Errorf("catalog: entry %d has unparseable dataset name %q", i, e.Name)
		}
		e.Window, e.Pane, e.Attr = window, pane, attr
		c.Entries = append(c.Entries, e)
	}
	if err := p.End(); err != nil {
		return nil, fmt.Errorf("catalog: %w after %d entries", err, ne)
	}
	return c, nil
}

// Write publishes c's blob the way WriteBlob does.
func Write(fsys rt.FS, base string, c *Catalog) (size int64, crc uint32, err error) {
	return WriteBlob(fsys, base, c.Encode())
}

// WriteBlob stages blob at base+Suffix+tmp and renames it into place,
// returning its size and whole-blob CRC32C for the manifest's catalog
// reference. It must be called before the manifest commit so the
// generation's commit record never points at a missing catalog.
func WriteBlob(fsys rt.FS, base string, blob []byte) (size int64, crc uint32, err error) {
	if err := hdf.PublishFile(fsys, base+Suffix, blob); err != nil {
		return 0, 0, fmt.Errorf("catalog: writing %s: %w", base+Suffix, err)
	}
	return int64(len(blob)), hdf.Checksum(blob), nil
}

// ServerFile names one copy of a Rocpanda server's snapshot file — the one
// place the grammar is spelled: "base_sHHH.rhdf" is the primary written by
// server HHH, "base_sHHHrN.rhdf" the N-th replica (N ≥ 1) homed in server
// HHH's file set and written by another server.
func ServerFile(base string, home, replica int) string {
	name := fmt.Sprintf("%s_s%03d", base, home)
	if replica > 0 {
		name += "r" + strconv.Itoa(replica)
	}
	return name + ".rhdf"
}

// ParseServerFile is ServerFile's inverse: the generation base, the home
// server index and the replica rank of a server file name. ok is false for
// anything outside the grammar — per-rank files ("base_p00000.rhdf"),
// manifests, staged temporaries, empty or non-digit index parts.
func ParseServerFile(name string) (base string, home, replica int, ok bool) {
	base, index, ok := cutIndex(name, 's')
	if !ok {
		return "", 0, 0, false
	}
	// ParseUint takes digits only — no sign, no empty string — and 31 bits
	// keep the indices inside an int everywhere.
	homeDigits, repDigits, hasRep := strings.Cut(index, "r")
	h, err := strconv.ParseUint(homeDigits, 10, 31)
	var r uint64
	if err == nil && hasRep {
		r, err = strconv.ParseUint(repDigits, 10, 31)
	}
	if err != nil {
		return "", 0, 0, false
	}
	return base, int(h), int(r), true
}

// cutIndex splits "base_<kind><index>.rhdf" into base and index.
func cutIndex(name string, kind byte) (base, index string, ok bool) {
	n, isRHDF := strings.CutSuffix(name, ".rhdf")
	i := strings.LastIndexByte(n, '_')
	if !isRHDF || i < 0 || i+1 >= len(n) || n[i+1] != kind {
		return "", "", false
	}
	return n[:i], n[i+2:], true
}

// RankFile names a rank's file of an individual-I/O snapshot:
// "base_pNNNNN.rhdf", one per writing process.
func RankFile(base string, rank int) string {
	return fmt.Sprintf("%s_p%05d.rhdf", base, rank)
}

// ParseRankFile is RankFile's inverse.
func ParseRankFile(name string) (base string, rank int, ok bool) {
	base, index, ok := cutIndex(name, 'p')
	r, err := strconv.ParseUint(index, 10, 31)
	if !ok || err != nil {
		return "", 0, false
	}
	return base, int(r), true
}

// ParseDataFile reads either spelling of a snapshot data file: its
// generation base and its home index — the server whose file set a server
// file belongs to, or the rank that wrote a rank file. The home is what a
// restart deals files by.
func ParseDataFile(name string) (base string, home int, ok bool) {
	if base, home, _, ok = ParseServerFile(name); ok {
		return base, home, true
	}
	return ParseRankFile(name)
}

// ReplicaRank reports which copy of a server's output a snapshot file
// holds: 0 for a primary, r ≥ 1 for the r-th replica. Per-rank files and
// anything else outside the server-file grammar have no replicas and rank 0.
func ReplicaRank(name string) int {
	_, _, replica, _ := ParseServerFile(name)
	return replica
}

// Panes returns the sorted set of pane IDs present in a window — the
// generation's pane universe, the input to the repartitioner.
func (c *Catalog) Panes(window string) []int {
	seen := make(map[int]bool)
	for i := range c.Entries {
		if c.Entries[i].Window == window {
			seen[c.Entries[i].Pane] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// FilePlan is the read plan for one file: which entries to fetch, sorted by
// offset so adjacent extents coalesce into single reads.
type FilePlan struct {
	File    string
	Entries []Entry
}

// PlanReads builds per-file read plans covering the wanted panes of a
// window. When a pane appears in more than one file (failover re-ships
// blocks to an adopting server, or replication writes extra copies), only
// one copy is planned: a primary over any replica, and among files of the
// same replica rank the earliest-indexed one. Plans come back in file-index
// order with entries sorted by offset.
func (c *Catalog) PlanReads(window string, wanted map[int]bool) []FilePlan {
	fileOf := make(map[int]int) // pane → preferred file index holding it
	for i := range c.Entries {
		e := &c.Entries[i]
		if e.Window != window || !wanted[e.Pane] {
			continue
		}
		if cur, ok := fileOf[e.Pane]; !ok || c.betterSource(e.File, cur) {
			fileOf[e.Pane] = e.File
		}
	}
	byFile := make(map[int][]Entry)
	for i := range c.Entries {
		e := &c.Entries[i]
		if e.Window != window || fileOf[e.Pane] != e.File || !wanted[e.Pane] {
			continue
		}
		byFile[e.File] = append(byFile[e.File], *e)
	}
	return c.filePlans(byFile, func(a, b int) bool { return a < b })
}

// filePlans turns entries grouped by file index into single-file plans,
// files ordered by before, entries offset-sorted.
func (c *Catalog) filePlans(byFile map[int][]Entry, before func(a, b int) bool) []FilePlan {
	idxs := make([]int, 0, len(byFile))
	for idx := range byFile {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(a, b int) bool { return before(idxs[a], idxs[b]) })
	plans := make([]FilePlan, 0, len(idxs))
	for _, idx := range idxs {
		ents := byFile[idx]
		sort.Slice(ents, func(a, b int) bool { return ents[a].offset() < ents[b].offset() })
		plans = append(plans, FilePlan{File: c.Files[idx], Entries: ents})
	}
	return plans
}

// betterSource reports whether file index a is a strictly better source
// than b: lower replica rank wins (primaries before replicas), then lower
// file index for determinism.
func (c *Catalog) betterSource(a, b int) bool {
	ra, rb := ReplicaRank(c.Files[a]), ReplicaRank(c.Files[b])
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// PaneSources returns every file holding a copy of a pane's datasets, as
// single-file plans ordered best-first: primaries before replicas, lower
// file index first within a rank, entries offset-sorted. The restart read
// path walks this list when a planned copy fails its open/read/CRC —
// deterministic retry order, so every server agrees on which copy repairs
// a pane.
func (c *Catalog) PaneSources(window string, pane int) []FilePlan {
	byFile := make(map[int][]Entry)
	for i := range c.Entries {
		e := &c.Entries[i]
		if e.Window != window || e.Pane != pane {
			continue
		}
		byFile[e.File] = append(byFile[e.File], *e)
	}
	return c.filePlans(byFile, c.betterSource)
}

// ResolvePanes walks a delta chain's catalogs newest first (cats[0] is
// the head generation, the last element its full base) and assigns each
// wanted pane of a window to exactly one generation: the newest one
// whose catalog contains it — that generation rewrote the pane last, so
// every older copy is stale. The result is parallel to cats; feed each
// per-generation set to that catalog's PlanReads (and, on a failed read,
// PaneSources) so chain resolution composes with the replica-preferring
// dedup and retry order unchanged. Panes found in no catalog are absent
// from every set — the caller's incomplete-restart accounting applies.
func ResolvePanes(cats []*Catalog, window string, wanted map[int]bool) []map[int]bool {
	assign := make([]map[int]bool, len(cats))
	resolved := make(map[int]bool, len(wanted))
	for i, c := range cats {
		assign[i] = make(map[int]bool)
		if c == nil {
			continue
		}
		for j := range c.Entries {
			e := &c.Entries[j]
			if e.Window != window || !wanted[e.Pane] || resolved[e.Pane] {
				continue
			}
			assign[i][e.Pane] = true
		}
		for id := range assign[i] {
			resolved[id] = true
		}
	}
	return assign
}

// Run is one contiguous byte range to read from a file.
type Run struct {
	Offset, Length int64
}

// Coalesce merges offset-sorted entries into contiguous read runs,
// combining extents whose gap is at most maxGap bytes — the request-merging
// optimization from the MPI-IO noncontiguous-access literature, made
// possible by having an index at all.
func Coalesce(entries []Entry, maxGap int64) []Run {
	var runs []Run
	for i := range entries {
		off, length := entries[i].Extent()
		end := off + length
		if n := len(runs); n > 0 && off <= runs[n-1].Offset+runs[n-1].Length+maxGap {
			if end > runs[n-1].Offset+runs[n-1].Length {
				runs[n-1].Length = end - runs[n-1].Offset
			}
			continue
		}
		runs = append(runs, Run{Offset: off, Length: length})
	}
	return runs
}

// Repartition deterministically assigns a pane universe to n ranks:
// pane IDs are sorted ascending, deduplicated, and dealt round-robin, so
// sorted[i] goes to rank i%n. Every rank computes the same assignment from
// the same universe with no communication, and the universe comes from the
// catalog — the mechanism that decouples restart topology from the writing
// run's decomposition.
func Repartition(ids []int, n int) [][]int {
	if n <= 0 {
		return nil
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	out := make([][]int, n)
	prev := 0
	k := 0
	for _, id := range sorted {
		if k > 0 && id == prev {
			continue
		}
		out[k%n] = append(out[k%n], id)
		prev = id
		k++
	}
	return out
}
