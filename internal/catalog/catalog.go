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
// entry without one is refused by both. A Catalog is the blob's entry
// bytes in place plus a light index over them, one Entry per dataset (file,
// interned window and attr, pane, extent, place in the blob), which Decode
// builds in one validating walk and readers plan from; a dataset's name,
// dims and attributes are decoded (Catalog.Dataset) only for an entry a
// reader delivers.
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
	"cmp"
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

// Entry is one dataset's coordinates in a catalog's index: which file,
// the pane path its name spells, its payload's extent, and where its
// directory entry sits in the catalog's blob — enough to plan and coalesce
// reads without decoding the entry; Catalog.Dataset decodes it for the
// dataset's name, dims, attributes and CRC.
type Entry struct {
	File   int    // index into Catalog.Files
	Window string // interned: a catalog holds each window and attr name once
	Pane   int
	Attr   string

	offset, length int64
	at             int // its record's offset in the catalog's entry bytes
}

// Extent returns the file offset and stored byte length of the entry's
// payload.
func (e *Entry) Extent() (offset, length int64) { return e.offset, e.length }

// Catalog is a generation's merged block index: its blob's entry bytes
// and, over them, one Entry per dataset.
type Catalog struct {
	Files   []string // file names relative to the snapshot root
	Entries []Entry

	ranks   []int             // each file's ReplicaRank, parallel to Files
	entries []byte            // len(Entries) × { u32 fileIdx | directory entry }
	names   map[string]string // the interned window and attr names
}

// AddFile merges one file's dataset descriptors into the catalog and
// returns the file's index. Datasets whose names do not follow the pane
// path grammar (e.g. server-side "_meta" markers) are skipped — the catalog
// indexes restartable blocks, not bookkeeping. With Encode it is the
// decoded reference a Splice of the same directories must match.
func (c *Catalog) AddFile(name string, sets []*hdf.Dataset) int {
	idx := c.addFile(name)
	for _, d := range sets {
		if window, pane, attr, ok := roccom.ParseDatasetName(d.Name); ok {
			at := len(c.entries)
			c.entries = binary.LittleEndian.AppendUint32(c.entries, uint32(idx))
			c.entries = d.AppendDirEntry(c.entries)
			off, length := d.Extent()
			c.Entries = append(c.Entries, Entry{File: idx, Window: c.intern([]byte(window)), Pane: pane,
				Attr: c.intern([]byte(attr)), offset: off, length: length, at: at})
		}
	}
	return idx
}

// addFile appends a file to the file table and returns its index.
func (c *Catalog) addFile(name string) int {
	c.Files = append(c.Files, name)
	c.ranks = append(c.ranks, ReplicaRank(name))
	return len(c.Files) - 1
}

// intern returns the catalog's one copy of the name b spells.
func (c *Catalog) intern(b []byte) string {
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	if c.names == nil {
		c.names = make(map[string]string)
	}
	s := string(b)
	c.names[s] = s
	return s
}

// Dataset decodes e's directory entry: the dataset's name, type, dims,
// attributes (views of the catalog's bytes), extent and CRC. e must be one
// of c's entries.
func (c *Catalog) Dataset(e *Entry) hdf.Dataset {
	var d hdf.Dataset
	hdf.NewCursor(c.entries[e.at+4:]).DirEntry(&d)
	return d
}

// Encode serializes the catalog:
//
//	"RCAT" | u32 version | u32 crc32c(body) | body
//	body:  u32 nfiles | files... | u32 nentries | entries...
//	file:  u16 len | bytes
//	entry: u32 fileIdx | the dataset's RHDF directory entry
//	       (hdf.Dataset.AppendDirEntry)
func (c *Catalog) Encode() []byte { return assembleBlob(c.Files, len(c.Entries), c.entries) }

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
// checksum, and indexes it in one walk with the directory's entry parser
// (hdf.Cursor.Entry): every entry must carry its CRC, reference a file of
// the table, have a sane extent and a pane-path name, and nothing may
// follow the last. No dataset is decoded (Catalog.Dataset does that for an
// entry a reader delivers); the catalog keeps the blob's entry bytes in
// place. All malformed-input paths are errors, never panics.
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
	nf := p.Fits(int(p.U32()), 2)
	c.Files, c.ranks = make([]string, 0, nf), make([]int, 0, nf)
	for i := 0; i < nf; i++ {
		c.addFile(p.Str())
	}
	ne := p.Fits(int(p.U32()), 31)
	if p.Err() != nil {
		return nil, fmt.Errorf("catalog: corrupt header: %w", p.Err())
	}
	start := p.Offset()
	c.entries = body[start:len(body):len(body)]
	c.Entries = make([]Entry, 0, ne)
	var d hdf.DirEntry
	for i := 0; i < ne; i++ {
		at := p.Offset() - start
		file := int(p.U32())
		if p.Entry(&d); p.Err() != nil {
			return nil, fmt.Errorf("catalog: corrupt at entry %d: %w", i, p.Err())
		}
		if file < 0 || file >= len(c.Files) {
			return nil, fmt.Errorf("catalog: entry %d references file %d of %d", i, file, len(c.Files))
		}
		off, length := d.Extent()
		if off < 0 || length < 0 || off+length < off {
			return nil, fmt.Errorf("catalog: entry %d has bad extent [%d,+%d)", i, off, length)
		}
		window, pane, attr, ok := roccom.ParseDatasetName(d.Name)
		if !ok {
			return nil, fmt.Errorf("catalog: entry %d has unparseable dataset name %q", i, d.Name)
		}
		c.Entries = append(c.Entries, Entry{File: file, Window: c.intern(window), Pane: pane,
			Attr: c.intern(attr), offset: off, length: length, at: at})
	}
	if err := p.End(); err != nil {
		return nil, fmt.Errorf("catalog: %w after %d entries", err, ne)
	}
	return c, nil
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
	var ids []int
	for i := range c.Entries {
		if c.Entries[i].Window == window {
			ids = append(ids, c.Entries[i].Pane)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
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
	return c.PlanFiles(window, wanted, nil)
}

// PlanFiles is PlanReads for the files keep accepts (nil: every file):
// each wanted pane's copy is still chosen among every file, and a kept
// file's plan is the one PlanReads gives it, so processes keeping disjoint
// files plan disjoint shares of one PlanReads. Files are judged by keep
// once each, and no plan is built for a file it refuses.
func (c *Catalog) PlanFiles(window string, wanted map[int]bool, keep func(file string) bool) []FilePlan {
	// A copy is a run of consecutive wanted entries of one pane in one file:
	// a writer puts a pane's datasets together, so a directory holds about
	// one run per pane, not one per dataset, and the choice among a pane's
	// copies sorts runs.
	type run struct{ pane, file, start, end int }
	planned := make([]bool, len(c.Entries))
	for i := range c.Entries {
		planned[i] = c.Entries[i].Window == window && wanted[c.Entries[i].Pane]
	}
	starts := func(i int) bool { // entry i begins a run
		return planned[i] && (i == 0 || !planned[i-1] ||
			c.Entries[i-1].Pane != c.Entries[i].Pane || c.Entries[i-1].File != c.Entries[i].File)
	}
	n := 0
	for i := range c.Entries {
		if starts(i) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	runs := make([]run, 0, n)
	for i := range c.Entries {
		if starts(i) {
			runs = append(runs, run{c.Entries[i].Pane, c.Entries[i].File, i, i + 1})
		} else if planned[i] {
			runs[len(runs)-1].end++
		}
	}
	// Each pane's runs, its best source's first: the runs of any other file
	// are not planned, nor those of a file keep refuses.
	slices.SortFunc(runs, func(a, b run) int {
		return cmp.Or(cmp.Compare(a.pane, b.pane), c.compareSources(a.file, b.file), cmp.Compare(a.start, b.start))
	})
	kept := make([]bool, len(c.Files))
	for f, name := range c.Files {
		kept[f] = keep == nil || keep(name)
	}
	n = 0
	for k := 0; k < len(runs); {
		src := runs[k].file
		for pane := runs[k].pane; k < len(runs) && runs[k].pane == pane; k++ {
			if r := runs[k]; r.file == src && kept[src] {
				n += r.end - r.start
			} else {
				clear(planned[r.start:r.end])
			}
		}
	}
	sel := make([]Entry, 0, n)
	for i := range c.Entries {
		if planned[i] {
			sel = append(sel, c.Entries[i])
		}
	}
	return c.filePlans(sel, cmp.Compare[int])
}

// filePlans cuts entries into single-file plans: files ordered by order,
// each file's entries by offset, then by their place in the blob — an order
// entries already in it keep without a sort.
func (c *Catalog) filePlans(sel []Entry, order func(a, b int) int) []FilePlan {
	byPlace := func(a, b Entry) int {
		return cmp.Or(order(a.File, b.File), cmp.Compare(a.offset, b.offset), cmp.Compare(a.at, b.at))
	}
	if !slices.IsSortedFunc(sel, byPlace) {
		slices.SortFunc(sel, byPlace)
	}
	var plans []FilePlan
	for len(sel) > 0 {
		n := 1
		for n < len(sel) && sel[n].File == sel[0].File {
			n++
		}
		plans = append(plans, FilePlan{File: c.Files[sel[0].File], Entries: sel[:n:n]})
		sel = sel[n:]
	}
	return plans
}

// compareSources orders file indices as sources of a pane, better first:
// lower replica rank (primaries before replicas), then lower file index.
func (c *Catalog) compareSources(a, b int) int {
	return cmp.Or(cmp.Compare(c.ranks[a], c.ranks[b]), cmp.Compare(a, b))
}

// PaneSources returns every file holding a copy of a pane's datasets, as
// single-file plans ordered best-first: primaries before replicas, lower
// file index first within a rank, entries offset-sorted. The restart read
// path walks this list when a planned copy fails its open/read/CRC —
// deterministic retry order, so every server agrees on which copy repairs
// a pane.
func (c *Catalog) PaneSources(window string, pane int) []FilePlan {
	var sel []Entry
	for i := range c.Entries {
		if e := &c.Entries[i]; e.Window == window && e.Pane == pane {
			sel = append(sel, *e)
		}
	}
	return c.filePlans(sel, c.compareSources)
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
			if j > 0 && e.Pane == c.Entries[j-1].Pane && e.Window == c.Entries[j-1].Window {
				continue // a pane's datasets sit together: the first decided
			}
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
