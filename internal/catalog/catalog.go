// Package catalog implements the per-generation block catalog: a compact
// index of where every (window, pane) of a committed snapshot generation
// lives — which files hold a copy of it — and of where each file's own
// index, its RHDF directory, lies. The committing rank builds it at
// snapshot commit from what the generation's writers reported of their
// files' directories (the writer's directory IS the per-file index, so no
// extra wire traffic is needed), and the generation's commit record
// (internal/snapshot) carries its sections: the record is published last,
// under one CRC32C, so a generation either has its catalog or is not yet
// committed.
//
// The sections (sections.go) are the file table — each file's name and the
// exact length of its directory — and a compact pane index (per file and
// window, the sorted pane IDs). They hold no copy of any directory entry:
// each directory is kept in one place, its file, where the commit record
// pins its bytes (size and directory CRC32C). The commit builds the
// sections (Splice) from the directories the writers reported: each passes
// its one gate, hdf.RawDir.Walk, and no dataset is decoded on the way.
//
// A Catalog is the file table and pane index, plus the directories loaded
// so far — each one's bytes in place and a light index over them, one
// Entry per pane dataset (file, interned window and attr, pane, extent,
// place in the directory). Decode reads the sections; a reader loads the
// directories of the files it reads from (LoadDir), each read from the end
// of its file. Resolution, source choice and the pane universe work from
// the pane index alone; only a file's plan needs its directory. A
// dataset's name, dims and attributes are decoded (Catalog.Dataset) only
// for an entry a reader delivers.
//
// At restart, servers consult the catalog to open only the files that
// contain requested panes and issue direct offset reads, each entry's bytes
// checked against its CRC. Files no commit record describes are read the
// same way through the same catalog, derived from their own directories
// (the snapshot package's deriveCatalog).
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
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"genxio/internal/hdf"
	"genxio/internal/roccom"
)

// Suffix and Magic are the retired catalog file's: the suffix a generation
// base took to name it ("run/snap000100" + Suffix) and the first bytes of
// its blob, up to version 3. A commit record carries the catalog's sections
// now, and a reader names these only to refuse the older format.
const (
	Suffix = ".catalog"
	Magic  = "RCAT"
)

// Entry is one dataset's coordinates in a catalog's index: which file,
// the pane path its name spells, its payload's extent, and where its
// directory entry sits in its file's directory — enough to plan and coalesce
// reads without decoding the entry; Catalog.Dataset decodes it for the
// dataset's name, dims, attributes and CRC.
type Entry struct {
	File   int    // index into Catalog.Files
	Window string // interned: a catalog holds each window and attr name once
	Pane   int
	Attr   string

	offset, length int64
	at             int // its entry's offset in its file's directory
}

// Extent returns the file offset and stored byte length of the entry's
// payload.
func (e *Entry) Extent() (offset, length int64) { return e.offset, e.length }

// Catalog is a generation's merged block index: its file table and pane
// index and, over the directories loaded, one Entry per pane dataset.
type Catalog struct {
	Files []string // file names relative to the snapshot root
	// Entries holds every entry, file by file in directory order, once every
	// directory is loaded: from the start for a catalog AddFile built, after
	// LoadDir of each file for one Decode returned. Until then it is nil and
	// each loaded directory's entries stay with the directory.
	Entries []Entry

	ranks []int // each file's ReplicaRank, parallel to Files

	// The pane index: file f's record is index[indexEnd[f-1]:indexEnd[f]]
	// (from 0 for f = 0), and its windows lists[listEnd[f-1]:listEnd[f]].
	index    []byte
	indexEnd []int
	lists    []paneList
	listEnd  []int
	ids      []int // the lists' pane IDs, end to end

	dirs    []dir             // parallel to Files
	missing int               // directories not loaded
	names   map[string]string // the interned window and attr names
}

// paneList is one file's panes of one window, ascending.
type paneList struct {
	window string
	ids    []int
}

// dir is one file's directory: its length, and its bytes and pane
// entries once loaded.
type dir struct {
	len    int64
	b      []byte
	ents   []Entry
	loaded bool
}

// AddFile merges one file's dataset descriptors — its whole directory, in
// order — into the catalog and returns the file's index. Datasets whose
// names do not follow the pane path grammar (e.g. server-side "_meta"
// markers) are not indexed — the catalog indexes restartable blocks, not
// bookkeeping — but their entries count in the directory's length. With
// Encode it is the decoded reference a Splice of the same directories must
// match; it builds a catalog from nothing (the zero value), every
// directory loaded, and is not for one Decode returned.
func (c *Catalog) AddFile(name string, sets []*hdf.Dataset) int {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(sets)))
	first := len(c.Entries)
	var pairs []panePair[string]
	for _, d := range sets {
		at := len(b)
		b = d.AppendDirEntry(b)
		if window, pane, attr, ok := roccom.ParseDatasetName(d.Name); ok {
			off, length := d.Extent()
			c.Entries = append(c.Entries, Entry{File: len(c.Files), Window: c.intern([]byte(window)), Pane: pane,
				Attr: c.intern([]byte(attr)), offset: off, length: length, at: at})
			pairs = append(pairs, panePair[string]{window, pane})
		}
	}
	idx := c.addFile(name, int64(len(b)))
	rec, _ := appendRecord(nil, pairs)
	c.index = append(c.index, rec...)
	if _, err := c.readRecord(rec); err != nil {
		panic("catalog: AddFile's own pane index record does not read: " + err.Error())
	}
	c.indexEnd = append(c.indexEnd, len(c.index))
	c.dirs[idx] = dir{len: int64(len(b)), b: b, ents: c.Entries[first:], loaded: true}
	return idx
}

// addFile appends a file with a directory of dirLen bytes, not loaded, to
// the file table and returns its index.
func (c *Catalog) addFile(name string, dirLen int64) int {
	c.Files = append(c.Files, name)
	c.ranks = append(c.ranks, ReplicaRank(name))
	c.dirs = append(c.dirs, dir{len: dirLen})
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
	hdf.NewCursor(c.dirs[e.File].b[e.at:]).DirEntry(&d)
	return d
}

// Encode serializes a whole catalog's sections in the layout sections.go
// gives.
func (c *Catalog) Encode() []byte {
	return appendSections(len(c.Files), func(f int) (string, int64) { return c.Files[f], c.dirs[f].len }, c.index)
}

// Splice builds a catalog's sections the way a commit does: each file's
// directory passes the directory's one gate (walkPanes) and the pane-path
// grammar, and the same pass collects the file's pane index record — no
// dataset is decoded — while the file table records the directory's length.
// The sections are the ones AddFile and Encode make of the same directories
// (FuzzDirSplice). The zero value is empty.
type Splice struct {
	files []splicedFile
	index []byte             // the pane index records, file by file
	pairs []panePair[[]byte] // scratch: one directory's (window, pane)s
}

// splicedFile is one file of a Splice: its name and directory length.
type splicedFile struct {
	name   string
	dirLen int64
}

// AddDir indexes d's pane datasets under the next file index. A directory
// that fails the gate adds nothing and its error says why.
func (s *Splice) AddDir(d hdf.RawDir) error {
	index, err := s.appendIndex(s.index, d)
	if err != nil {
		return err
	}
	s.index = index
	s.files = append(s.files, splicedFile{name: d.Name, dirLen: int64(len(d.Bytes))})
	return nil
}

// appendIndex passes d through the gate (walkPanes) and appends its pane
// index record to dst.
func (s *Splice) appendIndex(dst []byte, d hdf.RawDir) ([]byte, error) {
	if len(d.Bytes) > math.MaxUint32 {
		return dst, fmt.Errorf("catalog: %s has a %d-byte directory", d.Name, len(d.Bytes))
	}
	s.pairs = s.pairs[:0]
	err := walkPanes(d, func(_ *hdf.DirEntry, _ int, window []byte, pane int, _ []byte) {
		if s.pairs == nil || cap(s.pairs) < d.Count {
			s.pairs = make([]panePair[[]byte], 0, d.Count) // Walk has bounded Count by the bytes
		}
		s.pairs = append(s.pairs, panePair[[]byte]{window, pane})
	})
	if err != nil {
		return dst, err
	}
	dst, _ = appendRecord(dst, s.pairs)
	clear(s.pairs) // the windows are views of d's bytes
	return dst, nil
}

// Blob returns the catalog's sections of the directories added.
func (s *Splice) Blob() []byte {
	return appendSections(len(s.files), func(f int) (string, int64) { return s.files[f].name, s.files[f].dirLen }, s.index)
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

// Windows returns the windows the catalog's pane index names, ascending.
func (c *Catalog) Windows() []string {
	var ws []string
	for _, l := range c.lists {
		ws = append(ws, l.window)
	}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// Panes returns the sorted set of pane IDs present in a window — the
// generation's pane universe, the input to the repartitioner. It reads the
// pane index alone.
func (c *Catalog) Panes(window string) []int {
	var ids []int
	for _, l := range c.lists {
		if l.window == window {
			ids = append(ids, l.ids...)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// list returns file f's panes of window, ascending; nil if it has none.
func (c *Catalog) list(f int, window string) []int {
	start := 0
	if f > 0 {
		start = c.listEnd[f-1]
	}
	for _, l := range c.lists[start:c.listEnd[f]] {
		if l.window == window {
			return l.ids
		}
	}
	return nil
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

// choice is one wanted pane and the file holding its best copy.
type choice struct{ file, pane int }

// choose picks, from the pane index alone, each wanted pane's best copy in
// window: among the files holding it, the first by compareSources. The
// choices come back ordered by file, then pane.
func (c *Catalog) choose(window string, wanted map[int]bool) []choice {
	n := 0
	for f := range c.Files {
		for _, id := range c.list(f, window) {
			if wanted[id] {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	copies := make([]choice, 0, n)
	for f := range c.Files {
		for _, id := range c.list(f, window) {
			if wanted[id] {
				copies = append(copies, choice{f, id})
			}
		}
	}
	// Each pane's copies, its best first; keep the first of each.
	slices.SortFunc(copies, func(a, b choice) int {
		return cmp.Or(cmp.Compare(a.pane, b.pane), c.compareSources(a.file, b.file))
	})
	best := copies[:1]
	for _, ch := range copies[1:] {
		if ch.pane != best[len(best)-1].pane {
			best = append(best, ch)
		}
	}
	slices.SortFunc(best, func(a, b choice) int { return cmp.Or(cmp.Compare(a.file, b.file), cmp.Compare(a.pane, b.pane)) })
	return best
}

// Sources returns the files PlanFiles plans from for the same arguments —
// each wanted pane's best copy (chosen from the pane index alone, among
// every file) where keep (nil: every file) accepts its file — ascending,
// and for each the panes it is the best copy of, ascending. These are the
// files whose directories a plan needs loaded.
func (c *Catalog) Sources(window string, wanted map[int]bool, keep func(file string) bool) (files []int, panes [][]int) {
	best := c.choose(window, wanted)
	for len(best) > 0 {
		n := 1
		for n < len(best) && best[n].file == best[0].file {
			n++
		}
		if f := best[0].file; keep == nil || keep(c.Files[f]) {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = best[i].pane
			}
			files, panes = append(files, f), append(panes, ids)
		}
		best = best[n:]
	}
	return files, panes
}

// PlanFiles is PlanReads for the files keep accepts (nil: every file):
// each wanted pane's copy is still chosen among every file, and a kept
// file's plan is the one PlanReads gives it, so processes keeping disjoint
// files plan disjoint shares of one PlanReads. Files are judged by keep at
// most once each, and no plan is built for a file it refuses. The choice
// reads the pane index alone; a kept file's plan needs its directory, and a
// file whose directory is not loaded (LoadDir) gets none — Sources names
// the directories to load first.
func (c *Catalog) PlanFiles(window string, wanted map[int]bool, keep func(file string) bool) []FilePlan {
	best := c.choose(window, wanted)
	n := 0
	for i := 0; i < len(best); i++ {
		if i == 0 || best[i].file != best[i-1].file {
			n += len(c.dirs[best[i].file].ents)
		}
	}
	sel := make([]Entry, 0, n)
	for len(best) > 0 {
		k := 1
		for k < len(best) && best[k].file == best[0].file {
			k++
		}
		f := best[0].file
		if r := &c.dirs[f]; r.loaded && (keep == nil || keep(c.Files[f])) {
			mine := best[:k] // the panes f is the best copy of, ascending
			// A pane's datasets sit together: judge each pane once.
			pane, judged, planned := 0, false, false
			for i := range r.ents {
				e := &r.ents[i]
				if e.Window != window {
					continue
				}
				if !judged || e.Pane != pane {
					pane, judged = e.Pane, true
					_, planned = slices.BinarySearchFunc(mine, pane, func(ch choice, p int) int { return cmp.Compare(ch.pane, p) })
				}
				if planned {
					sel = append(sel, *e)
				}
			}
		}
		best = best[k:]
	}
	return c.filePlans(sel, cmp.Compare[int])
}

// filePlans cuts entries into single-file plans: files ordered by order,
// each file's entries by offset, then by their place in the directory — an order
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

// PaneFiles returns the files holding a copy of a pane's datasets, from the
// pane index alone, best first: primaries before replicas, lower file index
// first within a rank — the order PaneSources plans them in.
func (c *Catalog) PaneFiles(window string, pane int) []int {
	var files []int
	for f := range c.Files {
		if _, ok := slices.BinarySearch(c.list(f, window), pane); ok {
			files = append(files, f)
		}
	}
	slices.SortFunc(files, c.compareSources)
	return files
}

// PaneCopy returns file f's copy of a pane as a single-file plan, entries
// offset-sorted; f's directory must be loaded.
func (c *Catalog) PaneCopy(window string, pane, f int) FilePlan {
	var sel []Entry
	for i := range c.dirs[f].ents {
		if e := &c.dirs[f].ents[i]; e.Window == window && e.Pane == pane {
			sel = append(sel, *e)
		}
	}
	plans := c.filePlans(sel, cmp.Compare[int])
	if len(plans) == 0 {
		return FilePlan{File: c.Files[f]}
	}
	return plans[0]
}

// PaneSources returns every file holding a copy of a pane's datasets, as
// single-file plans ordered best-first (PaneFiles): primaries before
// replicas, lower file index first within a rank, entries offset-sorted. A
// file whose directory is not loaded is left out. The restart read path
// walks the same order (PaneFiles, PaneCopy) when a planned copy fails its
// open/read/CRC — deterministic retry order, so every server agrees on which
// copy repairs a pane.
func (c *Catalog) PaneSources(window string, pane int) []FilePlan {
	var plans []FilePlan
	for _, f := range c.PaneFiles(window, pane) {
		if c.dirs[f].loaded {
			plans = append(plans, c.PaneCopy(window, pane, f))
		}
	}
	return plans
}

// ResolvePanes walks a delta chain's catalogs newest first (cats[0] is
// the head generation, the last element its full base) and assigns each
// wanted pane of a window to exactly one generation: the newest one
// whose catalog contains it — that generation rewrote the pane last, so
// every older copy is stale. It reads the pane indexes alone. The result
// is parallel to cats; feed each per-generation set to that catalog's
// PlanReads (and, on a failed read, PaneSources) so chain resolution
// composes with the replica-preferring dedup and retry order unchanged.
// Panes found in no catalog are absent from every set — the caller's
// incomplete-restart accounting applies.
func ResolvePanes(cats []*Catalog, window string, wanted map[int]bool) []map[int]bool {
	assign := make([]map[int]bool, len(cats))
	resolved := make(map[int]bool, len(wanted))
	for i, c := range cats {
		assign[i] = make(map[int]bool)
		if c == nil {
			continue
		}
		for _, l := range c.lists {
			if l.window != window {
				continue
			}
			for _, id := range l.ids {
				if wanted[id] && !resolved[id] {
					assign[i][id] = true
				}
			}
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
// pane IDs are sorted ascending, deduplicated, and cut into n contiguous
// runs whose sizes differ by at most one, the longer runs first. A writer's
// panes sort together, so each rank's share spans few writers' files, and a
// restart on the writing topology (each writer holding as many panes) gives
// every rank back its own panes. Every rank computes the same assignment
// from the same universe with no communication, and the universe comes
// from the catalog — the mechanism that decouples restart topology from the
// writing run's decomposition. A rank past the universe gets a nil share.
func Repartition(ids []int, n int) [][]int {
	if n <= 0 {
		return nil
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	k := 0
	for i, id := range sorted {
		if i == 0 || id != sorted[k-1] {
			sorted[k] = id
			k++
		}
	}
	out := make([][]int, n)
	lo := 0
	for r := range out {
		hi := lo + k/n
		if r < k%n {
			hi++
		}
		if hi > lo {
			out[r] = sorted[lo:hi:hi]
		}
		lo = hi
	}
	return out
}
