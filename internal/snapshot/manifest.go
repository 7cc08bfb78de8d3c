// Package snapshot implements the durable-snapshot commit protocol shared
// by every I/O module: writers stage RHDF files under temporary names and
// rename them into place (internal/hdf), and a completed generation is
// committed by writing a small manifest — epoch, file list, per-file sizes
// and directory checksums — as the last step. A generation without its
// manifest never happened as far as restart is concerned, which is what
// makes a crash at any point recoverable: the previous committed
// generation is still intact and still selected.
//
// The package also provides the read side: generation discovery, a
// newest-first restore walk that falls back past damaged generations,
// retention pruning, and the scrub behind cmd/genxfsck — which judges a
// generation's files and panes by the walk's own rules (checkFile,
// restorable).
package snapshot

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// ManifestSchema identifies the manifest JSON layout; bump on breaking
// changes so tooling can dispatch.
const ManifestSchema = "genxio-manifest/v1"

// Suffix is appended to a generation's base name to form its manifest
// file name.
const Suffix = ".manifest"

// CatalogRef pins a generation's block-catalog blob from the manifest:
// the catalog is written before the manifest, so the commit record can
// carry its size and its header's CRC32C. The header holds each section's
// CRC32C, so a damaged or swapped catalog is caught, and the damaged
// section named (readCatalog). Every manifest carries one.
type CatalogRef struct {
	Name string `json:"name"`
	Size int64  `json:"size"`   // the whole blob's
	CRC  uint32 `json:"crc32c"` // the header's (catalog.Header.CRC)
}

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

// Manifest is a generation's commit record.
type Manifest struct {
	Schema string `json:"schema"`
	// Base is the generation's base name (files are Base_*.rhdf).
	Base string `json:"base"`
	// Epoch is the simulation step the snapshot was taken at.
	Epoch int64 `json:"epoch"`
	// Time is the simulation time of the snapshot.
	Time float64 `json:"time"`
	// Files lists every committed file, in lexical order.
	Files []FileEntry `json:"files"`
	// Catalog references the generation's block-catalog blob; DecodeManifest
	// requires it. The restore walk's file check ignores it: a damaged
	// catalog costs a full generation the indexed read path, not the
	// generation.
	Catalog *CatalogRef `json:"catalog,omitempty"`
	// BaseGeneration names the committed generation this delta resolves
	// against: panes not rewritten here are read from the base (which may
	// itself be a delta — the chain walks down to a full generation).
	// Empty on full generations.
	BaseGeneration string `json:"base_generation,omitempty"`
	// ChainDepth is the generation's distance from its full base: 0 for a
	// full generation, base's depth + 1 for a delta. It bounds the chain
	// walk and is what the restart counters report.
	ChainDepth int `json:"chain_depth,omitempty"`
	// Panes records the generation's global pane universe per window —
	// every pane a restart of this generation must restore, whether it
	// was rewritten here or inherited from the chain. Delta generations
	// need it because the file set alone no longer spells out the
	// universe (a pane deleted by refinement must not resurrect from a
	// base generation). Absent on full generations, whose files are the
	// universe.
	Panes map[string][]int `json:"panes,omitempty"`
}

// ChainInfo carries the delta-chain facts CommitChained records in the
// manifest of a delta generation.
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
// pane universe at snapshot time. A nil chain commits a full generation
// (exactly Commit). A delta generation may legitimately have no files —
// nothing was dirty — because its restorable state lives in the chain.
func CommitChained(fsys rt.FS, base string, epoch int64, tm float64, chain *ChainInfo) (*Manifest, error) {
	names, err := fsys.List(base + "_")
	if err != nil {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, err)
	}
	return commit(fsys, base, epoch, tm, chain, names, nil, nil)
}

// commit is CommitChained over names, a listing that holds the generation's
// files (its Base_*.rhdf names are the generation), indexing them from what
// their writers reported publishing (catalog.Report, keyed by file name): a
// listed file with a report is recorded from it, one without — a dead
// writer's published file — has its directory read off the filesystem,
// counted on dirsRead, and a reported file the listing lacks (its rename
// was lost) refuses the commit. The manifest and catalog bytes are the same
// either way.
func commit(fsys rt.FS, base string, epoch int64, tm float64, chain *ChainInfo,
	names []string, reported map[string]catalog.Report, dirsRead *metrics.Counter) (*Manifest, error) {
	m := &Manifest{Schema: ManifestSchema, Base: base, Epoch: epoch, Time: tm}
	if chain != nil {
		if chain.Base == "" || chain.Base == base {
			return nil, fmt.Errorf("snapshot: commit %s: invalid chain base %q", base, chain.Base)
		}
		if chain.Depth < 1 {
			return nil, fmt.Errorf("snapshot: commit %s: invalid chain depth %d", base, chain.Depth)
		}
		m.BaseGeneration = chain.Base
		m.ChainDepth = chain.Depth
		m.Panes = chain.Panes
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
	blob, _, entries, errs := deriveCatalog(fsys, files, false, reported, dirsRead)
	if len(errs) > 0 {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, errs[0])
	}
	m.Files = entries
	if len(m.Files) == 0 && chain == nil {
		return nil, fmt.Errorf("snapshot: commit %s: no snapshot files", base)
	}
	// The catalog goes to disk before the manifest: the manifest is the
	// commit record, so a crash between the two leaves an uncommitted
	// generation with a harmless orphan catalog, never a committed
	// generation pointing at a catalog that does not exist.
	catSize, catCRC, err := catalog.WriteBlob(fsys, base, blob)
	if err != nil {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, err)
	}
	m.Catalog = &CatalogRef{Name: base + catalog.Suffix, Size: catSize, CRC: catCRC}
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := hdf.PublishFile(fsys, base+Suffix, enc); err != nil {
		return nil, fmt.Errorf("snapshot: commit %s: %w", base, err)
	}
	return m, nil
}

// Load reads and validates the manifest of the generation under base.
func Load(fsys rt.FS, base string) (*Manifest, error) {
	buf, err := hdf.ReadFile(fsys, base+Suffix)
	if err != nil {
		return nil, err
	}
	return decodeManifest(base, buf)
}

// decodeManifest is Load's decode of buf, the manifest bytes read for base.
func decodeManifest(base string, buf []byte) (*Manifest, error) {
	m, err := DecodeManifest(buf)
	if err != nil {
		return nil, fmt.Errorf("snapshot: manifest %s: %w", base, err)
	}
	return m, nil
}

// DecodeManifest parses and validates manifest JSON. It is the single
// entry point for untrusted manifest bytes (Load, the fsck scrub, the
// fuzzer): beyond the schema check it requires the catalog reference and
// enforces the chain invariants — depth and base name must agree, a
// generation cannot base on itself, and the recorded pane universe must be
// well-formed — so downstream chain walks never see a manifest that lies
// about its own shape.
func DecodeManifest(buf []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(buf, m); err != nil {
		return nil, err
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Base == "" {
		return nil, fmt.Errorf("empty base")
	}
	if m.Catalog == nil {
		return nil, fmt.Errorf("no catalog reference")
	}
	if m.ChainDepth < 0 {
		return nil, fmt.Errorf("negative chain depth %d", m.ChainDepth)
	}
	if (m.BaseGeneration != "") != (m.ChainDepth > 0) {
		return nil, fmt.Errorf("chain depth %d disagrees with base generation %q", m.ChainDepth, m.BaseGeneration)
	}
	if m.BaseGeneration == m.Base && m.Base != "" {
		return nil, fmt.Errorf("generation %q chained to itself", m.Base)
	}
	if m.Panes != nil && m.ChainDepth == 0 {
		return nil, fmt.Errorf("full generation carries a delta pane universe")
	}
	for w, ids := range m.Panes {
		if w == "" {
			return nil, fmt.Errorf("pane universe with empty window name")
		}
		for _, id := range ids {
			if id < 0 {
				return nil, fmt.Errorf("pane universe %q has negative pane %d", w, id)
			}
		}
	}
	for _, e := range m.Files {
		if e.Name == "" {
			return nil, fmt.Errorf("file entry with empty name")
		}
		if e.Size < 0 {
			return nil, fmt.Errorf("file %q has negative size %d", e.Name, e.Size)
		}
	}
	return m, nil
}
