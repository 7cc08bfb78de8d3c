package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/rt"
)

// Verdicts of a generation scrub.
const (
	VerdictOK          = "OK"
	VerdictUncommitted = "UNCOMMITTED"
	VerdictCorrupt     = "CORRUPT"
	// VerdictCatalogMismatch marks a generation whose data files all scrub
	// clean but whose block catalog is not the one its manifest pins, or
	// disagrees with the files — a stale, damaged, or incomplete index. A
	// full generation still restarts (Index derives the catalog from the
	// files' directories, at the price of reading them); a delta, or any
	// chain through this generation, does not. The scrub fails.
	VerdictCatalogMismatch = "CATALOG-MISMATCH"
	// VerdictRepaired marks a generation Repair rebuilt from verified
	// replica copies and re-scrubbed clean. It counts as clean.
	VerdictRepaired = "REPAIRED"
	// VerdictCatalogMissing marks a generation whose manifest parses and
	// pins a catalog blob that is simply absent on disk — distinct from
	// CATALOG-MISMATCH (a blob that exists but lies) so operators can
	// tell deletion from damage. What still restarts is the same.
	VerdictCatalogMissing = "CATALOG-MISSING"
	// VerdictChainBroken marks a committed delta generation whose own
	// files scrub clean but whose chain does not resolve: a base
	// generation some ancestor needs is missing, uncommitted, corrupt,
	// or has an unusable catalog. The generation cannot restore (chain
	// reads walk catalogs down to the full base), so the scrub fails.
	VerdictChainBroken = "CHAIN-BROKEN"
)

// FileReport is one file's scrub outcome.
type FileReport struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "ok", "corrupt", "missing", "staged", "unmanifested"
	Detail string `json:"detail,omitempty"`
}

// GenReport is one generation's scrub outcome. Catalog reports the block
// catalog's state: "none" (older writer, no catalog committed), "ok",
// "missing" (pinned by the manifest but absent on disk), or "mismatch".
type GenReport struct {
	Base    string       `json:"base"`
	Verdict string       `json:"verdict"`
	Epoch   int64        `json:"epoch,omitempty"`
	Catalog string       `json:"catalog,omitempty"`
	Files   []FileReport `json:"files"`
}

// Fsck deep-scrubs every snapshot generation under prefix, newest first.
// For committed generations it verifies each manifested file's size and
// directory checksum, then reads every dataset back so the per-dataset
// CRC32Cs cover the payload bytes too — a single flipped bit anywhere in
// a committed file is reported against that file — and cross-checks the
// block catalog against the files' directories. Staged temporaries and
// files on disk but absent from the manifest are flagged without failing
// the generation (they are crash residue the restart path already
// ignores).
func Fsck(fsys rt.FS, prefix string) ([]GenReport, error) { return fsck(fsys, prefix, true) }

// FsckQuick is the scrub at its shallow depth: the same verdicts from
// manifests, file sizes, directory checksums and the catalog blob's pinned
// size and CRC, with no payload read and no catalog entry cross-checked.
func FsckQuick(fsys rt.FS, prefix string) ([]GenReport, error) { return fsck(fsys, prefix, false) }

func fsck(fsys rt.FS, prefix string, deep bool) ([]GenReport, error) {
	gens, err := Generations(fsys, prefix)
	if err != nil {
		return nil, err
	}
	reports := make([]GenReport, 0, len(gens))
	for _, g := range gens {
		reports = append(reports, fsckGen(fsys, g, deep))
	}
	applyChainVerdicts(fsys, reports)
	return reports, nil
}

// applyChainVerdicts is the scrub's second pass: a committed delta
// generation whose own files are clean is still unrestorable when any
// link of its chain is bad, so it gets the CHAIN-BROKEN verdict with the
// first bad link named. Per-generation verdicts from the first pass are
// never downgraded — a CORRUPT delta stays CORRUPT.
func applyChainVerdicts(fsys rt.FS, reports []GenReport) {
	byBase := make(map[string]*GenReport, len(reports))
	for i := range reports {
		byBase[reports[i].Base] = &reports[i]
	}
	for i := range reports {
		rep := &reports[i]
		if rep.Verdict != VerdictOK && rep.Verdict != VerdictRepaired {
			continue
		}
		m, err := Load(fsys, rep.Base)
		if err != nil || m.ChainDepth == 0 {
			continue
		}
		if link, detail := brokenLink(fsys, byBase, m); link != "" {
			rep.Verdict = VerdictChainBroken
			rep.Files = append(rep.Files, FileReport{Name: link, Status: "chain-broken", Detail: detail})
		}
	}
}

// brokenLink walks a delta manifest's ancestry and returns the first
// base generation the chain cannot restore through, with a reason —
// or "" if every link down to the full base is usable.
func brokenLink(fsys rt.FS, byBase map[string]*GenReport, m *Manifest) (link, detail string) {
	seen := map[string]bool{m.Base: true}
	for depth := 0; m.ChainDepth > 0; depth++ {
		base := m.BaseGeneration
		if seen[base] || depth >= maxChainDepth {
			return base, "chain revisits itself"
		}
		seen[base] = true
		rep, ok := byBase[base]
		if !ok {
			return base, "base generation has no files on disk"
		}
		switch rep.Verdict {
		case VerdictUncommitted:
			return base, "base generation is uncommitted"
		case VerdictCorrupt:
			return base, "base generation is corrupt"
		case VerdictCatalogMismatch, VerdictCatalogMissing:
			// Chain reads resolve panes through each link's catalog; a
			// base whose index is absent or lying cannot serve its share.
			return base, "base generation's catalog is unusable"
		}
		next, err := Load(fsys, base)
		if err != nil {
			return base, err.Error()
		}
		m = next
	}
	return "", ""
}

// fsckGen scrubs one generation; deep adds the payload reads and the catalog
// entry cross-check.
func fsckGen(fsys rt.FS, g Generation, deep bool) GenReport {
	rep := GenReport{Base: g.Base, Verdict: VerdictOK}
	onDisk, _ := fsys.List(g.Base + "_")
	inManifest := make(map[string]bool)

	if !g.Committed {
		rep.Verdict = VerdictUncommitted
	} else {
		m, err := Load(fsys, g.Base)
		if err != nil {
			rep.Verdict = VerdictCorrupt
			rep.Files = append(rep.Files, FileReport{Name: g.Base + Suffix, Status: "corrupt", Detail: err.Error()})
		} else {
			rep.Epoch = m.Epoch
			for _, e := range m.Files {
				inManifest[e.Name] = true
				fr := scrubFile(fsys, e, deep)
				if fr.Status != "ok" {
					rep.Verdict = VerdictCorrupt
				}
				rep.Files = append(rep.Files, fr)
			}
			rep.Catalog = "none"
			if m.Catalog != nil {
				status, detail := scrubCatalog(fsys, m, deep)
				rep.Catalog = status
				if status != "ok" {
					// Damaged data files already make the generation
					// CORRUPT; only a clean generation with a bad index
					// downgrades — to CATALOG-MISSING when the pinned blob
					// is simply absent, CATALOG-MISMATCH when it lies.
					if rep.Verdict == VerdictOK {
						if status == "missing" {
							rep.Verdict = VerdictCatalogMissing
						} else {
							rep.Verdict = VerdictCatalogMismatch
						}
					}
					rep.Files = append(rep.Files, FileReport{Name: m.Catalog.Name, Status: status, Detail: detail})
				}
			}
		}
	}
	for _, name := range onDisk {
		if baseOf(name) != g.Base || inManifest[name] {
			continue
		}
		status := "unmanifested"
		if strings.HasSuffix(name, hdf.TmpSuffix) {
			status = "staged"
		}
		rep.Files = append(rep.Files, FileReport{Name: name, Status: status})
	}
	return rep
}

// scrubFile verifies one manifested file: size and directory checksum, and
// when deep every dataset's payload CRC — through hdf.Reader, one ReadAt per
// dataset, the reference reader independent of the restart path's.
func scrubFile(fsys rt.FS, e FileEntry, deep bool) FileReport {
	size, crc, _, err := hdf.ScanDir(fsys, e.Name)
	if err != nil {
		status := "corrupt"
		if errors.Is(err, rt.ErrNotExist) {
			status = "missing"
		}
		return FileReport{Name: e.Name, Status: status, Detail: err.Error()}
	}
	if size != e.Size {
		return FileReport{Name: e.Name, Status: "corrupt",
			Detail: fmt.Sprintf("%d bytes on disk, manifest says %d", size, e.Size)}
	}
	if crc != e.DirCRC {
		return FileReport{Name: e.Name, Status: "corrupt",
			Detail: fmt.Sprintf("directory crc32c %08x, manifest says %08x", crc, e.DirCRC)}
	}
	if !deep {
		return FileReport{Name: e.Name, Status: "ok"}
	}
	r, err := hdf.Open(fsys, e.Name, nullClock{}, hdf.NullProfile())
	if err != nil {
		return FileReport{Name: e.Name, Status: "corrupt", Detail: err.Error()}
	}
	defer r.Close()
	for _, d := range r.Datasets() {
		if _, err := r.ReadData(d); err != nil {
			return FileReport{Name: e.Name, Status: "corrupt", Detail: err.Error()}
		}
	}
	return FileReport{Name: e.Name, Status: "ok"}
}

// scrubCatalog checks a committed generation's block catalog: the blob must
// be the one the manifest pins and decode cleanly (loadCatalog) and, when
// deep, say exactly what the manifested files' own directories say — every
// stored entry equal to the derived one, none missing: an index that would
// send a restart to the wrong bytes, or silently drop panes, is a mismatch.
func scrubCatalog(fsys rt.FS, m *Manifest, deep bool) (status, detail string) {
	cat, err := loadCatalog(fsys, m)
	switch {
	case errors.Is(err, rt.ErrNotExist):
		// The manifest pins a blob that is not there at all — report
		// absence distinctly from a blob that exists but disagrees.
		return "missing", err.Error()
	case err != nil:
		return "mismatch", err.Error()
	case !deep:
		return "ok", ""
	}
	// A file whose directory will not read is scrubFile's to report; its
	// entries are not checked.
	derived, _, _ := deriveCatalog(fsys, m.fileNames(), nil, nil)
	onDisk := make(map[string]map[string]*catalog.Entry, len(derived.Files))
	for _, name := range derived.Files {
		onDisk[name] = make(map[string]*catalog.Entry)
	}
	for i := range derived.Entries {
		e := &derived.Entries[i]
		onDisk[derived.Files[e.File]][e.Name] = e
	}
	inManifest := make(map[string]bool, len(m.Files))
	for _, e := range m.Files {
		inManifest[e.Name] = true
	}
	checked := 0
	for i := range cat.Entries {
		e := &cat.Entries[i]
		name := cat.Files[e.File]
		if !inManifest[name] {
			return "mismatch", fmt.Sprintf("catalog references unmanifested file %s", name)
		}
		byName, ok := onDisk[name]
		if !ok {
			continue
		}
		checked++
		d, ok := byName[e.Name]
		if !ok {
			return "mismatch", fmt.Sprintf("catalog entry %q not in %s", e.Name, name)
		}
		if !bytes.Equal(e.AppendDirEntry(nil), d.AppendDirEntry(nil)) {
			return "mismatch", fmt.Sprintf("catalog entry %q is not %s's directory entry for it", e.Name, name)
		}
	}
	if checked < len(derived.Entries) {
		return "mismatch", fmt.Sprintf("catalog indexes %d pane datasets, files hold %d", checked, len(derived.Entries))
	}
	return "ok", ""
}

// Format renders scrub reports as the per-generation verdict listing
// cmd/genxfsck prints.
func Format(reports []GenReport) string {
	var b strings.Builder
	for _, rep := range reports {
		fmt.Fprintf(&b, "%-12s %s\n", rep.Verdict, rep.Base)
		for _, f := range rep.Files {
			if f.Detail != "" {
				fmt.Fprintf(&b, "  %-12s %s: %s\n", f.Status, f.Name, f.Detail)
			} else {
				fmt.Fprintf(&b, "  %-12s %s\n", f.Status, f.Name)
			}
		}
	}
	return b.String()
}

// Clean reports whether no generation was found corrupt, carrying a
// mismatched or missing catalog, or chained to an unrestorable base.
func Clean(reports []GenReport) bool {
	for _, rep := range reports {
		switch rep.Verdict {
		case VerdictCorrupt, VerdictCatalogMismatch, VerdictCatalogMissing, VerdictChainBroken:
			return false
		}
	}
	return true
}

type nullClock struct{}

func (nullClock) Now() float64      { return 0 }
func (nullClock) Sleep(d float64)   {}
func (nullClock) Compute(d float64) {}
