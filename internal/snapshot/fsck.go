package snapshot

import (
	"errors"
	"fmt"
	"strings"

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
	// one of whose sections fails its CRC32C or will not parse (the detail
	// names the file table or the pane index), or (deep) places a file's
	// directory elsewhere than the file holds it or lists other panes for
	// it than the directory does (the detail names the directory extent of
	// that file) — a stale, damaged, or lying index. A full generation
	// still restarts (a reader derives the catalog from the files'
	// directories); a delta, or any chain through this generation, does
	// not. The scrub fails.
	VerdictCatalogMismatch = "CATALOG-MISMATCH"
	// VerdictRepaired marks a generation Repair rebuilt from verified
	// replica copies and re-scrubbed clean. It counts as clean.
	VerdictRepaired = "REPAIRED"
	// VerdictCatalogMissing marks a generation whose manifest parses and
	// pins a catalog blob that is simply absent on disk — distinct from
	// CATALOG-MISMATCH (a blob that exists but lies) so operators can
	// tell deletion from damage. What still restarts is the same.
	VerdictCatalogMissing = "CATALOG-MISSING"
	// VerdictChainBroken marks a committed generation whose own files scrub
	// clean but which the restore walk will not restore (restorable, the
	// files judged by their scrub): a link of its chain will not load with
	// its catalog, or a pane has no clean copy in the link that wrote it
	// last. The scrub fails.
	VerdictChainBroken = "CHAIN-BROKEN"
)

// FileReport is one file's scrub outcome.
type FileReport struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "ok", "corrupt", "missing", "staged", "unmanifested", "chain-broken", "repaired"
	Detail string `json:"detail,omitempty"`
}

// GenReport is one generation's scrub outcome. Catalog reports the block
// catalog's state: "ok", "missing" (pinned by the manifest but absent on
// disk), or "mismatch". On a CORRUPT generation it is the blob's state
// alone: the deep identity check needs every file intact.
type GenReport struct {
	Base    string       `json:"base"`
	Verdict string       `json:"verdict"`
	Epoch   int64        `json:"epoch,omitempty"`
	Catalog string       `json:"catalog,omitempty"`
	Files   []FileReport `json:"files"`
}

// Fsck deep-scrubs every snapshot generation under prefix, newest first.
// For committed generations it holds each manifested file to its entry
// (checkFile), then reads every dataset back so the per-dataset CRC32Cs
// cover the payload bytes too — a single flipped bit anywhere in a
// committed file is reported against that file — and loads every file's
// directory through the pinned catalog, as a restart does (dirLoad).
// Staged temporaries and files on disk but absent from the manifest are
// flagged without failing the generation: the restore walk judges only
// manifested files, so they never refuse it. The read does not ignore them
// all: beside a full generation, a listed server file its manifest does not
// name (one a server wrongly declared dead renamed into place after the
// commit) is indexed from its own directory and read too, its panes
// delivered like any copy's (ReadRequest.Own).
func Fsck(fsys rt.FS, prefix string) ([]GenReport, error) { return fsck(fsys, prefix, true) }

// FsckQuick is the scrub at its shallow depth: the same verdicts from
// manifests, file sizes, directory checksums and the catalog blob's pinned
// size and CRC, with no payload read and no catalog derived.
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
	chainVerdicts(fsys, reports)
	return reports, nil
}

// chainVerdicts is the scrub's pass of the restore walk's rule: every
// committed generation is judged as the walk judges it, each file by its
// scrub report. One the walk would not restore gets a "chain-broken" line
// naming the link at fault and why and, if its own files are clean, the
// verdict CHAIN-BROKEN; a CORRUPT one stays CORRUPT. A committed generation
// without the line is one the walk restores. Each link's manifest and catalog
// load once per pass, however many heads sit above it.
func chainVerdicts(fsys rt.FS, reports []GenReport) {
	status := make(map[string]string)
	for _, rep := range reports {
		for _, f := range rep.Files {
			status[f.Name] = f.Status // a repaired file's fresh report comes last
		}
	}
	scrubbed := func(files []FileEntry, _ []dirLoad) []bool {
		ok := make([]bool, len(files))
		for i, e := range files {
			ok[i] = status[e.Name] == "ok" // no report: not scrubbed clean
		}
		return ok
	}
	known := make(map[string]*commitRecord)
	for i := range reports {
		rep := &reports[i]
		if rep.Verdict == VerdictUncommitted {
			continue
		}
		chain, err := loadChain(reads{fsys: fsys}, rep.Base, known, nil)
		if link, err := judge(rep.Base, chain, err, scrubbed); err != nil {
			if rep.Verdict == VerdictOK || rep.Verdict == VerdictRepaired {
				rep.Verdict = VerdictChainBroken
			}
			rep.Files = append(rep.Files, FileReport{Name: link, Status: "chain-broken", Detail: err.Error()})
		}
	}
}

// Repair deep-scrubs every generation under prefix like Fsck and then
// attempts to rebuild what the scrub found damaged, from data the
// generation itself still carries:
//
//   - A corrupt or missing manifested file is rebuilt from a donor file
//     with the same manifest-pinned size and directory CRC32C that scrubs
//     clean — with ReplicationFactor > 1 every replica is byte-identical
//     to its primary, so the copy is exact, and the donor match is
//     content-addressed (size+CRC), never guessed from file names.
//   - A mismatched or missing block catalog is rebuilt deterministically
//     from the manifested files (the same merge Commit performs) and
//     written only if the rebuilt blob matches the manifest's pinned size
//     and CRC — a rebuilt index can never disagree with the commit record.
//
// All writes are staged at name+".tmp" and renamed into place, and only
// files the scrub reported damaged are ever written; committed-good files
// are read at most. Generations whose manifest itself is unreadable, or
// whose damage has no clean copy anywhere, are left as they are — the
// restore walk's generation fallback still covers those.
//
// Each repaired generation is re-scrubbed; if it now passes, its verdict
// is VerdictRepaired and the rebuilt artifacts are reported with status
// "repaired". Clean() treats REPAIRED as clean.
func Repair(fsys rt.FS, prefix string) ([]GenReport, error) {
	gens, err := Generations(fsys, prefix)
	if err != nil {
		return nil, err
	}
	reports := make([]GenReport, 0, len(gens))
	for _, g := range gens {
		rep := fsckGen(fsys, g, true)
		switch rep.Verdict {
		case VerdictCorrupt, VerdictCatalogMismatch, VerdictCatalogMissing:
			if fixed := repairGen(fsys, rep); len(fixed) > 0 {
				fresh := fsckGen(fsys, g, true)
				if fresh.Verdict == VerdictOK {
					fresh.Verdict = VerdictRepaired
				}
				fresh.Files = append(fixed, fresh.Files...)
				rep = fresh
			}
		}
		reports = append(reports, rep)
	}
	// The chain pass runs after every per-generation repair so a delta
	// whose base was just rebuilt comes out clean, and one whose base is
	// beyond repair comes out CHAIN-BROKEN.
	chainVerdicts(fsys, reports)
	return reports, nil
}

// repairGen rebuilds what it can of one damaged committed generation and
// returns a report line per artifact it rewrote.
func repairGen(fsys rt.FS, rep GenReport) []FileReport {
	m, err := Load(fsys, rep.Base)
	if err != nil {
		return nil // no trustworthy commit record to repair against
	}
	status := make(map[string]string, len(rep.Files))
	for _, f := range rep.Files {
		status[f.Name] = f.Status
	}
	var fixed []FileReport
	for _, e := range m.Files {
		st := status[e.Name]
		if st == "ok" || st == "" {
			continue
		}
		donor := findDonor(m, e, status)
		if donor == "" {
			continue
		}
		if err := copyFile(fsys, donor, e.Name); err != nil {
			continue
		}
		status[e.Name] = "ok"
		fixed = append(fixed, FileReport{Name: e.Name, Status: "repaired",
			Detail: fmt.Sprintf("rebuilt from %s", donor)})
	}
	if rep.Catalog != "ok" {
		if fr, ok := rebuildCatalog(fsys, m); ok {
			fixed = append(fixed, fr)
		}
	}
	return fixed
}

// findDonor picks another manifested file whose committed size and
// directory CRC equal the damaged entry's and whose scrub (or repair, this
// pass) left it clean. Byte-identical replicas always satisfy this; two
// coincidentally different files never can, since DirCRC covers the
// directory bytes that locate every payload.
func findDonor(m *Manifest, e FileEntry, status map[string]string) string {
	for _, d := range m.Files {
		if d.Name == e.Name || d.Size != e.Size || d.DirCRC != e.DirCRC {
			continue
		}
		if status[d.Name] != "ok" {
			continue
		}
		return d.Name
	}
	return ""
}

// rebuildCatalog regenerates the block catalog from the manifested files'
// directories — deriveCatalog, as Commit ran it, in the same (manifest, i.e.
// lexical) file order — and installs it only if every file passes its pin
// and the rebuilt blob is the one the manifest pins.
func rebuildCatalog(fsys rt.FS, m *Manifest) (FileReport, bool) {
	blob, _, _, errs := deriveCatalog(fsys, m.Files, true, nil, nil)
	if len(errs) > 0 || !m.Catalog.matches(blob) {
		return FileReport{}, false // a data file is still bad, or the index would lie
	}
	if err := hdf.PublishFile(fsys, m.Catalog.Name, blob); err != nil {
		return FileReport{}, false
	}
	return FileReport{Name: m.Catalog.Name, Status: "repaired",
		Detail: "rebuilt from manifested files"}, true
}

// copyFile clones src's bytes over dst via a staged temporary and an
// atomic rename, so a crash mid-repair never leaves a half-written dst.
func copyFile(fsys rt.FS, src, dst string) error {
	buf, err := hdf.ReadFile(fsys, src)
	if err != nil {
		return err
	}
	return hdf.PublishFile(fsys, dst, buf)
}

// fsckGen scrubs one generation; deep adds the payload reads and the catalog
// identity check.
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
			status, detail := scrubCatalog(fsys, m, deep && rep.Verdict == VerdictOK)
			rep.Catalog = status
			if status != "ok" {
				// A CORRUPT generation stays CORRUPT; a clean one with a bad
				// index is CATALOG-MISSING or CATALOG-MISMATCH.
				if rep.Verdict == VerdictOK {
					rep.Verdict = VerdictCatalogMismatch
					if status == "missing" {
						rep.Verdict = VerdictCatalogMissing
					}
				}
				rep.Files = append(rep.Files, FileReport{Name: m.Catalog.Name, Status: status, Detail: detail})
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

// scrubFile verifies one manifested file: checkFile against the directory
// on disk (checkOnDisk), and when deep every dataset's payload CRC — through
// hdf.Reader, one ReadAt per dataset, the reference reader independent of
// the restart path's.
func scrubFile(fsys rt.FS, e FileEntry, deep bool) FileReport {
	if err := checkOnDisk(fsys, e); err != nil {
		status := "corrupt"
		if errors.Is(err, rt.ErrNotExist) {
			status = "missing"
		}
		return FileReport{Name: e.Name, Status: status, Detail: err.Error()}
	}
	if !deep {
		return FileReport{Name: e.Name, Status: "ok"}
	}
	r, err := hdf.Open(fsys, e.Name, rt.NewWallClock(), hdf.NullProfile())
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

// scrubCatalog checks a committed generation's block catalog: the blob on
// disk must be the one the manifest pins and decode cleanly, each section
// matching its CRC32C (readCatalog; a damaged section's error names it),
// and, when deep, every manifested file's directory must load through it by
// the one loader a restart uses (loadDirs): read from where the catalog
// places it, be the bytes the manifest pins and hold the panes the pane
// index lists for the file. deep needs every file intact.
func scrubCatalog(fsys rt.FS, m *Manifest, deep bool) (status, detail string) {
	cat, err := readCatalog(fsys, m, nil)
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
	loads := make([]dirLoad, len(m.Files))
	for f, e := range m.Files {
		loads[f] = dirLoad{cat: cat, f: f, e: e}
	}
	for i, err := range loadDirs(reads{fsys: fsys}, loads, nil) {
		if err != nil {
			return "mismatch", fmt.Sprintf("directory extent of %s: %v", m.Files[i].Name, err)
		}
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
