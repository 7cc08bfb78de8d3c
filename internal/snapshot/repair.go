package snapshot

import (
	"fmt"

	"genxio/internal/hdf"
	"genxio/internal/rt"
)

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
	if m.Catalog != nil && rep.Catalog != "ok" && rep.Catalog != "" && rep.Catalog != "none" {
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
	cat, _, errs := deriveCatalog(fsys, m.Files, true, nil, nil)
	blob := cat.Encode()
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
