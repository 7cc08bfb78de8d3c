package snapshot

import (
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
	// VerdictCorrupt marks a committed generation with damage of its own: a
	// recorded file that is damaged or missing, or a commit record that does
	// not load — torn, bit-flipped, of an older format — or (deep) lies
	// about where or what a file's directory is (the detail names the
	// directory extent of that file). A damaged record costs its
	// generation, which the restore walk falls back past.
	VerdictCorrupt = "CORRUPT"
	// VerdictRepaired marks a generation Repair rebuilt from verified
	// replica copies and re-scrubbed clean. It counts as clean.
	VerdictRepaired = "REPAIRED"
	// VerdictChainBroken marks a committed generation whose own files scrub
	// clean but which the restore walk will not restore (restorable, the
	// files judged by their scrub): a link of its chain will not load or is
	// not the record it pins, or a pane has no clean copy in the link that
	// wrote it last. The scrub fails.
	VerdictChainBroken = "CHAIN-BROKEN"
)

// FileReport is one file's scrub outcome.
type FileReport struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "ok", "corrupt", "missing", "staged", "unmanifested", "chain-broken", "repaired"
	Detail string `json:"detail,omitempty"`
}

// GenReport is one generation's scrub outcome. Record is the generation's
// commit record as read, when it loaded.
type GenReport struct {
	Base    string        `json:"base"`
	Verdict string        `json:"verdict"`
	Epoch   int64         `json:"epoch,omitempty"`
	Record  *RecordReport `json:"record,omitempty"`
	Files   []FileReport  `json:"files"`
}

// RecordReport is a commit record as the scrub read it, for people
// (genxfsck -json): its size and CRC32C, the snapshot time, the file
// table, a per-window summary of the pane index and, on a delta, the chain
// links and the universe's pane count per window.
type RecordReport struct {
	Bytes    int64          `json:"bytes"`
	CRC      uint32         `json:"crc32c"`
	Time     float64        `json:"time"`
	Files    []FileEntry    `json:"files"`
	Index    []WindowIndex  `json:"index"`
	Links    []Link         `json:"links,omitempty"`
	Universe map[string]int `json:"universe,omitempty"`
}

// WindowIndex summarizes one window of a record's pane index: the panes it
// holds and their copies, one per file holding a pane.
type WindowIndex struct {
	Window string `json:"window"`
	Panes  int    `json:"panes"`
	Copies int    `json:"copies"`
}

// recordReport renders m and its catalog cat.
func recordReport(m *Manifest, cat *catalog.Catalog) *RecordReport {
	r := &RecordReport{Bytes: m.Size, CRC: m.CRC, Time: m.Time, Files: m.Files, Links: m.Links}
	for _, w := range cat.Windows() {
		wi := WindowIndex{Window: w}
		for _, id := range cat.Panes(w) {
			wi.Panes++
			wi.Copies += len(cat.PaneFiles(w, id))
		}
		r.Index = append(r.Index, wi)
	}
	if m.ChainDepth > 0 {
		r.Universe = make(map[string]int, len(m.Panes))
		for w, ids := range m.Panes {
			r.Universe[w] = len(ids)
		}
	}
	return r
}

// Fsck deep-scrubs every snapshot generation under prefix, newest first.
// For committed generations it holds each recorded file to its pins
// (checkFile), then reads every dataset back so the per-dataset CRC32Cs
// cover the payload bytes too — a single flipped bit anywhere in a
// committed file is reported against that file — and loads every file's
// directory through the record's catalog, as a restart does (dirLoad).
// Staged temporaries and files on disk but absent from the record are
// flagged without failing the generation: the restore walk judges only
// recorded files, so they never refuse it. The read does not ignore them
// all: beside a full generation, a listed server file its record does not
// name (one a server wrongly declared dead renamed into place after the
// commit) is indexed from its own directory and read too, its panes
// delivered like any copy's (ReadRequest.Own).
func Fsck(fsys rt.FS, prefix string) ([]GenReport, error) { return fsck(fsys, prefix, true) }

// FsckQuick is the scrub at its shallow depth: the same verdicts from
// commit records, file sizes and directory checksums, with no payload read
// and no directory loaded.
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
// without the line is one the walk restores. Each link's record loads once
// per pass, however many heads sit above it.
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
//   - A corrupt or missing recorded file is rebuilt from a donor file
//     with the same record-pinned size and directory CRC32C that scrubs
//     clean — with ReplicationFactor > 1 every replica is byte-identical
//     to its primary, so the copy is exact, and the donor match is
//     content-addressed (size+CRC), never guessed from file names.
//
// All writes are staged at name+".tmp" and renamed into place, and only
// files the scrub reported damaged are ever written; committed-good files
// are read at most. Generations whose record itself is unreadable — there
// is no copy of it — or whose damage has no clean copy anywhere, are left as
// they are: the restore walk's generation fallback still covers those.
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
		if rep.Verdict == VerdictCorrupt {
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
	return fixed
}

// findDonor picks another recorded file whose committed size and
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

// copyFile clones src's bytes over dst via a staged temporary and an
// atomic rename, so a crash mid-repair never leaves a half-written dst.
func copyFile(fsys rt.FS, src, dst string) error {
	buf, err := hdf.ReadFile(fsys, src)
	if err != nil {
		return err
	}
	return hdf.PublishFile(fsys, dst, buf)
}

// fsckGen scrubs one generation; deep adds the payload reads and the loads
// of every directory through the record's catalog.
func fsckGen(fsys rt.FS, g Generation, deep bool) GenReport {
	rep := GenReport{Base: g.Base, Verdict: VerdictOK}
	onDisk, _ := fsys.List(g.Base + "_")
	inRecord := make(map[string]bool)

	if !g.Committed {
		rep.Verdict = VerdictUncommitted
	} else if rec := loadRecord(fsys, g.Base, nil); rec.err != nil {
		rep.Verdict = VerdictCorrupt
		rep.Files = append(rep.Files, FileReport{Name: g.Base + Suffix, Status: "corrupt", Detail: rec.err.Error()})
	} else {
		m := rec.m
		rep.Epoch, rep.Record = m.Epoch, recordReport(m, rec.cat)
		for _, e := range m.Files {
			inRecord[e.Name] = true
			fr := scrubFile(fsys, e, deep)
			if fr.Status != "ok" {
				rep.Verdict = VerdictCorrupt
			}
			rep.Files = append(rep.Files, fr)
		}
		if deep && rep.Verdict == VerdictOK {
			if detail := loadEveryDir(fsys, m, rec.cat); detail != "" {
				rep.Verdict = VerdictCorrupt
				rep.Files = append(rep.Files, FileReport{Name: g.Base + Suffix, Status: "corrupt", Detail: detail})
			}
		}
	}
	for _, name := range onDisk {
		if baseOf(name) != g.Base || inRecord[name] {
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

// loadEveryDir loads every recorded file's directory through the record's
// catalog by the one loader a restart uses (loadDirs): read from where the
// catalog places it, be the bytes the record pins and hold the panes the
// pane index lists for the file. It returns what the first that did not
// load says, or "". It needs every file intact.
func loadEveryDir(fsys rt.FS, m *Manifest, cat *catalog.Catalog) string {
	loads := make([]dirLoad, len(m.Files))
	for f, e := range m.Files {
		loads[f] = dirLoad{cat: cat, f: f, e: e}
	}
	for i, err := range loadDirs(reads{fsys: fsys}, loads, nil) {
		if err != nil {
			return fmt.Sprintf("directory extent of %s: %v", m.Files[i].Name, err)
		}
	}
	return ""
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

// Clean reports whether no generation was found corrupt or chained to an
// unrestorable base.
func Clean(reports []GenReport) bool {
	for _, rep := range reports {
		switch rep.Verdict {
		case VerdictCorrupt, VerdictChainBroken:
			return false
		}
	}
	return true
}
