package snapshot

import (
	"fmt"
	"slices"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// deriveCatalog builds the catalog sections of files from what the files'
// own directories record, in the order given — at commit, and for any
// reader of files no commit record describes (which loads the directories
// into it: derived). A file's record is the one its writer reported
// (catalog.Report, made from the directory it published) when reported
// holds it — the commit's case: no read. Otherwise its directory is read
// off the file, counted on dirsRead, and makes the same record as it passes
// the directory's one gate (catalog.Splice). entries are the files' pins as
// found, and dirs the directories read (the zero RawDir for a reported
// file), both parallel to the sections' file table. A file whose directory
// will not read or pass is in neither, and its error (which names it) is in
// errs.
func deriveCatalog(fsys rt.FS, files []FileEntry, reported map[string]catalog.Report, dirsRead *metrics.Counter) (sections []byte, dirs []hdf.RawDir, entries []FileEntry, errs []error) {
	var s catalog.Splice
	for _, f := range files {
		r, ok := reported[f.Name]
		var d hdf.RawDir
		var err error
		if !ok {
			dirsRead.Inc()
			d, err = hdf.ReadRawDir(fsys, f.Name)
			r = catalog.Report{Size: d.Size, Count: d.Count, DirCRC: hdf.Checksum(d.Bytes)}
		}
		if err == nil && ok {
			err = s.Add(r)
		} else if err == nil {
			err = s.AddDir(d)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		dirs, entries = append(dirs, d), append(entries, FileEntry{Name: f.Name, Size: r.Size, DirCRC: r.DirCRC, Datasets: r.Count})
	}
	return s.Blob(), dirs, entries, errs
}

// derived is the catalog of sections, deriveCatalog's, with each file's
// directory loaded from dirs, deriveCatalog's too.
func derived(sections []byte, dirs []hdf.RawDir) (*catalog.Catalog, error) {
	cat, err := catalog.Decode(sections)
	for f := 0; err == nil && f < len(dirs); f++ {
		err = cat.LoadDir(f, dirs[f])
	}
	return cat, err
}

// checkFile is the one test of a committed file against its commit record:
// found — the file as its header and directory bytes give it, by
// checkOnDisk, deriveCatalog or a file check (checkFiles) — must have the
// size, directory CRC32C and header dataset count its manifest entry e
// pins. A stale or torn replacement of the file cannot keep all three, and
// a file that keeps them has the directory its commit walked.
func checkFile(e, found FileEntry) error {
	if found.Size != e.Size {
		return fmt.Errorf("snapshot: %s is %d bytes on disk, manifest says %d", e.Name, found.Size, e.Size)
	}
	if found.DirCRC != e.DirCRC {
		return fmt.Errorf("%w: snapshot: %s directory crc32c %08x, manifest says %08x",
			hdf.ErrChecksum, e.Name, found.DirCRC, e.DirCRC)
	}
	if found.Datasets != e.Datasets {
		return fmt.Errorf("snapshot: %s header counts %d datasets, manifest says %d", e.Name, found.Datasets, e.Datasets)
	}
	return nil
}

// dirLoad is one committed file's directory: the catalog that indexes the
// file as file f, and the file's pins in the same record, which place the
// directory — it ends the file, whose size the entry pins, and is as long as
// the catalog's file table says — and pin its bytes (DirCRC).
type dirLoad struct {
	cat *catalog.Catalog
	f   int
	e   FileEntry
}

// extent is where l's directory lies in its file (DecodeRecord has held it
// inside the file).
func (l dirLoad) extent() (off, n int64) {
	n = l.cat.DirLen(l.f)
	return l.e.Size - n, n
}

// load is the one loader of a committed file's entries read for a round
// or a scrub: dir, the bytes read from l's extent, must hash to the
// directory CRC32C l's manifest entry pins, and is then installed. A
// directory already loaded is not loaded again.
func (l dirLoad) load(dir []byte) error {
	if l.cat.HasDir(l.f) {
		return nil
	}
	if crc := hdf.Checksum(dir); crc != l.e.DirCRC {
		return fmt.Errorf("%w: snapshot: %s directory crc32c %08x, manifest says %08x", hdf.ErrChecksum, l.e.Name, crc, l.e.DirCRC)
	}
	return l.install(dir)
}

// install indexes dir as l's directory (catalog.LoadDir: the directory's
// gate, and exactly the panes the pane index lists for the file). Its
// caller has held dir to l's manifest entry: load, or a file check that
// passed (checkFiles).
func (l dirLoad) install(dir []byte) error {
	return l.cat.LoadDir(l.f, hdf.RawDir{Name: l.e.Name, Size: l.e.Size, Count: l.e.Datasets, Bytes: dir})
}

// lacking returns the loads of the directories of g's files, by index, that
// g's catalog lacks. g's catalog is its record's, whose files are its
// pins'; a derived index has every directory loaded.
func lacking(g ChainGen, files []int) []dirLoad {
	var loads []dirLoad
	for _, f := range files {
		if !g.Catalog.HasDir(f) {
			loads = append(loads, dirLoad{cat: g.Catalog, f: f, e: g.Manifest.Files[f]})
		}
	}
	return loads
}

// loadDirs reads the directories loads name as one batch through each: each
// one extent read of its own file, whose handle is kept (extentRead.keep)
// for the data reads of the file that follow in the same round, costed by
// its bytes, so a long directory is cut across the pool like any long read.
// Every byte that arrived counts on read. Each directory that read whole is
// loaded (dirLoad.load). The error of each load that did not read or load
// is returned, parallel to loads; its file stays without entries, and the
// reads that need them treat the file as failed.
func loadDirs(each reads, loads []dirLoad, read *metrics.Counter) []error {
	errs := make([]error, len(loads))
	xs := make([]*extentRead, len(loads))
	for i, l := range loads {
		off, n := l.extent()
		x := (&extentRead{name: l.e.Name, keep: true}).add(off, n)
		x.done = func() {
			read.Add(x.got[0])
			if errs[i] = fmt.Errorf("snapshot: %s: directory did not read", l.e.Name); !x.bad[0] {
				errs[i] = l.load(x.bufs[0])
			}
		}
		xs[i] = x
	}
	each.readExtents(slices.DeleteFunc(xs, func(x *extentRead) bool { return x == nil }), nil)
	return errs
}
