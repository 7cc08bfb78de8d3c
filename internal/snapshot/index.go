package snapshot

import (
	"errors"
	"fmt"
	"slices"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// deriveCatalog builds the block catalog blob of files from what the
// files' own directories record, in the order given — the one way a
// catalog is made: at commit, by the catalog rebuild, and by any reader left
// without a committed one (which loads the directories into it: derived).
// A file's record is the one its writer reported (catalog.Report, made from
// the directory it published) when reported holds it — the commit's case:
// no read. Otherwise its directory is read off the file, counted on
// dirsRead, and makes the same record as it passes the directory's one
// gate (catalog.Splice). When pinned, files are manifest entries and each
// is held to its entry by checkFile. entries are the files' manifest
// records as found, and dirs the directories read (the zero RawDir for a
// reported file), both parallel to the blob's file table. A file whose
// directory will not read or pass, or fails its pin, is in neither, and its
// error (which names it) is in errs.
func deriveCatalog(fsys rt.FS, files []FileEntry, pinned bool, reported map[string]catalog.Report, dirsRead *metrics.Counter) (blob []byte, dirs []hdf.RawDir, entries []FileEntry, errs []error) {
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
		found := FileEntry{Name: f.Name, Size: r.Size, DirCRC: r.DirCRC, Datasets: r.Count}
		if err == nil && pinned {
			err = checkFile(f, found)
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
		dirs, entries = append(dirs, d), append(entries, found)
	}
	return s.Blob(), dirs, entries, errs
}

// derived is the catalog of blob, deriveCatalog's, with each file's
// directory loaded from dirs, deriveCatalog's too.
func derived(blob []byte, dirs []hdf.RawDir) (*catalog.Catalog, error) {
	cat, err := catalog.Decode(blob)
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

// matches reports whether blob is the catalog blob r pins: its size and
// its header's CRC32C, which holds each section's.
func (r *CatalogRef) matches(blob []byte) bool {
	h, err := catalog.ReadHeader(blob)
	return err == nil && int64(len(blob)) == r.Size && h.CRC == r.CRC
}

// readCatalog reads the catalog blob m's commit wrote — whole, in one
// request: it holds the file table and pane index alone — counting on read
// the bytes that arrived. The blob must be the one the manifest pins, so an
// orphan of a crashed earlier commit, or another generation's blob, is
// never taken for this one's; each section must match its CRC32C and parse
// (catalog.Decode; a damaged section's error names it); and the file table
// must list m's files in m's order, so that file f's directory is pinned by
// m.Files[f] (dirLoad).
func readCatalog(fsys rt.FS, m *Manifest, read *metrics.Counter) (*catalog.Catalog, error) {
	blob, err := hdf.ReadFile(fsys, m.Catalog.Name)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	read.Add(int64(len(blob)))
	if !m.Catalog.matches(blob) {
		return nil, fmt.Errorf("%w: catalog %s is %d bytes, not the %d-byte blob with header crc32c %08x its manifest pins",
			hdf.ErrChecksum, m.Catalog.Name, len(blob), m.Catalog.Size, m.Catalog.CRC)
	}
	cat, err := catalog.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("catalog %s: %w", m.Catalog.Name, err)
	}
	if !slices.EqualFunc(cat.Files, m.Files, func(name string, e FileEntry) bool { return name == e.Name }) {
		return nil, fmt.Errorf("catalog %s: file table does not list its manifest's files", m.Catalog.Name)
	}
	return cat, nil
}

// dirLoad is one committed file's directory: the catalog that indexes the
// file as file f, and the file's manifest entry, which places the
// directory — it ends the file, whose size the entry pins, and is as long as
// the catalog's file table says — and pins its bytes (DirCRC).
type dirLoad struct {
	cat *catalog.Catalog
	f   int
	e   FileEntry
}

// extent is where l's directory lies in its file; n is 0 when the catalog
// places it outside the file.
func (l dirLoad) extent() (off, n int64) {
	n = l.cat.DirLen(l.f)
	if off = l.e.Size - n; off < hdf.HeaderSize() {
		return 0, 0
	}
	return off, n
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
// g's catalog lacks. g's catalog is the committed one, whose files are its
// manifest's (readCatalog); a derived index has every directory loaded.
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
		if n == 0 {
			errs[i] = fmt.Errorf("snapshot: %s: catalog places a %d-byte directory in a %d-byte file", l.e.Name, l.cat.DirLen(l.f), l.e.Size)
			continue
		}
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

// index answers "where are the pane bytes of the generation m commits",
// given what readCatalog returned for m: the committed catalog when it was
// accepted, otherwise — for a full generation, whose files are its whole
// state — the same catalog derived from the manifested files' directories,
// every directory loaded. The bool reports which; a derived index holds
// every file whose directory read and passes checkFile, and the error then
// joins the errors of those that did not (a reader goes on without them;
// whoever needs the whole generation cannot). A file the manifest does not
// pin is never indexed. A restart Reader and the scrub read the committed
// catalog the same way and get the same answer.
//
// A delta generation gets no derived index: its files do not spell out the
// panes it inherits, and a derived index that silently lacked a damaged
// file would resolve that file's panes to a stale older link. Its committed
// catalog loads or index fails.
func index(fsys rt.FS, m *Manifest, cat *catalog.Catalog, err error) (*catalog.Catalog, bool, error) {
	if err == nil || m.ChainDepth > 0 {
		return cat, false, err
	}
	blob, dirs, _, errs := deriveCatalog(fsys, m.Files, true, nil, nil)
	if cat, err = derived(blob, dirs); err != nil {
		return nil, false, err
	}
	return cat, true, errors.Join(errs...)
}
