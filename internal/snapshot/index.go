package snapshot

import (
	"errors"
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// deriveCatalog builds the block catalog blob of files from the files' own
// directories, in the order given — the one way a catalog is made: at
// commit, by the catalog rebuild and the scrub, and by any reader left
// without a committed one (which decodes it). A file's directory is the one
// its writer reported publishing, when reported holds it (the commit's
// case: no read), and is otherwise read off the file and counted on
// dirsRead; either way its entries pass the directory's one gate and are
// copied into the blob as they stand (catalog.Splice). When pinned, files
// are manifest entries and each is held to its entry by checkFile. entries
// are the files' manifest records as found, parallel to the blob's file
// table. A file whose directory will not read or pass, or fails its pin, is
// in neither, and its error (which names it) is in errs.
func deriveCatalog(fsys rt.FS, files []FileEntry, pinned bool, reported map[string]hdf.Published, dirsRead *metrics.Counter) (blob []byte, entries []FileEntry, errs []error) {
	var s catalog.Splice
	for _, f := range files {
		var d hdf.RawDir
		var err error
		if p, ok := reported[f.Name]; ok {
			d = p.Raw()
		} else {
			dirsRead.Inc()
			d, err = hdf.ReadRawDir(fsys, f.Name)
		}
		found := FileEntry{Name: f.Name, Size: d.Size, DirCRC: hdf.Checksum(d.Bytes), Datasets: d.Count}
		if err == nil && pinned {
			err = checkFile(f, found)
		}
		if err == nil {
			err = s.AddDir(d)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		entries = append(entries, found)
	}
	return s.Blob(), entries, errs
}

// checkFile is the one test of a committed file against its commit record:
// found — the file as its header and directory bytes give it, by
// checkOnDisk or deriveCatalog — must have the size, directory CRC32C and
// header dataset count its manifest entry e pins. A stale or torn
// replacement of the file cannot keep all three, and a file that keeps them
// has the directory its commit walked.
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
// whole-blob CRC32C.
func (r *CatalogRef) matches(blob []byte) bool {
	return int64(len(blob)) == r.Size && hdf.Checksum(blob) == r.CRC
}

// loadCatalog reads the catalog blob m's commit wrote: the bytes must be the
// blob the manifest pins before they are decoded, so an orphan of a crashed
// earlier commit, or another generation's blob, is never taken for this
// one's.
func loadCatalog(fsys rt.FS, m *Manifest) (*catalog.Catalog, error) {
	blob, err := hdf.ReadFile(fsys, m.Catalog.Name)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	if !m.Catalog.matches(blob) {
		return nil, fmt.Errorf("%w: catalog %s is %d bytes crc32c %08x, manifest pins %d bytes crc32c %08x", hdf.ErrChecksum,
			m.Catalog.Name, len(blob), hdf.Checksum(blob), m.Catalog.Size, m.Catalog.CRC)
	}
	return catalog.Decode(blob)
}

// Index answers "where are the pane bytes of the generation m commits": the
// committed catalog when loadCatalog accepts it, otherwise — for a full
// generation, whose files are its whole state — the same catalog derived
// from the manifested files' directories. derived reports which; a derived
// index holds every file whose directory read and passes checkFile, and err
// then joins the errors of those that did not (a reader goes on without
// them; whoever needs the whole generation cannot). A file the manifest does
// not pin is never indexed.
//
// A delta generation gets no derived index: its files do not spell out the
// panes it inherits, and a derived index that silently lacked a damaged
// file would resolve that file's panes to a stale older link. Its committed
// catalog loads or Index fails.
func Index(fsys rt.FS, m *Manifest) (cat *catalog.Catalog, derived bool, err error) {
	cat, err = loadCatalog(fsys, m)
	return index(fsys, m, cat, err)
}

// index is Index given what loadCatalog returned for m.
func index(fsys rt.FS, m *Manifest, cat *catalog.Catalog, err error) (*catalog.Catalog, bool, error) {
	if err == nil || m.ChainDepth > 0 {
		return cat, false, err
	}
	blob, _, errs := deriveCatalog(fsys, m.Files, true, nil, nil)
	if cat, err = catalog.Decode(blob); err != nil {
		return nil, false, err
	}
	return cat, true, errors.Join(errs...)
}
