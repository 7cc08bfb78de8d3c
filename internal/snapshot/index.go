package snapshot

import (
	"errors"
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// deriveCatalog builds the block catalog of the named files from the files'
// own directories, in the order given — directory → AddFile, the one way a
// catalog is made: at commit, by the catalog rebuild and the scrub, and by
// any reader left without a committed one. A file's directory is the one its
// writer reported publishing, when reported holds it (the commit's case: no
// read), and is otherwise read off the file by hdf.ScanDir and counted on
// dirsRead; both pass the same validation gate. entries are the files'
// manifest records, parallel to cat.Files. A file whose directory will not
// read or decode is in neither, and its error (which names it) is in errs.
func deriveCatalog(fsys rt.FS, names []string, reported map[string]hdf.Published, dirsRead *metrics.Counter) (cat *catalog.Catalog, entries []FileEntry, errs []error) {
	cat = &catalog.Catalog{}
	for _, name := range names {
		var size int64
		var crc uint32
		var sets []*hdf.Dataset
		var err error
		if p, ok := reported[name]; ok {
			size, crc, sets, err = p.Decode()
		} else {
			size, crc, sets, err = hdf.ScanDir(fsys, name)
			dirsRead.Inc()
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		entries = append(entries, FileEntry{Name: name, Size: size, DirCRC: crc, Datasets: len(sets)})
		cat.AddFile(name, sets)
	}
	return cat, entries, errs
}

// loadCatalog reads the catalog blob m's commit wrote: the bytes must have
// the size and CRC32C the manifest pins before they are decoded, so an
// orphan of a crashed earlier commit, or another generation's blob, is
// never taken for this one's.
func loadCatalog(fsys rt.FS, m *Manifest) (*catalog.Catalog, error) {
	if m.Catalog == nil {
		return nil, fmt.Errorf("snapshot: %s committed no catalog", m.Base)
	}
	blob, err := hdf.ReadFile(fsys, m.Catalog.Name)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	if size := int64(len(blob)); size != m.Catalog.Size {
		return nil, fmt.Errorf("catalog: %s is %d bytes on disk, manifest says %d", m.Catalog.Name, size, m.Catalog.Size)
	}
	if crc := hdf.Checksum(blob); crc != m.Catalog.CRC {
		return nil, fmt.Errorf("%w: catalog %s blob crc32c %08x, manifest says %08x", hdf.ErrChecksum, m.Catalog.Name, crc, m.Catalog.CRC)
	}
	return catalog.Decode(blob)
}

// Index answers "where are the pane bytes of the generation m commits": the
// committed catalog when loadCatalog accepts it, otherwise — for a full
// generation, whose files are its whole state — the same catalog derived
// from the manifested files' directories. derived reports which; a derived
// index holds every file whose directory read, and err then joins the errors
// of those that did not (a reader goes on without them; whoever needs the
// whole generation cannot).
//
// A delta generation gets no derived index: its files do not spell out the
// panes it inherits, and a derived index that silently lacked a damaged
// file would resolve that file's panes to a stale older link. Its committed
// catalog loads or Index fails.
func Index(fsys rt.FS, m *Manifest) (cat *catalog.Catalog, derived bool, err error) {
	if cat, err = loadCatalog(fsys, m); err == nil || m.ChainDepth > 0 {
		return cat, false, err
	}
	cat, _, errs := deriveCatalog(fsys, m.fileNames(), nil, nil)
	return cat, true, errors.Join(errs...)
}
