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
// its header's CRC32C, which holds every section's.
func (r *CatalogRef) matches(blob []byte) bool {
	h, err := catalog.ReadHeader(blob)
	return err == nil && int64(len(blob)) == r.Size && h.CRC == r.CRC
}

// pinned holds a catalog header to the reference its manifest carries.
func (r *CatalogRef) pinned(h *catalog.Header) error {
	if h.CRC != r.CRC || h.Size() != r.Size {
		return fmt.Errorf("%w: catalog %s header crc32c %08x describes %d bytes, manifest pins crc32c %08x and %d bytes",
			hdf.ErrChecksum, r.Name, h.CRC, h.Size(), r.CRC, r.Size)
	}
	return nil
}

// catalogBlob is where a committed catalog's entry runs load from: the
// blob's name and, while a Reader holds the chain, the handle its owner
// opened the blob with (nil: open it by name).
type catalogBlob struct {
	name string
	f    rt.File
}

// close closes the handle, if any; the blob is then opened by name.
func (b *catalogBlob) close() {
	if b != nil && b.f != nil {
		b.f.Close()
		b.f = nil
	}
}

// openCatalog reads what a reader plans from of the catalog blob m's commit
// wrote, the sections it addresses and no more: the header — one request,
// its length known from the manifest's file count — which must be the one
// the manifest pins, so an orphan of a crashed earlier commit, or another
// generation's blob, is never taken for this one's; then the file table and
// pane index in one request, each checked against the header. When
// prefetch is set, the entry runs of the files it names load next on the
// same handle (a round that knows its share reads it with the catalog, one
// open); other runs load later, as plans need them (loadRuns), from the blob
// returned: with its handle still open when keep is set. Every byte read
// counts on read.
func openCatalog(fsys rt.FS, m *Manifest, read *metrics.Counter, keep bool, prefetch func(*catalog.Catalog) []int) (*catalog.Catalog, *catalogBlob, error) {
	f, err := fsys.Open(m.Catalog.Name)
	if err != nil {
		return nil, nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	blob := &catalogBlob{name: m.Catalog.Name, f: f}
	cat, err := openSections(f, m, read)
	if err == nil && prefetch != nil {
		if l := lacking(cat, blob, prefetch(cat)); l != nil {
			readRuns(reads{fsys: fsys}, []*runLoad{l}, true, read)
		}
	}
	if err != nil || !keep {
		blob.close()
	}
	if err != nil {
		return nil, nil, err
	}
	return cat, blob, nil
}

// openSections is openCatalog on f, the open blob.
func openSections(f rt.File, m *Manifest, read *metrics.Counter) (*catalog.Catalog, error) {
	head, err := readAt(f, 0, int64(catalog.HeaderSize(len(m.Files))), read)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	h, err := catalog.ReadHeader(head)
	if err == nil {
		err = m.Catalog.pinned(h)
	}
	if err != nil {
		return nil, fmt.Errorf("catalog %s: %w", m.Catalog.Name, err)
	}
	off, n := h.IndexExtent()
	index, err := readAt(f, off, n, read)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	return catalog.Open(h, index)
}

// readAt reads n bytes of f at off in one request, counting on read what
// arrived.
func readAt(f rt.File, off, n int64, read *metrics.Counter) ([]byte, error) {
	b := make([]byte, n)
	got, err := f.ReadAt(b, off)
	read.Add(int64(got))
	if got == len(b) {
		return b, nil
	}
	return nil, err
}

// readCatalog reads the whole catalog blob m's commit wrote: it must be the
// blob the manifest pins before it is decoded, every section checked.
func readCatalog(fsys rt.FS, m *Manifest) (*catalog.Catalog, error) {
	blob, err := hdf.ReadFile(fsys, m.Catalog.Name)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", m.Catalog.Name, err)
	}
	if !m.Catalog.matches(blob) {
		return nil, fmt.Errorf("%w: catalog %s is %d bytes, not the %d-byte blob with header crc32c %08x its manifest pins",
			hdf.ErrChecksum, m.Catalog.Name, len(blob), m.Catalog.Size, m.Catalog.CRC)
	}
	return catalog.Decode(blob)
}

// runLoad is one catalog's entry runs a plan needs and lacks: the catalog,
// its blob and the files whose runs to load.
type runLoad struct {
	cat   *catalog.Catalog
	blob  *catalogBlob
	files []int
}

// runBytes is the length of c's runs of files.
func runBytes(c *catalog.Catalog, files []int) (n int64) {
	for _, f := range files {
		_, m := c.RunExtent(f)
		n += m
	}
	return n
}

// ranges groups l's files into ranges of adjacent runs, each read in one
// request unless the read is cut.
func (l *runLoad) ranges() [][]int {
	var rs [][]int
	for j, f := range l.files {
		if j > 0 && f == l.files[j-1]+1 {
			rs[len(rs)-1] = append(rs[len(rs)-1], f)
		} else {
			rs = append(rs, []int{f})
		}
	}
	return rs
}

// extents lays l's ranges out as one extent read of its blob, through the
// blob's handle when held is set.
func (l *runLoad) extents(held bool) *extentRead {
	x := &extentRead{name: l.blob.name}
	if held {
		x.f = l.blob.f
	}
	for _, fs := range l.ranges() {
		off, _ := l.cat.RunExtent(fs[0])
		x.add(off, runBytes(l.cat, fs))
	}
	return x
}

// readRuns reads the runs loads name as one batch through each, one extent
// read per blob (extents: through its handle when held is set), costed by
// its runs' lengths in the section table, counting on read every byte that
// arrived, and loads the runs of each range that read whole, each that
// matches its record (Catalog.LoadRun; one that does not is derived by
// loadRuns, or loads again when a plan needs it).
func readRuns(each reads, loads []*runLoad, held bool, read *metrics.Counter) {
	xs := make([]*extentRead, len(loads))
	for i, l := range loads {
		xs[i] = l.extents(held)
	}
	each.readExtents(xs, nil)
	for i, l := range loads {
		x := xs[i]
		read.Add(x.got)
		for r, fs := range l.ranges() {
			if x.bad[r] {
				continue
			}
			buf := x.bufs[r]
			for _, f := range fs {
				_, m := l.cat.RunExtent(f)
				l.cat.LoadRun(f, buf[:m:m])
				buf = buf[m:]
			}
		}
	}
}

// loadRuns loads the entry runs loads name: those of a blob whose handle is
// held on the owner off that handle, inline, unless the pool could cut
// them; the rest as one batch through the driver (readRuns) — a read longer
// than the batch's fair share cut across the pool's workers. Every byte
// read counts on read. A run that did not read or does not match its
// section's record is derived again from its file's own directory
// (deriveCatalog, the catalog of that file alone), the run the commit wrote
// from those very entries: an intact file gives back the bytes the header
// pins, which LoadRun still checks. A run that loads neither way stays
// unloaded, and the reads that need it treat its file as failed.
func loadRuns(each reads, loads []*runLoad, read *metrics.Counter) {
	var held, byName []*runLoad
	for _, l := range loads {
		if l.blob.f != nil && !each.cuts(runBytes(l.cat, l.files)) {
			held = append(held, l)
		} else {
			byName = append(byName, l)
		}
	}
	readRuns(each.inline(), held, true, read)
	readRuns(each, byName, false, read)
	for _, l := range loads {
		for _, f := range l.files {
			if l.cat.HasRun(f) {
				continue
			}
			blob, _, errs := deriveCatalog(each.fsys, []FileEntry{{Name: l.cat.Files[f]}}, false, nil, nil)
			if one, err := catalog.Decode(blob); len(errs) == 0 && err == nil {
				off, n := one.RunExtent(0)
				l.cat.LoadRun(f, blob[off:off+n])
			}
		}
	}
}

// lacking returns a load of the runs of files that c lacks, nil if none
// (or c is nil, or whole and has no blob).
func lacking(c *catalog.Catalog, blob *catalogBlob, files []int) *runLoad {
	if c == nil || blob == nil {
		return nil
	}
	var need []int
	for _, f := range files {
		if !c.HasRun(f) {
			need = append(need, f)
		}
	}
	if len(need) == 0 {
		return nil
	}
	return &runLoad{cat: c, blob: blob, files: need}
}

// index answers "where are the pane bytes of the generation m commits",
// given what openCatalog or readCatalog returned for m: the committed
// catalog when it was accepted, otherwise — for a full generation, whose
// files are its whole state — the same catalog derived from the manifested
// files' directories. The bool reports which; a derived index holds every
// file whose directory read and passes checkFile, and the error then joins
// the errors of those that did not (a reader goes on without them; whoever
// needs the whole generation cannot). A file the manifest does not pin is
// never indexed. A restart Reader reads the committed catalog section by
// section (openCatalog, loadRuns), the scrub whole (readCatalog), and both
// get the same answer.
//
// A delta generation gets no derived index: its files do not spell out the
// panes it inherits, and a derived index that silently lacked a damaged
// file would resolve that file's panes to a stale older link. Its committed
// catalog loads or index fails.
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
