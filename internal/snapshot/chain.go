package snapshot

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// ChainGen is one link of a delta chain: a committed generation's base
// name, its commit record, and the record's catalog.
type ChainGen struct {
	Base     string
	Manifest *Manifest
	Catalog  *catalog.Catalog
}

// LoadChain is how a reader learns a generation's shape: it loads the
// generation under base and walks its delta chain down to the full
// generation, newest first — result[0] is base itself and the last element
// has ChainDepth 0. A full generation is the chain of length one.
//
// Every link needs a loadable, valid commit record, and every link under
// the head the very record its head's links pin. On any failure the error
// is returned alongside the links that did load, in order — an empty
// prefix means base itself has no readable commit record.
//
// LoadChain reads inline, in the paper's serial order, and keeps nothing: each
// call reads every record again, and every directory of every link's files
// (loadDirs), so each catalog comes back with every file planable. A Reader
// is the restart's one loader (Reader.chain): it issues the same reads
// through its driver (loadChain) but loads only the directories it plans
// from, and holds the chain it loaded, for its rounds and for its restore
// walk's judgments.
func LoadChain(fsys rt.FS, base string) ([]ChainGen, error) {
	each := reads{fsys: fsys}
	chain, err := loadChain(each, base, nil, nil)
	var loads []dirLoad
	for _, g := range chain {
		loads = append(loads, lacking(g, allFiles(g.Catalog))...)
	}
	loadDirs(each, loads, nil)
	return chain, err
}

// allFiles returns every file index of c.
func allFiles(c *catalog.Catalog) []int {
	files := make([]int, len(c.Files))
	for f := range files {
		files[f] = f
	}
	return files
}

// commitRecord is one generation's commit record as a chain walk loaded it
// — the record and its catalog, or why it did not load. A pass judging many
// heads (the scrub) keeps them by base, so a link shared by several chains
// loads once.
type commitRecord struct {
	m   *Manifest
	cat *catalog.Catalog
	err error
}

// loadRecord reads and decodes base's commit record on fsys, counting the
// bytes that arrived on read.
func loadRecord(fsys rt.FS, base string, read *metrics.Counter) *commitRecord {
	buf, err := hdf.ReadFile(fsys, base+Suffix)
	read.Add(int64(len(buf)))
	rec := &commitRecord{err: err}
	if err == nil {
		rec.m, rec.cat, rec.err = decodeRecord(base, buf)
	}
	return rec
}

// loadChain is LoadChain through the driver each, without the directories.
// The head's record comes first; it lists every lower link with its pin,
// so every lower record not yet known is read as one batch, one read per
// record costed at its pinned size, every byte counted on read. The chain
// is judged in link order after the batch: each lower record must load,
// be the one the head pins and list the links below it that the head
// does, and the chain fails at the first that is not, with the links before
// it. known, when set, holds the records loaded so far by base and gains
// the new ones: the scrub's pass shares links across heads with it, and a
// Reader seeds it with the head record it has just read, so a load reads
// that record once.
func loadChain(each reads, base string, known map[string]*commitRecord, read *metrics.Counter) ([]ChainGen, error) {
	if known == nil {
		known = make(map[string]*commitRecord)
	}
	head := known[base]
	if head == nil {
		head = loadRecord(each.fsys, base, read)
		known[base] = head
	}
	if head.err != nil {
		return nil, fmt.Errorf("snapshot: chain of %s: link %s: %w", base, base, head.err)
	}
	var unread []Link
	var costs []int64
	for _, l := range head.m.Links {
		if known[l.Base] == nil {
			unread, costs = append(unread, l), append(costs, l.Size)
		}
	}
	recs := make([]*commitRecord, len(unread))
	each.run(costs, nil, func(fsys rt.FS, _ *readHandles, i int) {
		recs[i] = loadRecord(fsys, unread[i].Base, read)
	}, func(i int) { known[unread[i].Base] = recs[i] })
	chain := []ChainGen{{Base: base, Manifest: head.m, Catalog: head.cat}}
	for i, l := range head.m.Links {
		rec := known[l.Base]
		err := rec.err
		switch {
		case err != nil:
		case rec.m.link() != l:
			err = fmt.Errorf("%w: its record is %d bytes with crc32c %08x, %s pins %d bytes with crc32c %08x",
				hdf.ErrChecksum, rec.m.Size, rec.m.CRC, base, l.Size, l.CRC)
		case !slices.Equal(rec.m.Links, head.m.Links[i+1:]):
			err = fmt.Errorf("its record lists other links than %s does", base)
		}
		if err != nil {
			return chain, fmt.Errorf("snapshot: chain of %s: link %s: %w", base, l.Base, err)
		}
		chain = append(chain, ChainGen{Base: l.Base, Manifest: rec.m, Catalog: rec.cat})
	}
	return chain, nil
}

// ChainCatalogs returns the chain's catalogs newest first, ready for
// catalog.ResolvePanes.
func ChainCatalogs(chain []ChainGen) []*catalog.Catalog {
	cats := make([]*catalog.Catalog, len(chain))
	for i, g := range chain {
		cats[i] = g.Catalog
	}
	return cats
}

// paneUniverse is Reader.PaneUniverse's answer from head, a head link it
// loaded or a held chain's head, and err, why head did not load.
func paneUniverse(head ChainGen, window string, err error) ([]int, error) {
	if err != nil {
		return nil, fmt.Errorf("snapshot: pane universe of %s: %w", head.Base, err)
	}
	ids := slices.Sorted(slices.Values(universe(head.Manifest, head.Catalog)[window]))
	if len(ids) == 0 {
		return nil, fmt.Errorf("snapshot: generation %s has no panes in window %q", head.Base, window)
	}
	return ids, nil
}

// universe is the pane universe, per window, a restart of the generation m
// commits must restore. A delta answers from the universe its record
// carries from snapshot time (its files alone cannot: most panes live down
// the chain, and a pane deleted by refinement must not resurrect from a base
// generation); a full generation from cat's pane index.
func universe(m *Manifest, cat *catalog.Catalog) map[string][]int {
	if m.ChainDepth > 0 {
		return m.Panes
	}
	u := make(map[string][]int)
	for _, w := range cat.Windows() {
		u[w] = cat.Panes(w)
	}
	return u
}

// judge holds the generation under base to restorable, each file judged by
// check, which judges a batch of files (the walk's checkFiles, the scrub's
// reports) given each one's directory (chainDirs): nil when the
// restore walk goes through it, else the link at fault — where the chain
// load stopped, or where the first pane with no intact copy resolves — and
// why. chain and err are base's commit record as loaded (loadChain, or a
// Reader's chain); the files restorable asks first, every needed pane's best
// copy, are checked as one batch, and restorable runs over those verdicts,
// checking a copy alone only where a best copy failed — each file at most
// once, as restorable alone would. Every call checks the files afresh.
func judge(base string, chain []ChainGen, err error, check func(files []FileEntry, dirs []dirLoad) []bool) (link string, _ error) {
	if n := len(chain); err != nil {
		if link = base; n > 0 {
			link = chain[n-1].Manifest.BaseGeneration
		}
		return link, err
	}
	var best []FileEntry // what restorable asks when every file passes
	restorable(chain, func(e FileEntry) bool { best = append(best, e); return true })
	dirs := chainDirs(chain)
	at := make([]dirLoad, len(best))
	for i, e := range best {
		at[i] = dirs[e.Name]
	}
	ok := check(best, at)
	verdicts := make(map[string]bool, len(best))
	for i, e := range best {
		verdicts[e.Name] = ok[i]
	}
	link, lost := restorable(chain, func(e FileEntry) bool {
		if v, asked := verdicts[e.Name]; asked {
			return v
		}
		return check([]FileEntry{e}, []dirLoad{dirs[e.Name]})[0]
	})
	if len(lost) > 0 {
		return link, fmt.Errorf("snapshot: %s: no intact copy of %s (%d in all)", base, strings.Join(lost[:min(len(lost), 4)], ", "), len(lost))
	}
	return "", nil
}

// chainDirs gives, by name, the directory of every file the chain's
// catalogs index: the catalog and index it has there, and its pins.
func chainDirs(chain []ChainGen) map[string]dirLoad {
	dirs := make(map[string]dirLoad)
	for _, g := range chain {
		for f, e := range g.Manifest.Files {
			dirs[e.Name] = dirLoad{cat: g.Catalog, f: f, e: e}
		}
	}
	return dirs
}

// restorable is the restore walk's one rule, at the unit a restart promises:
// every pane of the head's universe needs a copy whose file passes fileOK,
// in the link the pane resolves to (catalog.ResolvePanes). fileOK is asked
// best copy first (catalog.PaneFiles), the next only when one fails, each
// file at most once. It reads the links' pane indexes, never a directory. It
// returns the panes with no such copy, as window:pane, and the link the
// first resolves to.
func restorable(chain []ChainGen, fileOK func(FileEntry) bool) (link string, lost []string) {
	head := chain[0]
	verdicts := make(map[string]bool)
	ok := func(g ChainGen, f int) bool {
		e := g.Manifest.Files[f]
		if v, asked := verdicts[e.Name]; asked {
			return v
		}
		verdicts[e.Name] = fileOK(e)
		return verdicts[e.Name]
	}
	u := universe(head.Manifest, head.Catalog)
	for _, w := range slices.Sorted(maps.Keys(u)) {
		wanted, at := make(map[int]bool), make(map[int]string) // at: pane with no intact copy → its link
		for _, id := range u[w] {
			wanted[id], at[id] = true, head.Base // until a link's catalog holds it
		}
		for gi, panes := range catalog.ResolvePanes(ChainCatalogs(chain), w, wanted) {
			g := chain[gi]
			for _, id := range slices.Sorted(maps.Keys(panes)) {
				if at[id] = g.Base; slices.ContainsFunc(g.Catalog.PaneFiles(w, id),
					func(f int) bool { return ok(g, f) }) {
					delete(at, id)
				}
			}
		}
		for _, id := range u[w] {
			if l, bad := at[id]; bad {
				link, lost = cmp.Or(link, l), append(lost, fmt.Sprintf("%s:%d", w, id))
			}
		}
	}
	return link, lost
}
