package snapshot

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// ChainGen is one link of a delta chain: a committed generation's base
// name, its manifest, and its index (index). Derived marks an index built
// from the files' directories, which only a depth-0 head may have; Catalog is
// nil on the link LoadChain failed at.
type ChainGen struct {
	Base     string
	Manifest *Manifest
	Catalog  *catalog.Catalog
	Derived  bool
}

// maxChainDepth bounds the chain walk against manifests whose recorded
// depths form an unbounded (or cyclic) ancestry. Real chains are capped
// by the FullEvery cadence, orders of magnitude below this.
const maxChainDepth = 1024

// LoadChain is how a reader learns a generation's shape: it loads the
// generation under base and walks its delta chain down to the full
// generation, newest first — result[0] is base itself and the last element
// has ChainDepth 0. A full generation is the chain of length one.
//
// Every link needs a loadable, valid manifest and an index. The head's is
// whatever index gives: a depth-0 head whose committed catalog is missing,
// damaged or not the one its manifest pins comes back Derived, with the
// files whose directories read, and no error. Every link under a head needs
// its committed catalog — a delta's files do not spell out the panes it
// inherits, so nothing is derived across generations. On any failure the
// error is returned alongside the links whose manifests did load — an empty
// prefix means base itself has no readable commit record.
//
// LoadChain reads inline, in the paper's serial order, and keeps nothing: each
// call reads the whole commit record again, and every directory of every
// link's files (loadDirs), so each catalog comes back with every file
// planable. A Reader is the restart's one loader (Reader.chain): it issues
// the same reads through its driver (loadChain) but loads only the
// directories it plans from, and holds the chain it loaded, for its rounds
// and for its restore walk's judgments.
func LoadChain(fsys rt.FS, base string) ([]ChainGen, error) {
	each := reads{fsys: fsys}
	chain, err := loadChain(each, base, nil, nil)
	var loads []dirLoad
	for _, g := range chain {
		if g.Catalog != nil {
			loads = append(loads, lacking(g, allFiles(g.Catalog))...)
		}
	}
	loadDirs(each, loads, nil)
	return chain, err
}

// allFiles returns every file index of c (none of a nil c).
func allFiles(c *catalog.Catalog) []int {
	if c == nil {
		return nil
	}
	files := make([]int, len(c.Files))
	for f := range files {
		files[f] = f
	}
	return files
}

// commitRecord is one generation's commit record as a chain walk loaded it:
// the manifest, and once read, the catalog it pins (readCatalog: the file
// table and pane index, all a judgment needs) — each with why it did not
// load. A pass judging many heads (the scrub) keeps them by base, so a link
// shared by several chains loads once.
type commitRecord struct {
	m       *Manifest
	mErr    error
	cat     *catalog.Catalog
	catErr  error
	catRead bool
}

// loadChain is LoadChain through the driver each, without the directories:
// each link's pinned catalog is read (readCatalog), every catalog byte
// counted on read. The manifests come first, one link at a time on the
// owner's view (each names the next); then every link's catalog is read as
// one batch, one read per catalog, costed at its pinned size. The chain is
// judged in link order after the batch, so it fails where a link-by-link
// walk would stop, with the same error and prefix; only a broken chain reads
// more (the links past the one at fault). known, when set, holds the
// records loaded so far by base and gains the new ones: the scrub's pass
// shares links across heads with it, and a Reader seeds it with the head
// manifest it has just read, so a load reads that manifest once.
func loadChain(each reads, base string, known map[string]*commitRecord, read *metrics.Counter) ([]ChainGen, error) {
	fsys := each.fsys
	if known == nil {
		known = make(map[string]*commitRecord)
	}
	var chain []ChainGen
	var walkErr error
	seen := make(map[string]bool)
	for cur := base; ; {
		if seen[cur] {
			walkErr = fmt.Errorf("snapshot: chain of %s revisits %s", base, cur)
			break
		}
		if len(chain) >= maxChainDepth {
			walkErr = fmt.Errorf("snapshot: chain of %s exceeds depth %d", base, maxChainDepth)
			break
		}
		seen[cur] = true
		rec := known[cur]
		if rec == nil {
			rec = &commitRecord{}
			rec.m, rec.mErr = Load(fsys, cur)
			known[cur] = rec
		}
		if rec.mErr != nil {
			walkErr = fmt.Errorf("snapshot: chain of %s: link %s: %w", base, cur, rec.mErr)
			break
		}
		chain = append(chain, ChainGen{Base: cur, Manifest: rec.m})
		if rec.m.ChainDepth == 0 {
			break
		}
		cur = rec.m.BaseGeneration
	}
	var unread []*commitRecord
	for _, g := range chain {
		if rec := known[g.Base]; !rec.catRead {
			rec.catRead = true
			unread = append(unread, rec)
		}
	}
	costs := make([]int64, len(unread))
	for i, rec := range unread {
		costs[i] = rec.m.Catalog.Size
	}
	each.run(costs, nil, func(fsys rt.FS, _ *readHandles, i int) {
		unread[i].cat, unread[i].catErr = readCatalog(fsys, unread[i].m, read)
	}, func(int) {})
	for i := range chain {
		g, rec := &chain[i], known[chain[i].Base]
		g.Catalog = rec.cat
		err := rec.catErr
		if i == 0 {
			if g.Catalog, g.Derived, err = index(fsys, g.Manifest, rec.cat, rec.catErr); g.Derived {
				err = nil
			}
		}
		if err != nil {
			return chain[:i+1], fmt.Errorf("snapshot: chain of %s: link %s catalog: %w", base, g.Base, err)
		}
	}
	return chain, walkErr
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
	if head.Catalog != nil && head.Manifest.ChainDepth == 0 {
		err = nil // a derived index lacks the files that failed: restorable judges them
		if _, lost := restorable([]ChainGen{head}, func(FileEntry) bool { return true }); len(lost) > 0 {
			err = fmt.Errorf("no indexed copy of %s", strings.Join(lost, ", "))
		}
	}
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
// commits must restore. A delta answers from the universe its manifest
// recorded at snapshot time (its files alone cannot: most panes live down
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
		if link = base; n > 0 && chain[n-1].Catalog == nil {
			link = chain[n-1].Base
		} else if n > 0 {
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
// catalogs index: the catalog and index it has there, and its manifest
// entry.
func chainDirs(chain []ChainGen) map[string]dirLoad {
	dirs := make(map[string]dirLoad)
	for _, g := range chain {
		pinned := make(map[string]FileEntry, len(g.Manifest.Files))
		for _, e := range g.Manifest.Files {
			pinned[e.Name] = e
		}
		for f, name := range g.Catalog.Files {
			dirs[name] = dirLoad{cat: g.Catalog, f: f, e: pinned[name]}
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
// first resolves to. A manifested file the head's index lacks (a derived
// index holds only the files that read) is returned by name unless a copy of
// it (findDonor) is indexed: the universe must not shrink by its panes.
func restorable(chain []ChainGen, fileOK func(FileEntry) bool) (link string, lost []string) {
	head, indexed := chain[0], make(map[string]string)
	for _, name := range head.Catalog.Files {
		indexed[name] = "ok"
	}
	for _, e := range head.Manifest.Files {
		if indexed[e.Name] == "" && findDonor(head.Manifest, e, indexed) == "" {
			link, lost = head.Base, append(lost, e.Name)
		}
	}
	verdicts := make(map[string]bool)
	ok := func(g ChainGen, name string) bool {
		if v, asked := verdicts[name]; asked {
			return v
		}
		i := slices.IndexFunc(g.Manifest.Files, func(e FileEntry) bool { return e.Name == name })
		verdicts[name] = i >= 0 && fileOK(g.Manifest.Files[i])
		return verdicts[name]
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
					func(f int) bool { return ok(g, g.Catalog.Files[f]) }) {
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
