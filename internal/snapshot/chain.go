package snapshot

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"genxio/internal/catalog"
	"genxio/internal/rt"
)

// ChainGen is one link of a delta chain: a committed generation's base
// name, its manifest, and its index (Index). Derived marks an index built
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
// whatever Index gives: a depth-0 head whose committed catalog is missing,
// damaged or not the one its manifest pins comes back Derived, with the
// files whose directories read, and no error. Every link under a head needs
// its committed catalog — a delta's files do not spell out the panes it
// inherits, so nothing is derived across generations. On any failure the
// error is returned alongside the links whose manifests did load — an empty
// prefix means base itself has no readable commit record.
func LoadChain(fsys rt.FS, base string) ([]ChainGen, error) {
	var chain []ChainGen
	seen := make(map[string]bool)
	for cur := base; ; {
		if seen[cur] {
			return chain, fmt.Errorf("snapshot: chain of %s revisits %s", base, cur)
		}
		if len(chain) >= maxChainDepth {
			return chain, fmt.Errorf("snapshot: chain of %s exceeds depth %d", base, maxChainDepth)
		}
		seen[cur] = true
		m, err := Load(fsys, cur)
		if err != nil {
			return chain, fmt.Errorf("snapshot: chain of %s: link %s: %w", base, cur, err)
		}
		g := ChainGen{Base: cur, Manifest: m}
		if len(chain) == 0 {
			if g.Catalog, g.Derived, err = Index(fsys, m); g.Derived {
				err = nil
			}
		} else {
			g.Catalog, err = loadCatalog(fsys, m)
		}
		chain = append(chain, g)
		if err != nil {
			return chain, fmt.Errorf("snapshot: chain of %s: link %s catalog: %w", base, cur, err)
		}
		if m.ChainDepth == 0 {
			return chain, nil
		}
		cur = m.BaseGeneration
	}
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

// PaneUniverse returns the sorted set of pane IDs a committed generation
// holds for a window — the input to the M×N repartitioner, which lets a
// restart run use a different rank count than the writing run. It answers
// from universe; a full generation's Index must be whole: a universe short
// of an unreadable file's panes would restore short and report success.
func PaneUniverse(fsys rt.FS, base, window string) ([]int, error) {
	m, err := Load(fsys, base)
	var cat *catalog.Catalog
	if err == nil && m.ChainDepth == 0 {
		cat, _, err = Index(fsys, m)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: pane universe of %s: %w", base, err)
	}
	ids := slices.Sorted(slices.Values(universe(m, cat)[window]))
	if len(ids) == 0 {
		return nil, fmt.Errorf("snapshot: generation %s has no panes in window %q", base, window)
	}
	return ids, nil
}

// universe is the pane universe, per window, a restart of the generation m
// commits must restore. A delta answers from the universe its manifest
// recorded at snapshot time (its files alone cannot: most panes live down
// the chain, and a pane deleted by refinement must not resurrect from a base
// generation); a full generation from cat, its index.
func universe(m *Manifest, cat *catalog.Catalog) map[string][]int {
	if m.ChainDepth > 0 {
		return m.Panes
	}
	u := make(map[string][]int)
	for _, e := range cat.Entries {
		if _, seen := u[e.Window]; !seen {
			u[e.Window] = cat.Panes(e.Window)
		}
	}
	return u
}

// judge holds the generation under base to restorable, each file judged by
// fileOK (the walk's checkOnDisk, the scrub's reports): nil when the restore
// walk goes through it, else the link at fault — where LoadChain stopped, or
// where the first pane with no intact copy resolves — and why.
func judge(fsys rt.FS, base string, fileOK func(FileEntry) bool) (link string, err error) {
	chain, err := LoadChain(fsys, base)
	if n := len(chain); err != nil {
		if link = base; n > 0 && chain[n-1].Catalog == nil {
			link = chain[n-1].Base
		} else if n > 0 {
			link = chain[n-1].Manifest.BaseGeneration
		}
		return link, err
	}
	if link, lost := restorable(chain, fileOK); len(lost) > 0 {
		return link, fmt.Errorf("snapshot: %s: no intact copy of %s (%d in all)", base, strings.Join(lost[:min(len(lost), 4)], ", "), len(lost))
	}
	return "", nil
}

// restorable is the restore walk's one rule, at the unit a restart promises:
// every pane of the head's universe needs a copy whose file passes fileOK,
// in the link the pane resolves to (catalog.ResolvePanes). fileOK is asked
// best copy first, the next only when one fails, each file at most once. It
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
			for _, fp := range g.Catalog.PlanReads(w, panes) {
				for _, e := range fp.Entries {
					if !wanted[e.Pane] {
						continue // another dataset of a pane already judged
					}
					delete(wanted, e.Pane)
					if at[e.Pane] = g.Base; ok(g, fp.File) || slices.ContainsFunc(g.Catalog.PaneSources(w, e.Pane),
						func(src catalog.FilePlan) bool { return ok(g, src.File) }) {
						delete(at, e.Pane)
					}
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
