package snapshot

import (
	"fmt"

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

// throughChain is the one rule the restore walk and the scrub hold the chain
// of the generation under base to: LoadChain loads every link, and every file
// of a link with Replication ≤ 1 passes check (the walk's checkOnDisk, the
// scrub's report). A replicated link is gone through whatever its files'
// state: the read path retries each pane against the file's copies. It
// returns the chain it went through, or on refusal the link at fault.
func throughChain(fsys rt.FS, base string, check func(FileEntry) error) (chain []ChainGen, link string, err error) {
	chain, err = LoadChain(fsys, base)
	if err != nil {
		link = base
		if n := len(chain); n > 0 {
			if link = chain[n-1].Base; chain[n-1].Catalog != nil {
				link = chain[n-1].Manifest.BaseGeneration
			}
		}
		return nil, link, err
	}
	for _, g := range chain {
		if g.Manifest.Replication > 1 {
			continue
		}
		for _, e := range g.Manifest.Files {
			if err := check(e); err != nil {
				return nil, g.Base, fmt.Errorf("snapshot: verify %s: %w", g.Base, err)
			}
		}
	}
	return chain, "", nil
}
