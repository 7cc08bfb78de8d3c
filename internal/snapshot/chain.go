package snapshot

import (
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/rt"
)

// ChainGen is one link of a delta chain: a committed generation's base
// name, its manifest, and its catalog. Catalog is nil when the blob failed
// to load: LoadChain reports that as an error for every link except a
// depth-0 head, whose readers can still scan its files.
type ChainGen struct {
	Base     string
	Manifest *Manifest
	Catalog  *catalog.Catalog
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
// Every link needs a loadable, valid manifest and, because chain
// resolution is catalog-driven (a delta's files do not spell out the panes
// it inherits, so there is no scan fallback across generations), a
// loadable catalog. The one exception is a depth-0 head: its files are its
// whole state, so it comes back with a nil Catalog and no error, and the
// reader scans. On any other failure the error is returned alongside the
// links whose manifests did load — an empty prefix means base itself has
// no readable commit record.
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
		cat, err := catalog.Load(fsys, cur)
		chain = append(chain, ChainGen{Base: cur, Manifest: m, Catalog: cat})
		if err != nil && (len(chain) > 1 || m.ChainDepth > 0) {
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
