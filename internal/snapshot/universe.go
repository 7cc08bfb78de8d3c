package snapshot

import (
	"fmt"
	"sort"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// PaneUniverse returns the sorted set of pane IDs a committed generation
// holds for a window — the input to the M×N repartitioner, which lets a
// restart run use a different rank count than the writing run. A delta
// generation answers from the universe its manifest recorded at snapshot
// time (the files alone cannot: most panes live down the chain, and a
// pane deleted by refinement must not resurrect from a base generation).
// Full generations answer from the catalog; ones without a usable
// catalog fall back to walking the manifested files' directories.
func PaneUniverse(fsys rt.FS, base, window string) ([]int, error) {
	m, err := Load(fsys, base)
	if err == nil && m.ChainDepth > 0 {
		ids := append([]int(nil), m.Panes[window]...)
		if len(ids) == 0 {
			return nil, fmt.Errorf("snapshot: delta generation %s records no panes in window %q", base, window)
		}
		sort.Ints(ids)
		return ids, nil
	}
	if cat, err := catalog.Load(fsys, base); err == nil {
		if ids := cat.Panes(window); len(ids) > 0 {
			return ids, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: pane universe of %s: %w", base, err)
	}
	seen := make(map[int]bool)
	for _, e := range m.Files {
		_, _, sets, err := hdf.ScanDir(fsys, e.Name)
		if err != nil {
			return nil, fmt.Errorf("snapshot: pane universe of %s: %w", base, err)
		}
		for _, d := range sets {
			w, pane, _, ok := roccom.ParseDatasetName(d.Name)
			if ok && w == window {
				seen[pane] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("snapshot: generation %s has no panes in window %q", base, window)
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}
