package snapshot

import (
	"fmt"
	"sort"

	"genxio/internal/rt"
)

// PaneUniverse returns the sorted set of pane IDs a committed generation
// holds for a window — the input to the M×N repartitioner, which lets a
// restart run use a different rank count than the writing run. A delta
// generation answers from the universe its manifest recorded at snapshot
// time (the files alone cannot: most panes live down the chain, and a
// pane deleted by refinement must not resurrect from a base generation).
// A full generation answers from its Index, which must be whole: a
// universe short of an unreadable file's panes would restore short and
// report success.
func PaneUniverse(fsys rt.FS, base, window string) ([]int, error) {
	m, err := Load(fsys, base)
	if err != nil {
		return nil, fmt.Errorf("snapshot: pane universe of %s: %w", base, err)
	}
	if m.ChainDepth > 0 {
		ids := append([]int(nil), m.Panes[window]...)
		if len(ids) == 0 {
			return nil, fmt.Errorf("snapshot: delta generation %s records no panes in window %q", base, window)
		}
		sort.Ints(ids)
		return ids, nil
	}
	cat, _, err := Index(fsys, m)
	if err != nil {
		return nil, fmt.Errorf("snapshot: pane universe of %s: %w", base, err)
	}
	ids := cat.Panes(window)
	if len(ids) == 0 {
		return nil, fmt.Errorf("snapshot: generation %s has no panes in window %q", base, window)
	}
	return ids, nil
}
