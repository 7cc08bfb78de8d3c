package snapshot

import (
	"errors"
	"sort"

	"genxio/internal/catalog"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Prune removes all artifacts of generations older than the newest
// retain ones — snapshot files, staged temporaries, and the manifest,
// which goes first so a crash mid-prune leaves the generation visibly
// uncommitted rather than silently partial. A generation referenced by
// a retained delta chain is pinned: the transitive BaseGeneration
// closure of every kept committed generation survives, however old, so
// a delta is never pruned out from under its children. Files already
// gone are tolerated (a crashed or concurrent prune can simply be
// re-run). retain <= 0 keeps everything. It returns the removed bases
// in sorted (oldest-first) order.
//
// Prune lists prefix once and knows no chain links: it reads every link
// from its generation's manifest. A commit prunes from the listing it
// already took, with the links it wrote (Pending).
func Prune(fsys rt.FS, prefix string, retain int) ([]string, error) {
	if retain <= 0 {
		return nil, nil
	}
	names, err := fsys.List(prefix)
	if err != nil {
		return nil, err
	}
	return prune(fsys, names, retain, make(map[string]string), nil)
}

// prune is Prune over names, a listing of the generations' prefix: the
// generations, the pins and the removals all come from it, and only names
// it holds are removed. links maps a committed generation's base to its
// BaseGeneration ("" for a full generation). The pin closure reads the
// manifest of a generation links does not know — counting it on read — and
// remembers what it found; on return links holds only generations that
// survived, so it never outgrows the retained and pinned ones. A link the
// caller committed is trusted over the manifest, which can only over-pin:
// a retained manifest that no longer loads still pins its base.
func prune(fsys rt.FS, names []string, retain int, links map[string]string, read *metrics.Counter) ([]string, error) {
	gens, files := generations(names)
	defer func() {
		for base := range links {
			if _, ok := files[base]; !ok {
				delete(links, base)
			}
		}
	}()
	if len(gens) <= retain {
		return nil, nil
	}
	// Pin the chain ancestry of every retained committed generation.
	// An unreadable manifest contributes no links — its chain is already
	// unrestorable, so nothing extra needs protecting.
	pinned := make(map[string]bool)
	queue := make([]string, 0, retain)
	for _, g := range gens[:retain] {
		if g.Committed {
			queue = append(queue, g.Base)
		}
	}
	for len(queue) > 0 {
		base := queue[0]
		queue = queue[1:]
		link, known := links[base]
		if !known {
			read.Inc()
			m, err := Load(fsys, base)
			if err != nil {
				continue
			}
			link = m.BaseGeneration
			links[base] = link
		}
		if link == "" || pinned[link] {
			continue
		}
		pinned[link] = true
		queue = append(queue, link)
	}
	var removed []string
	for _, g := range gens[retain:] {
		if pinned[g.Base] {
			continue
		}
		// The manifest goes first, the catalog right after it so a pruned
		// generation leaves no orphaned index behind, then the rest.
		own := files[g.Base]
		sort.SliceStable(own, func(i, j int) bool { return removalRank(g.Base, own[i]) < removalRank(g.Base, own[j]) })
		for _, name := range own {
			// A name already gone is tolerated: a prune interrupted after
			// some removals (or racing a concurrent prune) must be
			// re-runnable.
			if err := fsys.Remove(name); err != nil && !errors.Is(err, rt.ErrNotExist) {
				return sorted(removed), err
			}
		}
		delete(files, g.Base)
		removed = append(removed, g.Base)
	}
	return sorted(removed), nil
}

// removalRank orders a generation's artifacts for removal: the manifest,
// then the catalog, then everything else.
func removalRank(base, name string) int {
	switch name {
	case base + Suffix:
		return 0
	case base + catalog.Suffix:
		return 1
	}
	return 2
}

func sorted(names []string) []string {
	sort.Strings(names)
	return names
}
