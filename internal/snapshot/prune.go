package snapshot

import (
	"errors"
	"sort"

	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Prune removes all artifacts of generations older than the newest
// retain ones — snapshot files, staged temporaries, and the commit record,
// which goes first so a crash mid-prune leaves the generation visibly
// uncommitted rather than silently partial. A generation referenced by
// a retained delta chain is pinned: every link a kept committed
// generation's record lists survives, however old, so a delta is never
// pruned out from under its children. Files already gone are tolerated (a
// crashed or concurrent prune can simply be re-run). retain <= 0 keeps
// everything. It returns the removed bases in sorted (oldest-first) order.
//
// Prune lists prefix once and knows no chain links: it reads them from
// each kept generation's record. A commit prunes from the listing it
// already took, with the records it wrote (Pending).
func Prune(fsys rt.FS, prefix string, retain int) ([]string, error) {
	if retain <= 0 {
		return nil, nil
	}
	names, err := fsys.List(prefix)
	if err != nil {
		return nil, err
	}
	return prune(fsys, names, retain, make(map[string]*Manifest), nil)
}

// prune is Prune over names, a listing of the generations' prefix: the
// generations, the pins and the removals all come from it, and only names
// it holds are removed. known holds committed generations' records by
// base. The pins read the record of a kept generation known does not hold
// — counting it on read — and remember it; on return known holds only
// generations that survived, so it never outgrows the retained and pinned
// ones. A record the caller committed is trusted over the disk, which can
// only over-pin; a kept record that no longer loads pins nothing, since its
// chain is already unrestorable.
func prune(fsys rt.FS, names []string, retain int, known map[string]*Manifest, read *metrics.Counter) ([]string, error) {
	gens, files := generations(names)
	defer func() {
		for base := range known {
			if _, ok := files[base]; !ok {
				delete(known, base)
			}
		}
	}()
	if len(gens) <= retain {
		return nil, nil
	}
	pinned := make(map[string]bool)
	for _, g := range gens[:retain] {
		if !g.Committed {
			continue
		}
		m := known[g.Base]
		if m == nil {
			read.Inc()
			var err error
			if m, err = Load(fsys, g.Base); err != nil {
				continue
			}
			known[g.Base] = m
		}
		for _, l := range m.Links {
			pinned[l.Base] = true
		}
	}
	var removed []string
	for _, g := range gens[retain:] {
		if pinned[g.Base] {
			continue
		}
		// The record goes first, then the rest.
		own := files[g.Base]
		sort.SliceStable(own, func(i, j int) bool { return own[i] == g.Base+Suffix && own[j] != g.Base+Suffix })
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

func sorted(names []string) []string {
	sort.Strings(names)
	return names
}
