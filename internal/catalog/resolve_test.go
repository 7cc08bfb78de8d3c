package catalog

import (
	"fmt"
	"testing"

	"genxio/internal/hdf"
)

// mkCat builds a catalog holding the given panes of "fluid" in one file.
func mkCat(panes ...int) *Catalog {
	var sets []*hdf.Dataset
	for _, p := range panes {
		sets = append(sets, &hdf.Dataset{Name: fmt.Sprintf("/fluid/pane%06d/p", p)})
	}
	c := &Catalog{}
	c.AddFile("f.rhdf", sets)
	return c
}

func TestResolvePanesNewestWins(t *testing.T) {
	// Chain order is newest first: head rewrote {1,3}, middle {2,3},
	// full base has everything.
	cats := []*Catalog{mkCat(1, 3), mkCat(2, 3), mkCat(1, 2, 3, 4)}
	wanted := map[int]bool{1: true, 2: true, 3: true, 4: true}
	assign := ResolvePanes(cats, "fluid", wanted)
	if len(assign) != 3 {
		t.Fatalf("got %d assignments for 3 catalogs", len(assign))
	}
	check := func(i int, want ...int) {
		t.Helper()
		if len(assign[i]) != len(want) {
			t.Fatalf("catalog %d assigned %v, want %v", i, assign[i], want)
		}
		for _, p := range want {
			if !assign[i][p] {
				t.Fatalf("catalog %d assigned %v, missing pane %d", i, assign[i], p)
			}
		}
	}
	check(0, 1, 3) // head wins for everything it holds
	check(1, 2)    // 3 already taken by the head
	check(2, 4)    // only the never-rewritten pane falls through to the base
}

func TestResolvePanesSkipsNilAndUnwanted(t *testing.T) {
	cats := []*Catalog{nil, mkCat(1, 2, 9)}
	assign := ResolvePanes(cats, "fluid", map[int]bool{1: true, 2: true, 5: true})
	if len(assign[0]) != 0 {
		t.Fatalf("nil catalog assigned %v", assign[0])
	}
	if !assign[1][1] || !assign[1][2] || len(assign[1]) != 2 {
		t.Fatalf("assignment %v, want panes 1 and 2 only", assign[1])
	}
	// Pane 5 exists nowhere: simply unassigned, the caller sees the gap.
	for _, a := range assign {
		if a[5] {
			t.Fatal("phantom pane 5 assigned")
		}
	}
	// Wrong window resolves nothing.
	assign = ResolvePanes(cats, "solid", map[int]bool{1: true})
	for _, a := range assign {
		if len(a) != 0 {
			t.Fatalf("wrong-window assignment %v", a)
		}
	}
}
