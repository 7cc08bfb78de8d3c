package catalog

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/rt"
)

// sectionOf names the part of blob that holds byte i: the header, the
// file table or the pane index, as Decode's errors name them.
func sectionOf(h *Header, i int) string {
	switch {
	case i < blobHeader:
		return "header"
	case int64(i) < h.secs[secPanes].off:
		return "file table"
	}
	return "pane index"
}

// loadAll decodes blob and loads every directory of dirs into it.
func loadAll(t *testing.T, blob []byte, dirs []hdf.RawDir) *Catalog {
	t.Helper()
	c, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode of a spliced blob: %v", err)
	}
	for f, d := range dirs {
		if err := c.LoadDir(f, d); err != nil {
			t.Fatalf("LoadDir(%d): %v", f, err)
		}
	}
	return c
}

// FuzzSectionsMatchWhole: a catalog decoded from its blob — the file table
// and pane index — with any subset of its files' directories loaded
// (LoadDir), resolves, chooses sources, lists panes and orders copies
// exactly as one with every directory loaded, and plans exactly as it for
// the files whose directories it holds. A directory loads only into its
// own file: under another file's index its length or panes differ, or it
// is the same directory. A flipped byte anywhere in the blob fails Decode,
// and the error names the part it lands in: the header, the file table or
// the pane index.
func FuzzSectionsMatchWhole(f *testing.F) {
	f.Add([]byte{2, 3, 0, 0, 5, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 4, 0, 1, 2, 0, 2}, byte(0x05), uint16(0), byte(0), byte(0x1f))
	f.Add([]byte{3, 1, 1, 1, 6, 1, 2, 0, 1, 0, 1, 0, 4, 2, 1, 3, 0, 3, 1, 1, 1, 0, 0, 2, 2, 1, 5, 0, 1}, byte(0x0e), uint16(90), byte(0x40), byte(0x3f))
	f.Add([]byte{1, 2, 0, 1, 6, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 1, 1, 1, 3, 0, 0, 0, 0, 4, 2, 2, 5, 0, 0}, byte(0xff), uint16(200), byte(1), byte(0x07))
	f.Add([]byte{3, 0, 0, 4, 1, 2, 3, 0, 0, 1, 1, 1, 2, 0, 2, 0, 5, 1, 0, 1, 0, 2, 2, 1, 4, 0, 0}, byte(0x03), uint16(40), byte(0x80), byte(0x2a))
	f.Fuzz(func(t *testing.T, spec []byte, loadMask byte, at uint16, flip, wantMask byte) {
		fsys := rt.NewMemFS()
		sp := specReader(spec)
		blob, _, _, dirs := genLink(t, fsys, 0, &sp)
		whole := loadAll(t, blob, dirs)
		part, err := Decode(blob)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		// keep takes names, and a spec may write one name twice: a name is
		// loaded when every file of that name is.
		loaded := func(name string) bool {
			for i, f := range part.Files {
				if f == name && !part.HasDir(i) {
					return false
				}
			}
			return true
		}
		for i := range part.Files {
			if part.DirLen(i) != int64(len(dirs[i].Bytes)) {
				t.Fatalf("DirLen(%d) = %d, the directory is %d bytes", i, part.DirLen(i), len(dirs[i].Bytes))
			}
			for j := range dirs {
				// Another file's directory loads only if it is this one's.
				same := len(dirs[j].Bytes) == len(dirs[i].Bytes) && reflect.DeepEqual(paneRecord(whole, i), paneRecord(whole, j))
				probe, _ := Decode(blob)
				if err := probe.LoadDir(i, dirs[j]); (err == nil) != same {
					t.Fatalf("directory %d under file %d: LoadDir says %v, same shape %v", j, i, err, same)
				}
			}
			if loadMask>>i&1 == 1 {
				if err := part.LoadDir(i, dirs[i]); err != nil {
					t.Fatalf("LoadDir(%d): %v", i, err)
				}
			}
		}
		if !reflect.DeepEqual(part.Files, whole.Files) {
			t.Fatalf("files %v, whole %v", part.Files, whole.Files)
		}
		if got, want := part.Windows(), whole.Windows(); !slices.Equal(got, want) {
			t.Fatalf("Windows %v, whole %v", got, want)
		}
		wanted := map[int]bool{}
		for p := 1; p <= 6; p++ {
			if wantMask>>(p-1)&1 == 1 {
				wanted[p] = true
			}
		}
		for _, w := range []string{"fluid", "solid", "none"} {
			if got, want := part.Panes(w), whole.Panes(w); !slices.Equal(got, want) {
				t.Fatalf("Panes(%s) = %v, whole %v", w, got, want)
			}
			if got, want := ResolvePanes([]*Catalog{part, nil}, w, wanted), ResolvePanes([]*Catalog{whole, nil}, w, wanted); !reflect.DeepEqual(got, want) {
				t.Fatalf("ResolvePanes(%s) = %v, whole %v", w, got, want)
			}
			gotFiles, gotPanes := part.Sources(w, wanted, nil)
			wantFiles, wantPanes := whole.Sources(w, wanted, nil)
			if !reflect.DeepEqual(gotFiles, wantFiles) || !reflect.DeepEqual(gotPanes, wantPanes) {
				t.Fatalf("Sources(%s) = %v %v, whole %v %v", w, gotFiles, gotPanes, wantFiles, wantPanes)
			}
			if got, want := part.PlanFiles(w, wanted, loaded), whole.PlanFiles(w, wanted, loaded); !reflect.DeepEqual(got, want) {
				t.Fatalf("PlanFiles(%s) over the loaded directories = %v, whole %v", w, got, want)
			}
			for p := 0; p <= 6; p++ {
				files := part.PaneFiles(w, p)
				if want := whole.PaneFiles(w, p); !slices.Equal(files, want) {
					t.Fatalf("PaneFiles(%s, %d) = %v, whole %v", w, p, files, want)
				}
				for _, file := range files {
					if part.HasDir(file) {
						if got, want := part.PaneCopy(w, p, file), whole.PaneCopy(w, p, file); !reflect.DeepEqual(got, want) {
							t.Fatalf("PaneCopy(%s, %d, %d) = %v, whole %v", w, p, file, got, want)
						}
					}
				}
			}
		}
		for _, fp := range part.PlanReads("fluid", wanted) {
			for i := range fp.Entries {
				if got, want := part.Dataset(&fp.Entries[i]), whole.Dataset(&fp.Entries[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("Dataset %+v, whole %+v", got, want)
				}
			}
		}

		if flip == 0 {
			return
		}
		h, err := ReadHeader(blob)
		if err != nil {
			t.Fatal(err)
		}
		i := int(at) % len(blob)
		bad := slices.Clone(blob)
		bad[i] ^= flip
		where := sectionOf(h, i)
		_, err = Decode(bad)
		if err == nil {
			t.Fatalf("Decode accepted a flip at byte %d (%s)", i, where)
		}
		if where != "header" && !strings.Contains(err.Error(), where) {
			t.Fatalf("a flip at byte %d of the %s: Decode says %v", i, where, err)
		}
	})
}

// paneRecord is file f's panes in every window c's pane index lists.
func paneRecord(c *Catalog, f int) map[string][]int {
	out := map[string][]int{}
	for _, w := range c.Windows() {
		if ids := c.list(f, w); ids != nil {
			out[w] = ids
		}
	}
	return out
}
