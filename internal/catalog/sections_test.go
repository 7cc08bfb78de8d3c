package catalog

import (
	"reflect"
	"slices"
	"testing"

	"genxio/internal/rt"
)

// section names the section of blob that holds byte i: -1 the header, 0
// the file table, 1 the pane index, 2+f file f's entry run.
func sectionOf(h *Header, i int) int {
	if i < h.Len() {
		return -1
	}
	for s := range h.secs {
		if off := int(h.secs[s].off); i >= off && i < off+h.secs[s].length {
			return s
		}
	}
	return len(h.secs)
}

// FuzzSectionsMatchWhole: a catalog opened from its header, file table and
// pane index (Open), with any subset of its entry runs loaded (LoadRun),
// resolves, chooses sources, lists panes and orders copies exactly as Decode
// of the whole blob, and plans exactly as it for the files whose runs it
// holds. A flipped byte fails only the reads of the section it lands in:
// in the header, opening; in the file table or pane index, Open; in a run,
// that run's LoadRun and Decode, while every other run still loads.
func FuzzSectionsMatchWhole(f *testing.F) {
	f.Add([]byte{2, 3, 0, 0, 5, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 4, 0, 1, 2, 0, 2}, byte(0x05), uint16(0), byte(0), byte(0x1f))
	f.Add([]byte{3, 1, 1, 1, 6, 1, 2, 0, 1, 0, 1, 0, 4, 2, 1, 3, 0, 3, 1, 1, 1, 0, 0, 2, 2, 1, 5, 0, 1}, byte(0x0e), uint16(90), byte(0x40), byte(0x3f))
	f.Add([]byte{1, 2, 0, 1, 6, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 1, 1, 1, 3, 0, 0, 0, 0, 4, 2, 2, 5, 0, 0}, byte(0xff), uint16(200), byte(1), byte(0x07))
	f.Fuzz(func(t *testing.T, spec []byte, loadMask byte, at uint16, flip, wantMask byte) {
		fsys := rt.NewMemFS()
		sp := specReader(spec)
		blob, _, _ := genLink(t, fsys, 0, &sp)
		whole, err := Decode(blob)
		if err != nil {
			t.Fatalf("Decode of a spliced blob: %v", err)
		}
		h, err := ReadHeader(blob[:HeaderSize(len(whole.Files))])
		if err != nil {
			t.Fatalf("ReadHeader of the header alone: %v", err)
		}
		off, n := h.IndexExtent()
		part, err := Open(h, blob[off:off+n])
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// keep takes names, and a spec may write one name twice: a name is
		// loaded when every file of that name is.
		loaded := func(name string) bool {
			for i, f := range part.Files {
				if f == name && !part.HasRun(i) {
					return false
				}
			}
			return true
		}
		for i := range part.Files {
			if loadMask>>i&1 == 1 {
				o, n := part.RunExtent(i)
				if err := part.LoadRun(i, blob[o:o+n]); err != nil {
					t.Fatalf("LoadRun(%d): %v", i, err)
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
				t.Fatalf("PlanFiles(%s) over the loaded runs = %v, whole %v", w, got, want)
			}
			for p := 0; p <= 6; p++ {
				files := part.PaneFiles(w, p)
				if want := whole.PaneFiles(w, p); !slices.Equal(files, want) {
					t.Fatalf("PaneFiles(%s, %d) = %v, whole %v", w, p, files, want)
				}
				for _, file := range files {
					if part.HasRun(file) {
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
		i := int(at) % len(blob)
		bad := slices.Clone(blob)
		bad[i] ^= flip
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted a flip at byte %d", i)
		}
		s := sectionOf(h, i)
		if s == -1 {
			if _, err := ReadHeader(bad[:h.Len()]); err == nil {
				t.Fatalf("ReadHeader accepted a flip at byte %d of the header", i)
			}
			return
		}
		opened, err := Open(h, bad[off:off+n])
		if (err != nil) != (s < secRuns) {
			t.Fatalf("flip at byte %d (section %d): Open says %v", i, s, err)
		}
		if err != nil {
			return
		}
		for file := range opened.Files {
			o, n := opened.RunExtent(file)
			if err := opened.LoadRun(file, bad[o:o+n]); (err != nil) != (secRuns+file == s) {
				t.Fatalf("flip at byte %d (section %d): LoadRun(%d) says %v", i, s, file, err)
			}
		}
	})
}
