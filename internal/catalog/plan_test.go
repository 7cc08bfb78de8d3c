package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"sort"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// refEntry is one dataset as the reference sees it: fully decoded.
type refEntry struct {
	file         int
	d            hdf.Dataset
	window, attr string
	pane         int
}

// refDecode is the reference catalog decoder, written from the layout
// alone: it checks the blob as Decode must — magic, version, the header
// CRC, each section's length and CRC, the file table's directory lengths,
// the pane index's order and count, trailing bytes — and returns the file
// table and, per file, the (window, pane)s the pane index lists.
func refDecode(blob []byte) (files []string, dirLens []int64, index []map[refPane]bool, err error) {
	if len(blob) < 36 || string(blob[:4]) != Magic || binary.LittleEndian.Uint32(blob[4:]) != Version ||
		binary.LittleEndian.Uint32(blob[8:]) != hdf.Checksum(blob[12:36]) {
		return nil, nil, nil, fmt.Errorf("bad header")
	}
	var secs [][]byte
	var counts []int
	at := 36
	for i := 0; i < 2; i++ {
		r := blob[12+12*i:]
		n := int(binary.LittleEndian.Uint32(r))
		if n > len(blob)-at || hdf.Checksum(blob[at:at+n]) != binary.LittleEndian.Uint32(r[8:]) {
			return nil, nil, nil, fmt.Errorf("bad section %d", i)
		}
		secs, counts = append(secs, blob[at:at+n]), append(counts, int(binary.LittleEndian.Uint32(r[4:])))
		at += n
	}
	if at != len(blob) {
		return nil, nil, nil, fmt.Errorf("bad layout")
	}
	nf := counts[0]
	p := hdf.NewCursor(secs[0])
	for len(files) < nf && p.Err() == nil {
		name, n := p.Str(), int64(p.U32())
		if p.Err() == nil && n < 4 {
			return nil, nil, nil, fmt.Errorf("bad directory length")
		}
		files, dirLens = append(files, name), append(dirLens, n)
	}
	if p.End() != nil {
		return nil, nil, nil, fmt.Errorf("bad file table")
	}
	// The pane index: per file, window → panes, in order.
	index, ids := make([]map[refPane]bool, nf), 0
	rest := secs[1]
	uv := func() uint64 {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			rest = nil
			return math.MaxUint64
		}
		rest = rest[n:]
		return v
	}
	for f := 0; f < nf; f++ {
		index[f] = map[refPane]bool{}
		nw := uv()
		prev := ""
		for w := uint64(0); w < nw; w++ {
			if len(rest) < 2 || len(rest) < 2+int(binary.LittleEndian.Uint16(rest)) {
				return nil, nil, nil, fmt.Errorf("bad pane index")
			}
			name := string(rest[2 : 2+binary.LittleEndian.Uint16(rest)])
			rest = rest[2+len(name):]
			if w > 0 && name <= prev {
				return nil, nil, nil, fmt.Errorf("windows out of order")
			}
			prev = name
			np := uv()
			if np == 0 || np > uint64(len(rest)) {
				return nil, nil, nil, fmt.Errorf("bad pane count")
			}
			id, n := binary.Varint(rest)
			if n <= 0 {
				return nil, nil, nil, fmt.Errorf("bad pane")
			}
			rest = rest[n:]
			index[f][refPane{name, int(id)}] = true
			for k := uint64(1); k < np; k++ {
				gap := uv()
				if gap == 0 || gap == math.MaxUint64 || new(big.Int).Add(big.NewInt(id), new(big.Int).SetUint64(gap)).Cmp(big.NewInt(math.MaxInt64)) > 0 {
					return nil, nil, nil, fmt.Errorf("bad gap")
				}
				id += int64(gap)
				index[f][refPane{name, int(id)}] = true
			}
			ids += int(np)
		}
		if nw == math.MaxUint64 || rest == nil {
			return nil, nil, nil, fmt.Errorf("bad pane index")
		}
	}
	if len(rest) != 0 || ids != counts[1] {
		return nil, nil, nil, fmt.Errorf("bad pane index")
	}
	return files, dirLens, index, nil
}

// refPane is one (window, pane) of a file, as the reference lists it.
type refPane struct {
	w string
	p int
}

// refPlan is a plan as the reference writes it: a file and the indices of
// its entries, in read order.
type refPlan struct {
	file string
	ents []int
}

// refRank is the reference source order: lower replica rank, then lower
// file index.
func refRank(files []string, a, b int) bool {
	if ra, rb := ReplicaRank(files[a]), ReplicaRank(files[b]); ra != rb {
		return ra < rb
	}
	return a < b
}

// refGroup groups entry indices by file, files ordered by before, each
// file's entries stably sorted by offset.
func refGroup(files []string, ents []refEntry, idx []int, before func(a, b int) bool) []refPlan {
	byFile := map[int][]int{}
	for _, i := range idx {
		byFile[ents[i].file] = append(byFile[ents[i].file], i)
	}
	var fs []int
	for f := range byFile {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(a, b int) bool { return before(fs[a], fs[b]) })
	var plans []refPlan
	for _, f := range fs {
		l := byFile[f]
		sort.SliceStable(l, func(a, b int) bool {
			oa, _ := ents[l[a]].d.Extent()
			ob, _ := ents[l[b]].d.Extent()
			return oa < ob
		})
		plans = append(plans, refPlan{files[f], l})
	}
	return plans
}

// refPlanReads is PlanFiles written naively.
func refPlanReads(files []string, ents []refEntry, window string, wanted map[int]bool, keep func(string) bool) []refPlan {
	best := map[int]int{}
	for _, e := range ents {
		if e.window != window || !wanted[e.pane] {
			continue
		}
		if cur, ok := best[e.pane]; !ok || refRank(files, e.file, cur) {
			best[e.pane] = e.file
		}
	}
	var idx []int
	for i, e := range ents {
		if e.window == window && wanted[e.pane] && best[e.pane] == e.file && (keep == nil || keep(files[e.file])) {
			idx = append(idx, i)
		}
	}
	return refGroup(files, ents, idx, func(a, b int) bool { return a < b })
}

// refPaneSources is PaneSources written naively.
func refPaneSources(files []string, ents []refEntry, window string, pane int) []refPlan {
	var idx []int
	for i, e := range ents {
		if e.window == window && e.pane == pane {
			idx = append(idx, i)
		}
	}
	return refGroup(files, ents, idx, func(a, b int) bool { return refRank(files, a, b) })
}

// refPanes is Panes written naively.
func refPanes(ents []refEntry, window string) []int {
	seen := map[int]bool{}
	for _, e := range ents {
		if e.window == window {
			seen[e.pane] = true
		}
	}
	var ids []int
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// refResolve is ResolvePanes written naively: each wanted pane to the
// newest link holding it.
func refResolve(links [][]refEntry, window string, wanted map[int]bool) []map[int]bool {
	assign := make([]map[int]bool, len(links))
	for i := range assign {
		assign[i] = map[int]bool{}
	}
	for pane := range wanted {
		for i, ents := range links {
			if slices.ContainsFunc(ents, func(e refEntry) bool { return e.window == window && e.pane == pane }) {
				assign[i][pane] = true
				break
			}
		}
	}
	return assign
}

// asRef turns the view's plans into reference form: each entry by its
// index in c.Entries.
func asRef(c *Catalog, plans []FilePlan) []refPlan {
	type place struct{ file, at int }
	index := make(map[place]int, len(c.Entries))
	for i := range c.Entries {
		index[place{c.Entries[i].File, c.Entries[i].at}] = i
	}
	var out []refPlan
	for _, p := range plans {
		rp := refPlan{file: p.File}
		for _, e := range p.Entries {
			rp.ents = append(rp.ents, index[place{e.File, e.at}])
		}
		out = append(out, rp)
	}
	return out
}

// specReader hands out a fuzz input's bytes, then zeros.
type specReader []byte

func (s *specReader) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// genLink writes one generation's files from the spec — a few server
// files, replicas among them, each holding datasets of two windows whose
// panes repeat across files, empty payloads and a named attribute among
// them — and returns its catalog blob (Splice), its files, per pane dataset
// the dataset hdf.RawDir.Datasets decodes, and each file's directory as
// spliced (a spec may write one name twice: the directory on disk is then
// the last one's).
func genLink(t *testing.T, fsys rt.FS, link int, spec *specReader) (blob []byte, files []string, ents []refEntry, dirs []hdf.RawDir) {
	t.Helper()
	var s Splice
	windows, attrs := []string{"fluid", "solid"}, []string{"pressure", "_coords", "vel"}
	for f, nf := 0, 1+spec.next(4); f < nf; f++ {
		name := ServerFile(fmt.Sprintf("g%d", link), spec.next(3), spec.next(3))
		w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		made := map[string]bool{}
		for d, nd := 0, spec.next(7); d < nd; d++ {
			ds := fmt.Sprintf("/%s/pane%06d/%s", windows[spec.next(2)], 1+spec.next(5), attrs[spec.next(3)])
			if spec.next(8) == 0 {
				ds = "_meta"
			}
			if made[ds] {
				continue
			}
			made[ds] = true
			var at []hdf.Attr
			if spec.next(2) == 0 {
				at = []hdf.Attr{hdf.StrAttr("location", "node"), hdf.I32Attr("extent", 1, 2)}
			}
			n := spec.next(4)
			if err := w.CreateDataset(ds, hdf.U8, []int64{int64(n)}, at, make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := hdf.ReadRawDir(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := raw.Datasets()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDir(raw); err != nil {
			t.Fatal(err)
		}
		for _, d := range sets {
			if window, pane, attr, ok := roccom.ParseDatasetName(d.Name); ok {
				ents = append(ents, refEntry{file: len(files), d: *d, window: window, pane: pane, attr: attr})
			}
		}
		files, dirs = append(files, name), append(dirs, raw)
	}
	return s.Blob(), files, ents, dirs
}

// FuzzPlanMatchesReference: over random chains of 1–3 catalogs, the
// indexed catalog plans exactly what a naive planner over fully decoded
// datasets plans — ResolvePanes, PlanReads, PlanFiles, PaneSources, Panes —
// and decodes each entry's dataset as the directory does. One byte of the
// head's blob may be flipped (its CRC fixed up): Decode must accept exactly
// the blobs the materializing reference decoder accepts, and plan them the
// same.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add([]byte{2, 3, 0, 0, 5, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 4, 0, 1, 2, 0, 2}, uint16(0), byte(0), byte(0x0f), byte(0x1f))
	f.Add([]byte{0, 1, 1, 1, 6, 1, 2, 0, 1, 0, 1, 0, 4, 2, 1, 3, 0, 3, 1, 1, 1, 0, 0}, uint16(90), byte(0x40), byte(0x05), byte(0x3f))
	f.Add([]byte{1, 2, 0, 1, 6, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 1, 1, 1, 3, 0, 0, 0, 0, 4, 2, 2, 5, 0, 0}, uint16(60), byte(1), byte(0xff), byte(0x07))
	f.Fuzz(func(t *testing.T, spec []byte, at uint16, flip, keepMask, wantMask byte) {
		fsys := rt.NewMemFS()
		sp := specReader(spec)
		nlinks := 1 + sp.next(3)
		var (
			cats  []*Catalog
			links [][]refEntry
			files [][]string
		)
		for l := 0; l < nlinks; l++ {
			blob, fs, ents, dirs := genLink(t, fsys, l, &sp)
			if l == 0 && flip != 0 && len(blob) > headerSize {
				blob[int(at)%len(blob)] ^= flip
				binary.LittleEndian.PutUint32(blob[8:], hdf.Checksum(blob[headerSize:min(len(blob), blobHeader)]))
			}
			c, err := Decode(blob)
			refFiles, refLens, refIndex, refErr := refDecode(blob)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("link %d: Decode says %v, the reference %v", l, err, refErr)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(c.Files, refFiles) {
				t.Fatalf("link %d: files %v, reference %v", l, c.Files, refFiles)
			}
			if l == 0 && flip != 0 {
				return // a flip both accept describes other directories
			}
			// Unflipped, the reference decoder reads back what the
			// directories held.
			if !reflect.DeepEqual(refFiles, fs) {
				t.Fatalf("link %d: reference decoded files %v, directories held %v", l, refFiles, fs)
			}
			for f, d := range dirs {
				held := map[refPane]bool{}
				for _, e := range ents {
					if e.file == f {
						held[refPane{e.window, e.pane}] = true
					}
				}
				if refLens[f] != int64(len(d.Bytes)) || !reflect.DeepEqual(held, refIndex[f]) {
					t.Fatalf("link %d file %d: reference decoded a %d-byte directory of panes %v, the directory is %d bytes of %v",
						l, f, refLens[f], refIndex[f], len(d.Bytes), held)
				}
				if err := c.LoadDir(f, d); err != nil {
					t.Fatalf("link %d: LoadDir(%d): %v", l, f, err)
				}
			}
			refEnts := ents
			if len(c.Entries) != len(refEnts) {
				t.Fatalf("link %d: %d entries, reference %d", l, len(c.Entries), len(refEnts))
			}
			for i := range c.Entries {
				e, r := &c.Entries[i], &refEnts[i]
				off, length := e.Extent()
				rOff, rLength := r.d.Extent()
				if e.File != r.file || e.Window != r.window || e.Pane != r.pane || e.Attr != r.attr || off != rOff || length != rLength {
					t.Fatalf("link %d entry %d: %+v, reference %+v", l, i, *e, *r)
				}
				if d := c.Dataset(e); !reflect.DeepEqual(d, r.d) {
					t.Fatalf("link %d entry %d decodes to %+v, reference %+v", l, i, d, r.d)
				}
			}
			cats, links, files = append(cats, c), append(links, refEnts), append(files, refFiles)
		}
		wanted := map[int]bool{}
		for p := 1; p <= 6; p++ {
			if wantMask>>(p-1)&1 == 1 {
				wanted[p] = true
			}
		}
		keep := func(name string) bool { _, home, _ := ParseDataFile(name); return keepMask>>home&1 == 1 }
		for _, w := range []string{"fluid", "solid", "none"} {
			assign := ResolvePanes(cats, w, wanted)
			if want := refResolve(links, w, wanted); !reflect.DeepEqual(assign, want) {
				t.Fatalf("ResolvePanes(%s, %v) = %v, reference %v", w, wanted, assign, want)
			}
			for l, c := range cats {
				fs, ents := files[l], links[l]
				if got, want := c.Panes(w), refPanes(ents, w); !slices.Equal(got, want) {
					t.Fatalf("link %d: Panes(%s) = %v, reference %v", l, w, got, want)
				}
				for _, set := range []map[int]bool{wanted, assign[l]} {
					if got, want := asRef(c, c.PlanReads(w, set)), refPlanReads(fs, ents, w, set, nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("link %d: PlanReads(%s, %v) = %v, reference %v", l, w, set, got, want)
					}
					if got, want := asRef(c, c.PlanFiles(w, set, keep)), refPlanReads(fs, ents, w, set, keep); !reflect.DeepEqual(got, want) {
						t.Fatalf("link %d: PlanFiles(%s, %v, keep %02x) = %v, reference %v", l, w, set, keepMask, got, want)
					}
				}
				for p := 0; p <= 6; p++ {
					if got, want := asRef(c, c.PaneSources(w, p)), refPaneSources(fs, ents, w, p); !reflect.DeepEqual(got, want) {
						t.Fatalf("link %d: PaneSources(%s, %d) = %v, reference %v", l, w, p, got, want)
					}
				}
			}
		}
	})
}

// twoFileBlob is a catalog in panda-smallblocks' shape: panes panes of
// attrs datasets each, dealt between two server files, each pane's
// datasets together as a writer puts them; and the files' directories.
func twoFileBlob(t testing.TB, panes, attrs int) ([]byte, []hdf.RawDir) {
	t.Helper()
	fsys := rt.NewMemFS()
	var s Splice
	var dirs []hdf.RawDir
	for f := 0; f < 2; f++ {
		name := ServerFile("snap", f, 0)
		w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		for p := f; p < panes; p += 2 {
			for a := 0; a < attrs; a++ {
				ds := fmt.Sprintf("/fluid/pane%06d/a%02d", p+1, a)
				if err := w.CreateDataset(ds, hdf.U8, []int64{2}, []hdf.Attr{hdf.StrAttr("location", "node")}, make([]byte, 2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := hdf.ReadRawDir(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDir(raw); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, raw)
	}
	return s.Blob(), dirs
}

// decodePlan is a restart round's catalog work: decode the blob, load the
// files' directories, plan every pane of the window and coalesce each
// file's plan.
func decodePlan(blob []byte, dirs []hdf.RawDir, wanted map[int]bool) (entries int, err error) {
	c, err := Decode(blob)
	if err != nil {
		return 0, err
	}
	for f, d := range dirs {
		if err := c.LoadDir(f, d); err != nil {
			return 0, err
		}
	}
	for _, plan := range c.PlanReads("fluid", wanted) {
		Coalesce(plan.Entries, 0)
		entries += len(plan.Entries)
	}
	return entries, nil
}

// everyPane wants panes 1..n.
func everyPane(n int) map[int]bool {
	wanted := make(map[int]bool, n)
	for p := 1; p <= n; p++ {
		wanted[p] = true
	}
	return wanted
}

// TestDecodePlanAllocations: decoding a catalog, loading its directories
// and planning and coalescing its reads costs a fixed number of allocations however many entries it
// holds — none per entry or per pane.
func TestDecodePlanAllocations(t *testing.T) {
	allocs := func(panes int) float64 {
		blob, dirs := twoFileBlob(t, panes, 24)
		wanted := everyPane(panes)
		return testing.AllocsPerRun(5, func() {
			if n, err := decodePlan(blob, dirs, wanted); err != nil || n != 24*panes {
				t.Fatalf("planned %d of %d entries: %v", n, 24*panes, err)
			}
		})
	}
	if few, many := allocs(40), allocs(400); many != few || many > 64 {
		t.Fatalf("decoding and planning 960 entries allocates %.0f times, 9600 entries %.0f", few, many)
	}
}

// BenchmarkDecodePlan is one restart round's catalog work on a 9 600-entry,
// two-file catalog: decode, load both directories, plan every pane,
// coalesce.
func BenchmarkDecodePlan(b *testing.B) {
	blob, dirs := twoFileBlob(b, 400, 24)
	wanted := everyPane(400)
	b.SetBytes(int64(len(blob) + len(dirs[0].Bytes) + len(dirs[1].Bytes)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodePlan(blob, dirs, wanted); err != nil {
			b.Fatal(err)
		}
	}
}
