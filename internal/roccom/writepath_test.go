package roccom

import (
	"math"
	"strings"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/rt"
)

// gather is what Send does with segments: one message, their concatenation.
func gather(msg []byte, segs [][]byte) []byte {
	msg = msg[:0]
	for _, s := range segs {
		msg = append(msg, s...)
	}
	return msg
}

// TestWritePathAllocations pins the write path's allocations per block, not
// per dataset: packing a pane costs the same whatever its window declares
// and whatever its mesh, decoding a block a fixed handful however many sets
// it carries, and creating a dataset in an RHDF file next to nothing.
func TestWritePathAllocations(t *testing.T) {
	rc := New()
	fluid := fluidWindow(t, rc, testBlocks(t, 3))
	solid, err := rc.NewWindow("solid")
	if err != nil {
		t.Fatal(err)
	}
	if err := solid.NewAttribute(AttrSpec{Name: "stress", Loc: ElemLoc, Type: hdf.F64, NComp: 6}); err != nil {
		t.Fatal(err)
	}
	tet, err := mesh.Tetrahedralize(testBlocks(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solid.RegisterPane(tet.ID, tet); err != nil {
		t.Fatal(err)
	}
	pack := func(w *Window, id int, attr string) float64 {
		p, _ := w.Pane(id)
		return testing.AllocsPerRun(20, func() {
			if _, err := PaneIOSets(w, p, attr); err != nil {
				t.Fatal(err)
			}
		})
	}
	// One count for the mesh and every attribute, whatever the window and
	// mesh; one attribute alone skips the mesh's metadata.
	all4, all1, alone := pack(fluid, 1, "all"), pack(solid, tet.ID, "all"), pack(fluid, 2, "pressure")
	if all4 != all1 || alone > all4 || all4 > 5 {
		t.Errorf("packing a pane allocates %.0f times with four attributes, %.0f with one on an unstructured mesh, %.0f for one attribute alone; want the first two equal, at most 5",
			all4, all1, alone)
	}

	var sets []IOSet
	for _, id := range fluid.PaneIDs() {
		p, _ := fluid.Pane(id)
		s, err := PaneIOSets(fluid, p, "all")
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s...)
	}
	msg := EncodeIOSets(sets)
	if n := testing.AllocsPerRun(20, func() {
		if dec, err := DecodeIOSets(msg); err != nil || len(dec) != len(sets) {
			t.Fatalf("decoded %d of %d sets: %v", len(dec), len(sets), err)
		}
	}); n > 5 {
		t.Errorf("decoding a %d-set block allocates %.0f times, want at most 5", len(sets), n)
	}

	const datasets = 4800
	names := make([]string, datasets)
	for i := range names {
		names[i] = PanePrefix("fluid", i/len(sets)) + sets[i%len(sets)].Name
	}
	fsys, clock := rt.NewMemFS(), rt.NewWallClock()
	n := testing.AllocsPerRun(1, func() {
		w, err := hdf.Create(fsys, "w.rhdf", clock, hdf.NullProfile())
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			s := &sets[i%len(sets)]
			if err := w.CreateDataset(name, s.Type, s.Dims, s.Attrs, s.Data); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if n/datasets >= 0.2 {
		t.Errorf("writing %d datasets allocates %.0f times, %.2f per dataset; want under 0.2", datasets, n, n/datasets)
	}
}

// TestPaneIOSetsRefusesLongNames: a dataset name the wire form and the RHDF
// directory cannot count (over 65 535 bytes) is refused when the pane is
// packed, not truncated on the wire; a name at the limit round-trips.
func TestPaneIOSetsRefusesLongNames(t *testing.T) {
	block := testBlocks(t, 1)[0]
	prefix := len(PanePrefix("", block.ID))
	for _, c := range []struct {
		attrLen int
		ok      bool
	}{{math.MaxUint16 - prefix, true}, {math.MaxUint16 - prefix + 1, false}} {
		w, err := New().NewWindow("w")
		if err != nil {
			t.Fatal(err)
		}
		attr := strings.Repeat("a", c.attrLen-len("w"))
		if err := w.NewAttribute(AttrSpec{Name: attr, Loc: PaneLoc, Type: hdf.I32, NComp: 1}); err != nil {
			t.Fatal(err)
		}
		p, err := w.RegisterPane(block.ID, block)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := PaneIOSets(w, p, attr)
		if (err == nil) != c.ok {
			t.Fatalf("a %d-byte dataset name: %v, want accepted %v", prefix+c.attrLen, err, c.ok)
		}
		if c.ok {
			dec, err := DecodeIOSets(EncodeIOSets(sets))
			if err != nil || len(dec) != 1 || dec[0].Name != sets[0].Name {
				t.Fatalf("a name at the limit does not round-trip: %v", err)
			}
		}
	}
}

// BenchmarkWriteBlock is one small pane down the write path: pack, the
// wire's segments gathered into a message, decode, and one CreateDataset
// per set, with a file per 64 blocks.
func BenchmarkWriteBlock(b *testing.B) {
	w := fluidWindow(b, New(), testBlocks(b, 64))
	ids := w.PaneIDs()
	fsys, clock := rt.NewMemFS(), rt.NewWallClock()
	var (
		wr   *hdf.Writer
		msg  []byte
		i    int
		size int64
	)
	p, _ := w.Pane(ids[0])
	sets, _ := PaneIOSets(w, p, "all")
	for _, s := range sets {
		size += int64(len(s.Data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if i%len(ids) == 0 {
			if wr != nil {
				if err := wr.Close(); err != nil {
					b.Fatal(err)
				}
			}
			var err error
			if wr, err = hdf.Create(fsys, "b.rhdf", clock, hdf.NullProfile()); err != nil {
				b.Fatal(err)
			}
		}
		p, _ := w.Pane(ids[i%len(ids)])
		sets, err := PaneIOSets(w, p, "all")
		if err != nil {
			b.Fatal(err)
		}
		msg = gather(msg, IOSetSegments(sets))
		dec, err := DecodeIOSets(msg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range dec {
			if err := wr.CreateDataset(s.Name, s.Type, s.Dims, s.Attrs, s.Data); err != nil {
				b.Fatal(err)
			}
		}
		i++
	}
	if err := wr.Close(); err != nil {
		b.Fatal(err)
	}
}
