package snapshot

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestDecodeManifestRequiresCatalog: every commit pins its catalog, so a
// manifest without the reference is not one.
func TestDecodeManifestRequiresCatalog(t *testing.T) {
	m := &Manifest{Schema: ManifestSchema, Base: "out/snap000100",
		Files:   []FileEntry{{Name: "out/snap000100_s000.rhdf", Size: 4096, DirCRC: 0xdeadbeef, Datasets: 3}},
		Catalog: &CatalogRef{Name: "out/snap000100.catalog", Size: 128, CRC: 1}}
	for _, pinned := range []bool{true, false} {
		if !pinned {
			m.Catalog = nil
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(blob); (err == nil) != pinned {
			t.Errorf("catalog pinned %v: DecodeManifest error %v", pinned, err)
		}
	}
}

// FuzzManifestDecode hammers the manifest decoder with hostile JSON: the
// decoder must reject or accept, never panic, and anything it accepts
// must survive a re-encode/decode round trip (DecodeManifest's invariants
// are stable under json.Marshal).
func FuzzManifestDecode(f *testing.F) {
	full := &Manifest{
		Schema: ManifestSchema,
		Base:   "out/snap000100",
		Epoch:  100,
		Time:   1.5,
		Files: []FileEntry{
			{Name: "out/snap000100_s000.rhdf", Size: 4096, DirCRC: 0xdeadbeef},
		},
		Catalog: &CatalogRef{Name: "out/snap000100.catalog", Size: 128, CRC: 1},
	}
	delta := &Manifest{
		Schema:         ManifestSchema,
		Base:           "out/snap000110",
		Epoch:          110,
		Time:           2.5,
		BaseGeneration: "out/snap000100",
		ChainDepth:     3,
		Panes:          map[string][]int{"fluid": {1, 2, 3}, "solid": {7}},
		Catalog:        &CatalogRef{Name: "out/snap000110.catalog", Size: 64, CRC: 2},
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":"genxio-manifest/v1"}`))
	for _, m := range []*Manifest{full, delta} {
		blob, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// Near-valid mutants: flip one byte at a few structural offsets.
		for _, i := range []int{0, 5, len(blob) / 2, len(blob) - 2} {
			mut := bytes.Clone(blob)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := DecodeManifest(blob)
		if err != nil {
			return
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if _, err := DecodeManifest(again); err != nil {
			t.Fatalf("round trip rejected: %v\noriginal: %s\nreencoded: %s", err, blob, again)
		}
	})
}
