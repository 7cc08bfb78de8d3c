package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"genxio/internal/catalog"
)

// testRecords returns a full generation's commit record and a delta's, built
// by the one encoder.
func testRecords(t testing.TB) (full, delta []byte) {
	t.Helper()
	sections := func(files map[string][]int) []byte {
		var s catalog.Splice
		for _, name := range []string{"out/snap000100_s000.rhdf", "out/snap000100_s001.rhdf"} {
			if ids, ok := files[name]; ok {
				r := catalog.Report{Name: name, Size: 4096, Count: 3, DirLen: 256, DirCRC: 0xdeadbeef,
					Index: catalog.AppendPanes(nil, map[string][]int{"fluid": ids})}
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s.Blob()
	}
	m := &Manifest{Base: "out/snap000100", Epoch: 100, Time: 1.5, Files: []FileEntry{
		{Name: "out/snap000100_s000.rhdf", Size: 4096, DirCRC: 0xdeadbeef, Datasets: 3},
		{Name: "out/snap000100_s001.rhdf", Size: 4096, DirCRC: 0xdeadbeef, Datasets: 3}}}
	full = encodeRecord(m, sections(map[string][]int{"out/snap000100_s000.rhdf": {1, 3}, "out/snap000100_s001.rhdf": {2, 4}}))
	d := &Manifest{Base: "out/snap000110", Epoch: 110, Time: 2.5,
		Links: []Link{{Base: "out/snap000100", Size: 4096, CRC: 7}, {Base: "out/snap000090", Size: 300, CRC: 8}},
		Panes: map[string][]int{"fluid": {1, 2, 3, 4}, "solid": {7}},
		Files: m.Files[:1]}
	delta = encodeRecord(d, sections(map[string][]int{"out/snap000100_s000.rhdf": {3}}))
	return full, delta
}

// TestDecodeManifestRequiresCatalog: a commit record carries its catalog's
// sections to its end, so one cut short of them — sealed again, its CRC32C
// holding — is not a record.
func TestDecodeManifestRequiresCatalog(t *testing.T) {
	full, delta := testRecords(t)
	for _, rec := range [][]byte{full, delta} {
		m, cat, err := DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		cut := bytes.Clone(rec[:len(rec)-len(cat.Encode())])
		reseal(cut)
		if _, _, err := DecodeRecord(cut); err == nil {
			t.Errorf("%s: a record without its catalog decoded", m.Base)
		}
	}
}

// TestRecordRefusesOlderFormats: a JSON manifest and a catalog blob, the
// format before commit records, are refused with an error that names the
// format and its version.
func TestRecordRefusesOlderFormats(t *testing.T) {
	for _, tc := range []struct {
		buf  []byte
		want string
	}{
		{[]byte(`{"schema": "genxio-manifest/v1", "base": "out/snap000100"}`), "JSON manifest genxio-manifest/v1"},
		{[]byte("RCAT\x03\x00\x00\x00\x01\x02\x03\x04"), ".catalog catalog blob (version 3)"},
		{[]byte("RCAT\x02\x00\x00\x00"), "(version 2)"},
	} {
		if _, _, err := DecodeRecord(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), "older format") {
			t.Errorf("DecodeRecord(%q) = %v, want it refused as %q", tc.buf, err, tc.want)
		}
	}
}

// FuzzManifestDecode hammers the commit record decoder with hostile bytes:
// it must reject or accept, never panic, and anything it accepts must
// re-encode to itself through the one encoder (encodeRecord over the
// catalog's Encode). The seeds hold the older formats, which must be
// refused by name, and truncated, bit-flipped and resealed records.
func FuzzManifestDecode(f *testing.F) {
	full, delta := testRecords(f)
	f.Add([]byte{})
	f.Add([]byte(`{"schema":"genxio-manifest/v1","base":"out/snap000100","files":[],"catalog":{"name":"out/snap000100.catalog","size":121,"crc32c":1}}`))
	f.Add([]byte("RCAT\x03\x00\x00\x00\x00\x00\x00\x00\x14\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"))
	for _, rec := range [][]byte{full, delta} {
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
		for _, i := range []int{5, 9, recordHeader + 3, len(rec) - 2} {
			mut := bytes.Clone(rec)
			mut[i] ^= 0x40
			f.Add(mut)
			if i > recordHeader {
				mut = bytes.Clone(mut)
				reseal(mut)
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, cat, err := DecodeRecord(buf)
		if err != nil {
			if legacyFormat(buf) != "" && !strings.Contains(err.Error(), "older format") {
				t.Fatalf("an older format refused without its name: %v", err)
			}
			return
		}
		if again := encodeRecord(m, cat.Encode()); !bytes.Equal(again, buf) {
			t.Fatalf("decoded record re-encodes to other bytes:\n got %x\nwant %x", again, buf)
		}
	})
}
