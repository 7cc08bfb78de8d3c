package catalog

import (
	"bytes"
	"strings"
	"testing"

	"genxio/internal/hdf"
)

// TestReportWireRoundTrip: reports survive their wire form, records decoded
// by alias, and damage is an error.
func TestReportWireRoundTrip(t *testing.T) {
	in := []Report{
		{Name: "a_s000.rhdf", Size: 100, Count: 1, DirLen: 60, DirCRC: 0xdeadbeef, Index: []byte{1, 2, 3}},
		{Name: "a_s001r1.rhdf", Size: 1 << 33, Count: 7, DirLen: 1 << 20, DirCRC: 7, Index: nil},
	}
	enc := AppendReports([]byte{9}, in)[1:]
	out, err := DecodeReports(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Name != in[0].Name || out[0].DirCRC != in[0].DirCRC || out[0].DirLen != 60 ||
		out[1].Size != in[1].Size || out[1].Count != 7 || out[1].DirLen != 1<<20 ||
		!bytes.Equal(out[0].Index, in[0].Index) || len(out[1].Index) != 0 {
		t.Fatalf("round trip gave %+v", out)
	}
	at := 4 + minReportBytes + len(in[0].Name)
	if cap(out[0].Index) != len(out[0].Index) || &out[0].Index[0] != &enc[at] {
		t.Fatal("a decoded record is not a capacity-capped alias of the message")
	}
	for _, bad := range [][]byte{enc[:len(enc)-1], append(enc[:len(enc):len(enc)], 0), {0xff, 0xff, 0xff, 0xff}} {
		if _, err := DecodeReports(bad); err == nil {
			t.Errorf("DecodeReports accepted %x", bad)
		}
	}
}

// TestAddRefusesDamagedRecord: a report whose pane index record does not
// parse whole, or whose directory length no file table can hold, adds
// nothing to the splice, and the error names the file.
func TestAddRefusesDamagedRecord(t *testing.T) {
	img := rhdfImage(t, map[string][]int64{"/fluid/pane000003/p": {2}, "/fluid/pane000009/p": {2}})
	dir, count, _ := dirOf(img)
	good, err := Record(hdf.RawDir{Name: "g.rhdf", Size: int64(len(img)), Count: int(count), Bytes: dir})
	if err != nil {
		t.Fatal(err)
	}
	var s Splice
	if err := s.Add(good); err != nil {
		t.Fatal(err)
	}
	want := s.Blob()
	for name, index := range map[string][]byte{
		"truncated":  good.Index[:len(good.Index)-1],
		"trailing":   append(append([]byte(nil), good.Index...), 0),
		"descending": {1, 5, 0, 'f', 'l', 'u', 'i', 'd', 2, 6, 0},
	} {
		bad := good
		bad.Name, bad.Index = "bad.rhdf", index
		if err := s.Add(bad); err == nil || !strings.Contains(err.Error(), "bad.rhdf") {
			t.Errorf("%s record: Add = %v", name, err)
		}
	}
	huge := good
	huge.DirLen = 1 << 32
	if err := s.Add(huge); err == nil {
		t.Error("Add took a directory length the file table cannot hold")
	}
	if got := s.Blob(); !bytes.Equal(got, want) {
		t.Fatal("a refused report changed the blob")
	}
}
