package rocpanda

import (
	"bytes"
	"runtime"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/roccom"
)

// FuzzWireDecoders feeds arbitrary bytes to the decoders of what arrives
// from the wire — the write header, the read request and the block payload
// a server reads, and the sync or shutdown ack, with its report of what the
// server published, a client reads. Each must never panic, never allocate more than a
// small multiple of what the input could encode (a damaged count must not
// size an allocation), and accept only its encoder's own output: whatever
// decodes re-encodes to exactly the bytes that came in.
func FuzzWireDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(encodeWriteHdr(writeHdr{File: "run/snap000010", Window: "fluid", Attr: "all", Time: 0.83, Step: 50, NBlocks: 7, Bytes: 1 << 30}))
	f.Add(encodeReadReq(readReq{File: "run/snap000010", Window: "fluid", Attr: "all", PaneIDs: []int32{1, 5, 9}, Alive: []int32{0, 2}}))
	f.Add(roccom.EncodeIOSets(nil))
	f.Add(roccom.EncodeIOSets([]roccom.IOSet{{
		Name: "/fluid/pane000001/pressure", Type: hdf.F64, Dims: []int64{2, 1},
		Attrs: []hdf.Attr{hdf.StrAttr("location", "node")}, Data: make([]byte, 16),
	}}))
	published := []catalog.Report{
		{Name: "run/snap000010_s000.rhdf", Size: 4096, Count: 3, DirLen: 300, DirCRC: 0xfeed, Index: []byte{1, 5, 0, 'f', 'l', 'u', 'i', 'd', 2, 2, 3}},
		{Name: "run/snap000010_s001r1.rhdf", Size: 1 << 20, Count: 1, DirLen: 40, DirCRC: 1, Index: []byte{0}},
	}
	f.Add(encodeAck(nil, published))
	f.Add(encodeAck(nil, published[1:]))
	f.Add(encodeAck(errDrainFailed, published))

	decoders := map[string]func([]byte) ([]byte, error){
		"decodeWriteHdr": func(b []byte) ([]byte, error) {
			h, err := decodeWriteHdr(b)
			return encodeWriteHdr(h), err
		},
		"decodeReadReq": func(b []byte) ([]byte, error) {
			r, err := decodeReadReq(b)
			return encodeReadReq(r), err
		},
		"DecodeIOSets": func(b []byte) ([]byte, error) {
			sets, err := roccom.DecodeIOSets(b)
			return roccom.EncodeIOSets(sets), err
		},
		"decodeAck": func(b []byte) ([]byte, error) {
			published, err := decodeAck(b)
			return encodeAck(nil, published), err
		},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for name, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			again, err := decode(in)
			runtime.ReadMemStats(&after)
			// Decoding aliases every payload, so what it allocates is the
			// structs, at most ~7× their wire form (a 7-byte minimal
			// attribute becomes a 48-byte hdf.Attr, a 14-byte minimal set a
			// 96-byte IOSet, a 26-byte minimal report a 72-byte
			// catalog.Report); the re-encode adds its header bytes, its
			// segment list (48 bytes a set) and one exact-size copy: at most
			// ~13×, hence 16× (64× while the decoder copied). The 16 KiB
			// floor is for an error message and, under -fuzz, the engine's
			// own goroutines. 1 MiB for 14 bytes is none of those.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(in)+16<<10); got > limit {
				t.Fatalf("%s allocated %d bytes on a %d-byte input (limit %d)", name, got, len(in), limit)
			}
			if err == nil && !bytes.Equal(again, in) {
				t.Fatalf("%s accepted %x, which re-encodes to %x", name, in, again)
			}
		}
	})
}
