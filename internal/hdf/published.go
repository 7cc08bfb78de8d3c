package hdf

import (
	"encoding/binary"
	"fmt"
)

// Published is what one Writer put on disk when it closed: the file's
// committed name, its size, its dataset count and its directory bytes
// exactly as written — everything a commit would otherwise read back off the
// file (ReadRawDir) to index it, which is why a writer reports it upward. Dir
// is the writer's own directory buffer, the entries CreateDataset appended
// behind the count Publish patched, capacity-capped; once decoded, it
// aliases the message that carried it.
type Published struct {
	Name  string
	Size  int64
	Count int // the header's dataset count
	Dir   []byte
}

// Raw is the report as the directory it carries, for Walk.
func (p Published) Raw() RawDir {
	return RawDir{Name: p.Name, Size: p.Size, Count: p.Count, Bytes: p.Dir}
}

// minPublishedBytes is the wire size of a report with an empty name and
// directory.
const minPublishedBytes = 2 + 8 + 4 + 4

// PublishedSegments is the wire form of reports, as segments for a
// gathering Send:
//
//	u32 n | n × { str name | u64 size | u32 count | u32 dir length | dir }
//
// The header bytes are allocated once and each directory is its own
// segment, aliased, so a report costs no copy before Send's gather.
func PublishedSegments(ps []Published) [][]byte {
	n := 4
	for _, p := range ps {
		n += minPublishedBytes + len(p.Name)
	}
	hdr := make([]byte, 0, n) // sized once: the segments below alias it
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(ps)))
	segs := make([][]byte, 0, 2*len(ps)+1)
	from := 0
	for _, p := range ps {
		hdr = AppendStr(hdr, p.Name)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(p.Size))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(p.Count))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(p.Dir)))
		segs = append(segs, hdr[from:len(hdr):len(hdr)], p.Dir)
		from = len(hdr)
	}
	if len(ps) == 0 {
		segs = append(segs, hdr) // the count alone
	}
	return segs
}

// DecodePublished parses PublishedSegments' form and nothing else: the count
// is bounded by the bytes left, trailing bytes are an error, and each Dir is
// a capacity-capped alias of b (Cursor.Bytes), which the caller owns.
func DecodePublished(b []byte) ([]Published, error) {
	c := NewCursor(b)
	ps := make([]Published, c.Fits(int(c.U32()), minPublishedBytes))
	for i := range ps {
		ps[i].Name = c.Str()
		ps[i].Size = int64(c.U64())
		ps[i].Count = int(c.U32())
		ps[i].Dir = c.Bytes(int(c.U32()))
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("hdf: corrupt publication report: %w", err)
	}
	return ps, nil
}
