package catalog

import (
	"encoding/binary"
	"fmt"
	"math"

	"genxio/internal/hdf"
)

// Report is what a commit records of one published file, made where the
// file was published (Record) and sent to the committing rank in place of
// the file's directory: the commit record's pins of the file — its size,
// its header's dataset count and its directory's CRC32C — and the
// catalog's — the directory's length and the file's pane index record. A
// Splice takes a report (Add) as it takes the directory it was made from
// (AddDir), to the same sections.
type Report struct {
	Name   string
	Size   int64
	Count  int // the header's dataset count
	DirLen int64
	DirCRC uint32
	Index  []byte // the file's pane index record
}

// Record makes the report of d, a file's directory: d passes the gate
// (walkPanes) and its pane datasets make the record, as in AddDir.
func Record(d hdf.RawDir) (Report, error) {
	var s Splice
	index, err := s.appendIndex(nil, d)
	if err != nil {
		return Report{}, err
	}
	return Report{Name: d.Name, Size: d.Size, Count: d.Count, DirLen: int64(len(d.Bytes)),
		DirCRC: hdf.Checksum(d.Bytes), Index: index}, nil
}

// Add indexes r's file under the next file index, as AddDir indexes the
// directory r was made from. The record must parse whole under the pane
// index's rules and the directory length fit the file table; a report that
// fails either adds nothing, and its error says why.
func (s *Splice) Add(r Report) error {
	var c Catalog
	n, err := c.readRecord(r.Index)
	if err == nil && n != len(r.Index) {
		err = fmt.Errorf("%d bytes after it", len(r.Index)-n)
	}
	if err != nil {
		return fmt.Errorf("catalog: report of %s: pane index record: %w", r.Name, err)
	}
	if r.DirLen < 0 || r.DirLen > math.MaxUint32 {
		return fmt.Errorf("catalog: report of %s: a %d-byte directory", r.Name, r.DirLen)
	}
	s.index = append(s.index, r.Index...)
	s.files = append(s.files, splicedFile{name: r.Name, dirLen: r.DirLen})
	return nil
}

// minReportBytes is the wire size of a report with an empty name and
// record.
const minReportBytes = 2 + 8 + 4 + 4 + 4 + 4

// AppendReports appends the wire form of rs to b:
//
//	u32 n | n × { str name | u64 size | u32 count | u32 dirLen | u32 dirCRC |
//	              u32 record length | record }
func AppendReports(b []byte, rs []Report) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
	for _, r := range rs {
		b = hdf.AppendStr(b, r.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Size))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Count))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.DirLen))
		b = binary.LittleEndian.AppendUint32(b, r.DirCRC)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Index)))
		b = append(b, r.Index...)
	}
	return b
}

// DecodeReports parses AppendReports' form and nothing else: the count is
// bounded by the bytes left, trailing bytes are an error, and each record
// is a capacity-capped alias of b (hdf.Cursor.Bytes), which the caller
// owns.
func DecodeReports(b []byte) ([]Report, error) {
	c := hdf.NewCursor(b)
	rs := make([]Report, c.Fits(int(c.U32()), minReportBytes))
	for i := range rs {
		rs[i].Name = c.Str()
		rs[i].Size = int64(c.U64())
		rs[i].Count = int(c.U32())
		rs[i].DirLen = int64(c.U32())
		rs[i].DirCRC = c.U32()
		rs[i].Index = c.Bytes(int(c.U32()))
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("catalog: corrupt report: %w", err)
	}
	return rs, nil
}
