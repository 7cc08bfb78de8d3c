package rocpanda

import (
	"encoding/binary"
	"fmt"
	"math"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
)

// Client-server protocol tags (application tag space, >= 0).
const (
	tagWriteHdr = 1100 + iota
	tagWriteBlock
	tagWriteAck
	tagReadReq
	tagReadBlock
	tagReadDone
	tagSync
	tagSyncAck
	tagShutdown
	tagShutdownAck
	// tagAdopt tells a server that the sending client now belongs to it:
	// the client's original server died (or stopped responding) and the
	// coordinator's deterministic reassignment picked this one. The
	// server adds the client to its served set, so sync and shutdown
	// accounting include it (degraded mode).
	tagAdopt
)

// Ack payloads. A tagWriteAck is empty. A tagSyncAck or tagShutdownAck
// carries the server's flush outcome:
//   - ackDrainFailed followed by the error text: the server failed to land
//     some of its output (a block write or file close error). Clients fold it
//     into the commit allreduce so no generation with missing data ever gets
//     a manifest.
//   - ackPublished followed by catalog.AppendReports' form: the flush
//     succeeded, and these are the reports of the files the server
//     published since its last ack, which the commit records instead of
//     reading their directories back.
//   - empty: the flush succeeded and published nothing new.
const (
	ackDrainFailed = 1
	ackPublished   = 2
)

// encodeAck encodes a flush outcome for a sync or shutdown ack.
func encodeAck(err error, published []catalog.Report) []byte {
	switch {
	case err != nil:
		return append([]byte{ackDrainFailed}, err.Error()...)
	case len(published) > 0:
		return catalog.AppendReports([]byte{ackPublished}, published)
	}
	return nil
}

// decodeAck is the client's reading of a sync or shutdown ack: what the
// server published when it carries a report, errDrainFailed with the
// server's reason for a failed drain, and an error — not a panic — for
// anything else, which only a damaged stream produces. A report is read
// strictly (catalog.DecodeReports), its records by alias of data.
func decodeAck(data []byte) ([]catalog.Report, error) {
	switch {
	case len(data) == 0:
		return nil, nil
	case data[0] == ackDrainFailed:
		return nil, fmt.Errorf("%w: %s", errDrainFailed, data[1:])
	case data[0] == ackPublished:
		published, err := catalog.DecodeReports(data[1:])
		if err == nil && len(published) == 0 {
			err = fmt.Errorf("empty report") // encodeAck sends an empty ack instead
		}
		if err != nil {
			return nil, fmt.Errorf("rocpanda: corrupt ack: %w", err)
		}
		return published, nil
	}
	return nil, fmt.Errorf("rocpanda: unexpected %d-byte ack payload", len(data))
}

// tagReadDone payload: one mode byte — a snapshot.ReadMode — saying how the
// server served its share of the restart: from the committed index, from a
// derived one, or not at all. The client reads only the tag, which ends
// that server's part of the round, and ignores the byte; the server's read
// service counts the mode (catalog_hits, catalog_fallbacks).

// writeHdr announces a collective write from one client: nblocks block
// messages follow on tagWriteBlock.
type writeHdr struct {
	File    string
	Window  string
	Attr    string
	Time    float64
	Step    int32
	NBlocks int32
	Bytes   int64
}

// readReq asks the servers for the panes this client owns in a snapshot.
// Alive lists the server indices the clients believe are alive; the
// snapshot files are assigned round-robin over that set by their home
// index, so a degraded read still covers every file.
type readReq struct {
	File    string
	Window  string
	Attr    string
	PaneIDs []int32
	Alive   []int32
}

func encodeWriteHdr(h writeHdr) []byte {
	var b []byte
	b = hdf.AppendStr(b, h.File)
	b = hdf.AppendStr(b, h.Window)
	b = hdf.AppendStr(b, h.Attr)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.Time))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Step))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.NBlocks))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Bytes))
	return b
}

func decodeWriteHdr(b []byte) (writeHdr, error) {
	var h writeHdr
	c := hdf.NewCursor(b)
	h.File = c.Str()
	h.Window = c.Str()
	h.Attr = c.Str()
	h.Time = math.Float64frombits(c.U64())
	h.Step = int32(c.U32())
	h.NBlocks = int32(c.U32())
	h.Bytes = int64(c.U64())
	if err := c.End(); err != nil {
		return h, fmt.Errorf("rocpanda: corrupt write header: %w", err)
	}
	return h, nil
}

func encodeReadReq(r readReq) []byte {
	var b []byte
	b = hdf.AppendStr(b, r.File)
	b = hdf.AppendStr(b, r.Window)
	b = hdf.AppendStr(b, r.Attr)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.PaneIDs)))
	for _, id := range r.PaneIDs {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Alive)))
	for _, s := range r.Alive {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	return b
}

func decodeReadReq(b []byte) (readReq, error) {
	var r readReq
	c := hdf.NewCursor(b)
	r.File = c.Str()
	r.Window = c.Str()
	r.Attr = c.Str()
	r.PaneIDs = c.I32s()
	r.Alive = c.I32s()
	if err := c.End(); err != nil {
		return r, fmt.Errorf("rocpanda: corrupt read request: %w", err)
	}
	return r, nil
}
