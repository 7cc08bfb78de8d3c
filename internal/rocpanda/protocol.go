package rocpanda

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Ack payloads. A tagWriteAck is empty. A tagSyncAck or tagShutdownAck is
// empty on success, or the ackDrainFailed status byte followed by the error
// text: the server failed to land some of its output (a block write or file
// close error). Clients fold it into the commit allreduce so no generation
// with missing data ever gets a manifest.
const ackDrainFailed = 1

// ackPayload encodes a drain outcome for a sync or shutdown ack.
func ackPayload(err error) []byte {
	if err != nil {
		return append([]byte{ackDrainFailed}, err.Error()...)
	}
	return nil
}

// decodeAck is the client's reading of any ack: nil when empty,
// errDrainFailed with the server's reason for a failed drain, and an error —
// not a panic — for anything else, which only a damaged stream produces.
func decodeAck(data []byte) error {
	switch {
	case len(data) == 0:
		return nil
	case data[0] == ackDrainFailed:
		return fmt.Errorf("%w: %s", errDrainFailed, data[1:])
	}
	return fmt.Errorf("rocpanda: unexpected %d-byte ack payload", len(data))
}

// tagReadDone payload: one mode byte reporting how the server served its
// share of the restart, so clients (and their metrics) can tell indexed
// reads from scan fallbacks. Older-style empty payloads decode as scan.
const (
	doneModeScan    = 0 // directory walk over the server's file share
	doneModeIndexed = 1 // catalog-planned direct offset reads
	// doneModeFailed reports that the server could not serve its share at
	// all (e.g. the snapshot listing failed): the round completed — the
	// client is not left hanging — but shipped nothing from this server.
	// The client decides whether the restart is still complete (peers may
	// hold duplicate panes) or must fall back a generation.
	doneModeFailed = 2
)

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
// index, so a degraded read still covers every file. Empty means all
// servers.
type readReq struct {
	File    string
	Window  string
	Attr    string
	PaneIDs []int32
	Alive   []int32
}

func encodeWriteHdr(h writeHdr) []byte {
	var b []byte
	b = putStr(b, h.File)
	b = putStr(b, h.Window)
	b = putStr(b, h.Attr)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.Time))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Step))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.NBlocks))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Bytes))
	return b
}

func decodeWriteHdr(b []byte) (writeHdr, error) {
	var h writeHdr
	c := &byteCursor{b: b}
	h.File = c.str()
	h.Window = c.str()
	h.Attr = c.str()
	h.Time = math.Float64frombits(c.u64())
	h.Step = int32(c.u32())
	h.NBlocks = int32(c.u32())
	h.Bytes = int64(c.u64())
	if err := c.end(); err != nil {
		return h, fmt.Errorf("rocpanda: corrupt write header: %w", err)
	}
	return h, nil
}

func encodeReadReq(r readReq) []byte {
	var b []byte
	b = putStr(b, r.File)
	b = putStr(b, r.Window)
	b = putStr(b, r.Attr)
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
	c := &byteCursor{b: b}
	r.File = c.str()
	r.Window = c.str()
	r.Attr = c.str()
	r.PaneIDs = c.i32s()
	r.Alive = c.i32s()
	if err := c.end(); err != nil {
		return r, fmt.Errorf("rocpanda: corrupt read request: %w", err)
	}
	return r, nil
}

func putStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if n > len(c.b)-c.off {
		c.err = fmt.Errorf("truncated at %d (need %d of %d)", c.off, n, len(c.b))
		return false
	}
	return true
}

// end returns the first decoding error; bytes left over after the last
// field are one, so only a message's own encoding decodes.
func (c *byteCursor) end() error {
	if c.err == nil && c.off != len(c.b) {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// i32s reads a counted list. A count the remaining bytes cannot hold is an
// error, not a list to skip: the fields after it would otherwise decode
// from the wrong offset into a plausible request for the wrong panes.
func (c *byteCursor) i32s() []int32 {
	n := int(c.u32())
	if c.err == nil && (n < 0 || n > (len(c.b)-c.off)/4) {
		c.err = fmt.Errorf("list of %d at %d cannot fit in %d bytes", n, c.off, len(c.b))
	}
	if c.err != nil || n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(c.u32())
	}
	return v
}

func (c *byteCursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *byteCursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *byteCursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *byteCursor) str() string {
	n := int(c.u16())
	if !c.need(n) {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}
