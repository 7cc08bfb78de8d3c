package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// comm implements Comm generically over an Endpoint. A communicator is a
// list of global ranks plus a context id that isolates its traffic.
type comm struct {
	ep     Endpoint
	ctx    uint64
	group  []int       // global rank of each communicator rank
	local  map[int]int // global rank -> communicator rank
	rank   int         // caller's rank within the communicator
	splits uint64      // number of Split calls issued, for child ctx ids
}

// NewWorldComm returns the world communicator for an endpoint: all ranks,
// identity ordering, context id 0.
func NewWorldComm(ep Endpoint) Comm {
	n := ep.NumRanks()
	group := make([]int, n)
	local := make(map[int]int, n)
	for i := range group {
		group[i] = i
		local[i] = i
	}
	return &comm{ep: ep, ctx: 0, group: group, local: local, rank: ep.GlobalRank()}
}

func (c *comm) Rank() int   { return c.rank }
func (c *comm) Size() int   { return len(c.group) }
func (c *comm) Global() int { return c.ep.GlobalRank() }

func (c *comm) Send(dst, tag int, data ...[]byte) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: application tag %d must be >= 0", tag))
	}
	c.send(dst, tag, data...)
}

// send gathers the segments into a fresh message payload — the one copy a
// message costs on either backend — and hands it to the endpoint.
func (c *comm) send(dst, tag int, data ...[]byte) {
	if dst < 0 || dst >= len(c.group) {
		panic(fmt.Sprintf("mpi: Send to rank %d outside communicator of size %d", dst, len(c.group)))
	}
	c.ep.Send(c.group[dst], &Message{Ctx: c.ctx, Src: c.ep.GlobalRank(), Tag: tag, Data: bytes.Join(data, nil)})
}

// pred builds the match predicate for (src, tag) within this communicator.
// A wildcard tag never matches the internal (negative) collective tags.
func (c *comm) pred(src, tag int) func(*Message) bool {
	return func(m *Message) bool {
		if m.Ctx != c.ctx {
			return false
		}
		switch {
		case tag == AnyTag:
			if m.Tag < 0 {
				return false
			}
		case m.Tag != tag:
			return false
		}
		if src == AnySource {
			_, ok := c.local[m.Src]
			return ok
		}
		return m.Src == c.group[src]
	}
}

func (c *comm) status(m *Message) Status {
	return Status{Source: c.local[m.Src], Tag: m.Tag, Size: len(m.Data)}
}

func (c *comm) Recv(src, tag int) ([]byte, Status) {
	m := c.ep.RecvMatch(c.pred(src, tag), 0)
	return m.Data, c.status(m)
}

// ErrTimedOut is what RecvTimed returns when its wait expired: every live
// process was blocked in a world wait, so no matching message could come.
var ErrTimedOut = errors.New("mpi: timed receive expired")

func (c *comm) RecvTimed(src int, tags []int, timeout float64) ([]byte, Status, error) {
	from := c.pred(src, AnyTag)
	m := c.ep.RecvMatch(func(m *Message) bool { return slices.Contains(tags, m.Tag) && from(m) }, timeout)
	if m == nil {
		return nil, Status{}, ErrTimedOut
	}
	return m.Data, c.status(m), nil
}

func (c *comm) Probe(src, tag int) Status {
	m := c.ep.ProbeMatch(c.pred(src, tag))
	return c.status(m)
}

func (c *comm) Iprobe(src, tag int) (Status, bool) {
	m, ok := c.ep.TryProbeMatch(c.pred(src, tag))
	if !ok {
		return Status{}, false
	}
	return c.status(m), true
}

// Split implements Comm. It gathers every rank's (color, key) to rank 0,
// broadcasts the table, and builds the child communicator locally. The
// child context id is derived deterministically from the parent context,
// the per-parent split counter, and the color, so all members agree on it
// without further communication.
func (c *comm) Split(color, key int) Comm {
	mine := make([]byte, 8)
	binary.LittleEndian.PutUint32(mine[0:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(mine[4:], uint32(int32(key)))
	table := c.gather(0, tagSplit, mine)
	var flat []byte
	if c.rank == 0 {
		flat = make([]byte, 0, 8*len(table))
		for _, b := range table {
			flat = append(flat, b...)
		}
	}
	flat = c.bcast(0, tagSplit, flat)

	c.splits++
	if color < 0 {
		return nil
	}
	type member struct{ rank, key int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		rc := int(int32(binary.LittleEndian.Uint32(flat[8*r:])))
		rk := int(int32(binary.LittleEndian.Uint32(flat[8*r+4:])))
		if rc == color {
			members = append(members, member{rank: r, key: rk})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})

	child := &comm{
		ep:    c.ep,
		ctx:   childCtx(c.ctx, c.splits, color),
		local: make(map[int]int, len(members)),
		rank:  -1,
	}
	child.group = make([]int, len(members))
	for i, m := range members {
		g := c.group[m.rank]
		child.group[i] = g
		child.local[g] = i
		if m.rank == c.rank {
			child.rank = i
		}
	}
	if child.rank < 0 {
		panic("mpi: Split caller missing from its own color group")
	}
	return child
}

// childCtx mixes the parent context, split counter, and color into a new
// context id (FNV-1a over the three words).
func childCtx(parent, splits uint64, color int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range [3]uint64{parent, splits, uint64(int64(color))} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	if h == 0 { // reserve 0 for the world communicator
		h = 1
	}
	return h
}
