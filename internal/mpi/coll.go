package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The collectives use binomial trees over communicator ranks (relative to
// the operation's root), giving O(log n) depth. They rely on per-pair FIFO
// ordering and on every rank of the communicator entering the same
// collectives in the same order, as MPI does.

// treeParent returns the parent of rank in a binomial tree of size n rooted
// at 0, or -1 for the root.
func treeParent(rank, n int) int {
	if rank == 0 {
		return -1
	}
	// Clear the lowest set bit.
	return rank & (rank - 1)
}

// treeChildren appends the children of rank in a binomial tree of size n
// rooted at 0.
func treeChildren(rank, n int) []int {
	var kids []int
	for mask := 1; mask < n; mask <<= 1 {
		if rank&(mask-1) != 0 || rank&mask != 0 {
			break
		}
		child := rank | mask
		if child < n {
			kids = append(kids, child)
		}
	}
	return kids
}

// rel maps a rank to the tree coordinate system rooted at root, and back.
func rel(rank, root, n int) int   { return (rank - root + n) % n }
func unrel(rank, root, n int) int { return (rank + root) % n }

// Barrier blocks until every rank of the communicator has entered it:
// a reduce up the tree followed by a broadcast down.
func (c *comm) Barrier() {
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.rank
	for _, kid := range treeChildren(me, n) {
		c.ep.RecvMatch(c.pred(kid, tagBarrierUp), 0)
	}
	if p := treeParent(me, n); p >= 0 {
		c.send(p, tagBarrierUp, nil)
		c.ep.RecvMatch(c.pred(p, tagBarrierDown), 0)
	}
	for _, kid := range treeChildren(me, n) {
		c.send(kid, tagBarrierDown, nil)
	}
}

// Bcast distributes root's data to every rank and returns it. Non-root
// callers may pass nil.
func (c *comm) Bcast(root int, data []byte) []byte {
	return c.bcast(root, tagBcast, data)
}

func (c *comm) bcast(root, tag int, data []byte) []byte {
	n := c.Size()
	if n == 1 {
		return data
	}
	me := rel(c.rank, root, n)
	if me != 0 {
		p := unrel(treeParent(me, n), root, n)
		m := c.ep.RecvMatch(c.pred(p, tag), 0)
		data = m.Data
	}
	for _, kid := range treeChildren(me, n) {
		c.send(unrel(kid, root, n), tag, data)
	}
	return data
}

// Gather collects every rank's data — segments, gathered into one message
// as Send does — at root. At root the result has one entry per rank,
// indexed by communicator rank; other ranks get nil.
func (c *comm) Gather(root int, data ...[]byte) [][]byte {
	return c.gather(root, tagGather, data...)
}

func (c *comm) gather(root, tag int, data ...[]byte) [][]byte {
	// Flat gather: each rank sends directly to root. Contributions can
	// be large and heterogeneous, so a flat pattern avoids forwarding
	// volume through the tree.
	if c.rank != root {
		c.send(root, tag, data...)
		return nil
	}
	// Receive from each source by rank, not from any source: two gathers
	// back to back would otherwise let a fast rank's second contribution be
	// taken by the first gather and overwrite that rank's own slot. Per-pair
	// FIFO makes the per-source match exact.
	out := make([][]byte, c.Size())
	out[root] = bytes.Join(data, nil)
	for src := range out {
		if src != root {
			out[src] = c.ep.RecvMatch(c.pred(src, tag), 0).Data
		}
	}
	return out
}

// allreduce combines every rank's 64-bit word with op up the tree and
// broadcasts the result down it.
func (c *comm) allreduce(x uint64, op func(a, b uint64) uint64) uint64 {
	n := c.Size()
	if n == 1 {
		return x
	}
	me := c.rank
	acc := x
	for _, kid := range treeChildren(me, n) {
		m := c.ep.RecvMatch(c.pred(kid, tagReduceUp), 0)
		acc = op(acc, binary.LittleEndian.Uint64(m.Data))
	}
	buf := make([]byte, 8)
	if p := treeParent(me, n); p >= 0 {
		binary.LittleEndian.PutUint64(buf, acc)
		c.send(p, tagReduceUp, buf)
	}
	binary.LittleEndian.PutUint64(buf, acc)
	out := c.bcast(0, tagReduceUp, buf)
	return binary.LittleEndian.Uint64(out)
}

// allreduceFloat is allreduce over float64s, carried as their bits.
func (c *comm) allreduceFloat(x float64, op func(a, b float64) float64) float64 {
	return math.Float64frombits(c.allreduce(math.Float64bits(x), func(a, b uint64) uint64 {
		return math.Float64bits(op(math.Float64frombits(a), math.Float64frombits(b)))
	}))
}

// AllreduceMax returns the maximum of x across all ranks, on all ranks.
func (c *comm) AllreduceMax(x float64) float64 {
	return c.allreduceFloat(x, math.Max)
}

// AllreduceMin returns the minimum of x across all ranks, on all ranks.
func (c *comm) AllreduceMin(x float64) float64 {
	return c.allreduceFloat(x, math.Min)
}

// AllreduceOr returns the bitwise OR of bits across all ranks, on all ranks.
func (c *comm) AllreduceOr(bits uint64) uint64 {
	return c.allreduce(bits, func(a, b uint64) uint64 { return a | b })
}

// ErrPeerFailed is what a failure agreement returns, wrapped with the
// lowest failing rank, on a rank that did not fail itself.
var ErrPeerFailed = errors.New("mpi: a peer rank failed")

// Agree is the failure agreement of a collective step: every rank of c
// passes its own outcome, and each returns its own error, ErrPeerFailed
// when only a peer failed, or nil when no rank did.
func Agree(c Comm, err error) error {
	_, err = AgreeMin(c, 0, err)
	return err
}

// AgreeMin is Agree carrying the minimum of x >= 0 over the clean ranks,
// which is meaningful only when no rank failed. It is one AllreduceMin: a
// failing rank k of n contributes k-n, so the lowest failing rank wins.
func AgreeMin(c Comm, x float64, err error) (float64, error) {
	if err != nil {
		x = float64(c.Rank() - c.Size())
	}
	min := c.AllreduceMin(x)
	if min < 0 && err == nil {
		err = fmt.Errorf("%w (rank %d)", ErrPeerFailed, int(min)+c.Size())
	}
	return min, err
}
