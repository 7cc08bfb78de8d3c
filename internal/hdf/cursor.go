package hdf

import (
	"encoding/binary"
	"fmt"
)

// Cursor is the bounds-checked little-endian reader behind every decoder of
// untrusted bytes in the tree: RHDF directories here, the catalog blob, the
// IOSet wire form and Rocpanda's protocol messages. Reads past the end (or
// of a negative length) return zero values and stick the first error, so a
// decoder reads straight through and checks Err or End once; damage is an
// error, never a panic or an allocation sized by the damage.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Offset returns how many bytes the cursor has read.
func (c *Cursor) Offset() int { return c.off }

// Err returns the first decoding error.
func (c *Cursor) Err() error { return c.err }

// End returns the first decoding error; bytes left over after the last
// field are one, so only a message's own encoding decodes.
func (c *Cursor) End() error {
	if c.err == nil && c.off != len(c.b) {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

func (c *Cursor) need(n int) bool {
	if c.err != nil || uint(n) > uint(len(c.b)-c.off) {
		c.fail(n)
		return false
	}
	return true
}

// fail sticks the error of a read of n bytes that does not fit, unless an
// earlier error stuck. It stays out of line so need, on every read, inlines.
//
//go:noinline
func (c *Cursor) fail(n int) {
	if c.err == nil {
		c.err = fmt.Errorf("truncated at offset %d (need %d of %d)", c.off, n, len(c.b))
	}
}

// Fits returns n when n records of at least each bytes could still follow,
// and fails the cursor otherwise, so a corrupt count never sizes an
// allocation.
func (c *Cursor) Fits(n, each int) int {
	if c.err == nil && (n < 0 || n > (len(c.b)-c.off)/each) {
		c.err = fmt.Errorf("count %d at offset %d cannot fit in %d bytes", n, c.off, len(c.b))
	}
	if c.err != nil {
		return 0
	}
	return n
}

// zeros is what a failed cursor reads.
var zeros [8]byte

// word returns the next n <= 8 bytes in place, or zeros once the cursor has
// failed.
func (c *Cursor) word(n int) []byte {
	if !c.need(n) {
		return zeros[:n]
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// U8, U16, U32 and U64 read one little-endian unsigned integer.
func (c *Cursor) U8() uint8   { return c.word(1)[0] }
func (c *Cursor) U16() uint16 { return binary.LittleEndian.Uint16(c.word(2)) }
func (c *Cursor) U32() uint32 { return binary.LittleEndian.Uint32(c.word(4)) }
func (c *Cursor) U64() uint64 { return binary.LittleEndian.Uint64(c.word(8)) }

// Bytes reads n bytes in place: a subslice of the cursor's input, which the
// caller owns, capacity-capped so appending to one field can never overwrite
// the field after it.
func (c *Cursor) Bytes(n int) []byte {
	if !c.need(n) {
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off : c.off]
}

// Str reads a uint16-counted string.
func (c *Cursor) Str() string {
	n := int(c.U16())
	if !c.need(n) {
		return ""
	}
	c.off += n
	return string(c.b[c.off-n : c.off])
}

// AppendStr is Str's inverse: it appends s, uint16-counted, to b.
func AppendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// I32s reads a uint32-counted list. A count the remaining bytes cannot hold
// is an error, not a list to skip: the fields after it would otherwise
// decode from the wrong offset into a plausible message.
func (c *Cursor) I32s() []int32 {
	n := c.Fits(int(c.U32()), 4)
	if n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(c.U32())
	}
	return v
}
