package hdf

import "testing"

// TestCursorBounds: every read past the end, negative length or count the
// remaining bytes cannot hold fails the cursor and returns zero values; the
// first error sticks and End also refuses leftovers.
func TestCursorBounds(t *testing.T) {
	msg := []byte{2, 0, 'h', 'i', 1, 0, 0, 0, 7, 0, 0, 0}
	c := NewCursor(msg)
	if s, l := c.Str(), c.I32s(); s != "hi" || len(l) != 1 || l[0] != 7 || c.End() != nil {
		t.Fatalf("clean decode: %q %v %v", s, l, c.Err())
	}
	if c := NewCursor(append(msg[:len(msg):len(msg)], 0)); c.Str() != "hi" || len(c.I32s()) != 1 || c.End() == nil {
		t.Fatal("End accepted a trailing byte")
	}

	fails := map[string]func(c *Cursor){
		"u64 past end":         func(c *Cursor) { c.U64(); c.U64() },
		"negative byte count":  func(c *Cursor) { c.Bytes(-1) },
		"string longer than b": func(c *Cursor) { c.U8(); c.U8(); c.Str() },
		"count cannot fit":     func(c *Cursor) { c.Fits(4, 4) },
		"negative count":       func(c *Cursor) { c.Fits(-1, 1) },
		"list cannot fit":      func(c *Cursor) { c.U16(); c.I32s() },
	}
	for name, read := range fails {
		c := NewCursor(msg)
		read(c)
		first := c.Err()
		if first == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if c.U8() != 0 || c.U32() != 0 || c.Bytes(1) != nil || c.Fits(1, 1) != 0 || c.Err() != first || c.End() != first {
			t.Errorf("%s: a failed cursor kept reading, or lost its first error", name)
		}
	}
}
