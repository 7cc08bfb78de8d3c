package main

import (
	"fmt"
	"reflect"
	"testing"

	"genxio/internal/rt"
)

// fsScript drives an rt.FS through every operation, successful and
// failing, and returns a transcript of everything the FS answered.
func fsScript(fs rt.FS) []string {
	var log []string
	note := func(format string, args ...interface{}) { log = append(log, fmt.Sprintf(format, args...)) }
	f, err := fs.Create("d/a.tmp")
	note("create %v", err)
	n, err := f.WriteAt([]byte("hello, world"), 0)
	note("write %d %v", n, err)
	n, err = f.WriteAt([]byte("HELLO"), 20)
	note("write past end %d %v", n, err)
	size, err := f.Size()
	note("size %d %v name %s", size, err, f.Name())
	note("truncate %v", f.Truncate(16))
	note("close %v", f.Close())
	note("rename %v", fs.Rename("d/a.tmp", "d/a"))
	note("rename missing %v", fs.Rename("d/a.tmp", "d/b"))
	_, err = fs.Open("d/a.tmp")
	note("open renamed-away %v", err)
	g, err := fs.Open("d/a")
	note("open %v", err)
	buf := make([]byte, 16)
	n, err = g.ReadAt(buf, 0)
	note("read %d %v %q", n, err, buf)
	n, err = g.ReadAt(buf, 8)
	note("short read %d %v", n, err)
	n, err = g.ReadAt(buf, 100)
	note("read past end %d %v", n, err)
	note("close %v", g.Close())
	h, _ := fs.Create("d/c")
	h.Close()
	names, err := fs.List("d/")
	note("list %v %v", names, err)
	size, err = fs.Stat("d/a")
	note("stat %d %v", size, err)
	_, err = fs.Stat("d/zz")
	note("stat missing %v", err)
	note("remove %v", fs.Remove("d/c"))
	note("remove missing %v", fs.Remove("d/c"))
	names, err = fs.List("")
	note("list all %v %v", names, err)
	return log
}

// TestCountFSChangesNoResult is the wrapper's conformance test: the same
// script answers identically through countFS and on bare MemFS, timed or
// not, and the tallies are the script's.
func TestCountFSChangesNoResult(t *testing.T) {
	want := fsScript(rt.NewMemFS())
	for _, timed := range []bool{false, true} {
		c := &fsCounts{}
		var clock rt.Clock
		if timed {
			clock = rt.NewWallClock()
		}
		got := fsScript(&countFS{inner: rt.NewMemFS(), c: c, clock: clock})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("timed=%v: transcript differs\n got %q\nwant %q", timed, got, want)
		}
		tot := c.totals()
		wantCalls := map[fsOp]int64{
			opCreate: 2, opOpen: 2, opRemove: 2, opRename: 2, opList: 2, opStat: 2,
			opRead: 3, opWrite: 2, opTruncate: 1, opClose: 3,
		}
		for op, n := range wantCalls {
			if tot.Calls[op] != n {
				t.Errorf("timed=%v: op %d counted %d calls, want %d", timed, op, tot.Calls[op], n)
			}
		}
		if tot.Bytes[opWrite] != 17 || tot.Bytes[opRead] != 16+8 {
			t.Errorf("timed=%v: bytes written %d read %d, want 17 and 24", timed, tot.Bytes[opWrite], tot.Bytes[opRead])
		}
		if busy := tot.busySeconds(); (busy > 0) != timed {
			t.Errorf("timed=%v: busy seconds %g", timed, busy)
		}
	}
}
