package rt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// fsCases returns fresh instances of every FS implementation for
// behavioural conformance tests.
func fsCases(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{
		"memfs": NewMemFS(),
		"osfs":  osfs,
	}
}

func TestFSRoundTrip(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fsys.Create("dir/a.dat")
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("hello parallel world")
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("IO"), 6); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g, err := fsys.Open("dir/a.dat")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := g.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			want := []byte("hello IOrallel world")
			if !bytes.Equal(got, want) {
				t.Fatalf("read %q, want %q", got, want)
			}
			sz, err := g.Size()
			if err != nil || sz != int64(len(data)) {
				t.Fatalf("size = %d, %v", sz, err)
			}
			g.Close()
		})
	}
}

func TestFSWriteExtends(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fsys.Create("x")
			if _, err := f.WriteAt([]byte{1, 2, 3}, 10); err != nil {
				t.Fatal(err)
			}
			sz, _ := f.Size()
			if sz != 13 {
				t.Fatalf("size = %d, want 13", sz)
			}
			// The gap must read back as zeros.
			gap := make([]byte, 10)
			if _, err := f.ReadAt(gap, 0); err != nil {
				t.Fatal(err)
			}
			for i, b := range gap {
				if b != 0 {
					t.Fatalf("gap byte %d = %d, want 0", i, b)
				}
			}
			f.Close()
		})
	}
}

func TestFSOpenMissing(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fsys.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Open missing: err = %v, want ErrNotExist", err)
			}
			if _, err := fsys.Stat("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Stat missing: err = %v, want ErrNotExist", err)
			}
			if err := fsys.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Remove missing: err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestFSListAndRemove(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"snap0/b2", "snap0/b1", "snap1/b1", "other"} {
				f, err := fsys.Create(n)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteAt([]byte{0}, 0)
				f.Close()
			}
			got, err := fsys.List("snap0/")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[snap0/b1 snap0/b2]" {
				t.Fatalf("List = %v", got)
			}
			all, _ := fsys.List("")
			if len(all) != 4 {
				t.Fatalf("List(\"\") = %v", all)
			}
			if err := fsys.Remove("snap0/b1"); err != nil {
				t.Fatal(err)
			}
			got, _ = fsys.List("snap0/")
			if fmt.Sprint(got) != "[snap0/b2]" {
				t.Fatalf("after remove, List = %v", got)
			}
		})
	}
}

func TestFSTruncate(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fsys.Create("t")
			f.WriteAt([]byte("abcdef"), 0)
			if err := f.Truncate(3); err != nil {
				t.Fatal(err)
			}
			sz, _ := f.Size()
			if sz != 3 {
				t.Fatalf("size after shrink = %d", sz)
			}
			if err := f.Truncate(5); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 5)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{'a', 'b', 'c', 0, 0}) {
				t.Fatalf("after grow: %v", got)
			}
			f.Close()
		})
	}
}

func TestFSCreateTruncatesExisting(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fsys.Create("c")
			f.WriteAt([]byte("old content"), 0)
			f.Close()
			g, _ := fsys.Create("c")
			sz, _ := g.Size()
			if sz != 0 {
				t.Fatalf("Create did not truncate: size %d", sz)
			}
			g.Close()
		})
	}
}

func TestMemFSRandomRoundTrip(t *testing.T) {
	fsys := NewMemFS()
	i := 0
	f := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		i++
		name := fmt.Sprintf("f%d", i)
		off := int64(offRaw % 4096)
		fh, err := fsys.Create(name)
		if err != nil {
			return false
		}
		if _, err := fh.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := fh.ReadAt(got, off); err != nil {
			return false
		}
		sz, _ := fh.Size()
		return bytes.Equal(got, data) && sz == off+int64(len(data))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMemFSMatchesOSFS runs the same random operations on one MemFS file
// and one OSFS file and requires the same answers: n, whether err is nil,
// and the bytes. The ops cover what paged storage could get wrong — sparse
// writes past EOF and across page boundaries (small pages near the start,
// 64 KiB ones past 127.5 KiB), shrink-then-extend truncation reading back
// zeros, and short, past-EOF and empty reads.
func TestMemFSMatchesOSFS(t *testing.T) {
	const span = 300 << 10 // offsets reach well into the largest pages
	for seed := uint64(1); seed <= 4; seed++ {
		fsys := fsCases(t)
		mem, _ := fsys["memfs"].Create("f")
		osf, _ := fsys["osfs"].Create("f")
		rng := rand.New(rand.NewPCG(seed, 0))
		length := func() int { // mostly small, sometimes more than a page
			if rng.IntN(3) == 0 {
				return rng.IntN(70 << 10)
			}
			return rng.IntN(600)
		}
		for op := 0; op < 400; op++ {
			size, _ := osf.Size()
			off := rng.Int64N(span)
			if rng.IntN(2) == 0 {
				off = max(0, size-300+rng.Int64N(600)) // around EOF
			}
			var what string
			var mn, on int
			var merr, oerr error
			var mb, ob []byte // what the reads returned
			switch rng.IntN(4) {
			case 0:
				p := make([]byte, length())
				for i := range p {
					p[i] = byte(rng.IntN(255) + 1)
				}
				what = fmt.Sprintf("WriteAt(%d bytes, %d)", len(p), off)
				mn, merr = mem.WriteAt(p, off)
				on, oerr = osf.WriteAt(p, off)
			case 1:
				to := rng.Int64N(size + 1) // shrink
				if rng.IntN(2) == 0 {
					to = size + rng.Int64N(70<<10) // extend
				}
				what = fmt.Sprintf("Truncate(%d)", to)
				merr, oerr = mem.Truncate(to), osf.Truncate(to)
			case 2:
				n := length()
				if rng.IntN(8) == 0 {
					n = 0
				}
				mb, ob = make([]byte, n), make([]byte, n)
				what = fmt.Sprintf("ReadAt(%d bytes, %d)", n, off)
				mn, merr = mem.ReadAt(mb, off)
				on, oerr = osf.ReadAt(ob, off)
				mb, ob = mb[:mn], ob[:on]
			default:
				what = "Size()"
				msz, merr := mem.Size()
				osz, oerr := osf.Size()
				mn, on = int(msz), int(osz)
				if merr != nil || oerr != nil {
					t.Fatal(merr, oerr)
				}
			}
			if mn != on || (merr == nil) != (oerr == nil) || !bytes.Equal(mb, ob) {
				t.Fatalf("seed %d op %d %s at size %d: memfs %d, %v; osfs %d, %v", seed, op, what, size, mn, merr, on, oerr)
			}
		}
		mem.Close()
		osf.Close()
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock()
	t0 := c.Now()
	c.Compute(1e9) // must be free
	t1 := c.Now()
	if t1-t0 > 5 {
		t.Fatalf("Compute appears to have consumed real time: %v s", t1-t0)
	}
}

// TestFSRename covers the commit primitive of the durable-snapshot
// protocol on every FS implementation: the staged name disappears, the
// final name holds the staged bytes, an existing target is replaced, and
// a missing source reports ErrNotExist.
func TestFSRename(t *testing.T) {
	for name, fsys := range fsCases(t) {
		t.Run(name, func(t *testing.T) {
			write := func(name string, data []byte) {
				f, err := fsys.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(data, 0); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			read := func(name string) []byte {
				f, err := fsys.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				sz, _ := f.Size()
				b := make([]byte, sz)
				if sz > 0 {
					if _, err := f.ReadAt(b, 0); err != nil {
						t.Fatal(err)
					}
				}
				return b
			}

			write("dir/a.tmp", []byte("new generation"))
			write("dir/a", []byte("old generation"))
			if err := fsys.Rename("dir/a.tmp", "dir/a"); err != nil {
				t.Fatal(err)
			}
			if got := read("dir/a"); !bytes.Equal(got, []byte("new generation")) {
				t.Fatalf("renamed content %q", got)
			}
			if _, err := fsys.Open("dir/a.tmp"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("source still present after rename: %v", err)
			}
			names, err := fsys.List("dir/")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0] != "dir/a" {
				t.Fatalf("listing after rename: %v", names)
			}

			// Rename into a fresh subdirectory (OSFS must create it).
			write("dir/b.tmp", []byte("b"))
			if err := fsys.Rename("dir/b.tmp", "other/deep/b"); err != nil {
				t.Fatal(err)
			}
			if got := read("other/deep/b"); !bytes.Equal(got, []byte("b")) {
				t.Fatalf("cross-directory rename content %q", got)
			}

			if err := fsys.Rename("dir/missing", "dir/x"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("renaming a missing file: %v", err)
			}
		})
	}
}
