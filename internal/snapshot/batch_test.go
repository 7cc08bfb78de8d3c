package snapshot

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// TestCutCheckKeepsItsStrength: a pooled restore walk cuts each long
// directory of a generation's file checks into pieces on several workers,
// and the reassembled bytes get the whole check. One byte flipped inside any
// one piece of a cut directory, or the directory's tail cut off, fails the
// newest generation's check: the walk, inline and pooled alike, skips it and
// restores the older generation — the newest one the deep scrub promises.
func TestCutCheckKeepsItsStrength(t *testing.T) {
	const older, newer, victim = "out/snap000000", "out/snap000010", "out/snap000010_s000.rhdf"
	write := func() rt.FS {
		fsys := rt.NewMemFS()
		for _, base := range []string{older, newer} {
			writePaneGen(t, fsys, base, 2, 2400)
			if _, err := Commit(fsys, base, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return fsys
	}
	// walk runs the restore walk with an attempt that always succeeds, so
	// what it restores is the first generation its checks pass.
	walk := func(fsys rt.FS, cfg ReaderConfig) (base string, tried []string) {
		err := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) (err error) {
			base, err = NewReader(ctx, cfg).Restore(ctx.Comm(), "out/", func(b string) error {
				tried = append(tried, b)
				return nil
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return base, tried
	}
	// The pooled walk's check batch of the newer generation, as it cuts it.
	fsys := write()
	chain, err := LoadChain(fsys, newer)
	if err != nil {
		t.Fatal(err)
	}
	files, dirs := chain[0].Manifest.Files, chainDirs(chain)
	costs := make([]int64, len(files))
	for i, e := range files {
		costs[i] = dirs[e.Name].cat.DirLen(dirs[e.Name].f)
	}
	xs := checkReads(files, costs)
	var inVictim []int64 // a byte inside each piece of the victim's directory
	for _, p := range (reads{width: 4}).pieces(xs) {
		for _, w := range p.ws {
			if p.x.name == victim && w.r == 1 {
				inVictim = append(inVictim, p.x.offs[1]+(w.lo+w.hi)/2)
			}
		}
	}
	if len(inVictim) < 2 {
		t.Fatalf("the victim's directory is read in %d pieces, want it cut", len(inVictim))
	}

	reg := metrics.New()
	if base, tried := walk(fsys, ReaderConfig{Workers: 4, Metrics: reg, Prefix: "r."}); base != newer || fmt.Sprint(tried) != fmt.Sprint([]string{newer}) {
		t.Fatalf("intact: the pooled walk tried %v and restored %q, want %s", tried, base, newer)
	}
	if n := reg.Counter("r.cut_pieces").Value(); n < int64(len(inVictim)-1) {
		t.Fatalf("the pooled walk cut %d pieces, want the victim's %d and more", n, len(inVictim)-1)
	}

	type damage struct {
		name string
		do   func(rt.FS)
	}
	var cases []damage
	for i, off := range inVictim {
		cases = append(cases, damage{fmt.Sprintf("flip-piece-%d", i), func(fsys rt.FS) { flipByte(t, fsys, victim, off) }})
	}
	cases = append(cases, damage{"truncated-tail", func(fsys rt.FS) {
		b := readAll(t, fsys, victim)
		writeAll(t, fsys, victim, b[:len(b)-len(b)/64])
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fsys := write()
			c.do(fsys)
			reports, err := Fsck(fsys, "out/")
			if err != nil {
				t.Fatal(err)
			}
			var want string // the newest generation the scrub promises
			for _, rep := range reports {
				if promised(rep) {
					want = rep.Base
					break
				}
			}
			if want != older {
				t.Fatalf("the scrub promises %q first, want %s", want, older)
			}
			for _, workers := range []int{0, 4} {
				if base, tried := walk(fsys, ReaderConfig{Workers: workers}); base != want || fmt.Sprint(tried) != fmt.Sprint([]string{older}) {
					t.Errorf("%d workers: the walk tried %v and restored %q; want only %s tried, as the scrub predicts", workers, tried, base, want)
				}
			}
		})
	}
}

// FuzzCutCoversEveryRange holds the one cut rule to what the driver needs
// of it, over random batches of reads — range lengths of 0, under
// minPieceBytes and long, pool widths 0 to 8 and a filler read that moves
// the batch's total: every byte of every range lies in exactly one window,
// the windows of a read in range order; every range, an empty one too, is
// requested, an empty one exactly once; each piece costs its windows' bytes;
// inline (width 0) every read is one piece; pooled, no window outgrows the
// piece size by a rest of minPieceBytes, no window of a range is shorter
// than minPieceBytes unless the range is, and a short range that is not its
// read's last shares a piece with the next range's first window.
func FuzzCutCoversEveryRange(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint32(1<<20))
	f.Add([]byte{0, 0, 0}, uint8(4), uint32(0))
	f.Add([]byte{1, 0, 32, 2, 255, 255}, uint8(4), uint32(1<<20))
	f.Add([]byte{2, 10, 0, 1, 0, 9, 0, 0, 0, 3, 0, 0, 2, 255, 0, 1, 255, 255}, uint8(3), uint32(5000))
	f.Add([]byte{1, 0, 40, 0, 0, 0, 2, 100, 0}, uint8(0), uint32(0))
	zero := make([]byte, 4<<20) // the ranges' buffers: cut reads lengths only
	f.Fuzz(func(t *testing.T, spec []byte, width uint8, filler uint32) {
		// spec is triples (kind, hi, lo): kind%4 0 an empty range, 1 one
		// under minPieceBytes, 2 a long one, 3 the start of a new read.
		xs := []*extentRead{{name: "r0"}}
		for i := 0; i+2 < len(spec) && i < 3*64; i += 3 {
			v := int64(spec[i+1])<<8 | int64(spec[i+2])
			x := xs[len(xs)-1]
			switch spec[i] % 4 {
			case 0:
				x.bufs = append(x.bufs, zero[:0])
			case 1:
				x.bufs = append(x.bufs, zero[:v%minPieceBytes])
			case 2:
				x.bufs = append(x.bufs, zero[:minPieceBytes+v*16])
			case 3:
				xs = append(xs, &extentRead{name: fmt.Sprintf("r%d", len(xs))})
			}
		}
		xs = append(xs, &extentRead{name: "filler", bufs: [][]byte{zero[:int64(filler)%int64(len(zero))]}})
		var total int64
		for _, x := range xs {
			x.offs, x.bad = make([]int64, len(x.bufs)), make([]bool, len(x.bufs))
			total += x.cost()
		}
		each := reads{width: int(width % 9)}
		size := min(max((total+int64(each.width)-1)/max(int64(each.width), 1), minPieceBytes), maxPieceBytes)

		ps := each.pieces(xs)
		byRead := make(map[*extentRead][]*piece)
		var order []*extentRead
		for _, p := range ps {
			var bytes int64
			for _, w := range p.ws {
				bytes += w.hi - w.lo
			}
			if bytes != p.bytes {
				t.Fatalf("%s: a piece costs %d B, its windows hold %d", p.x.name, p.bytes, bytes)
			}
			if len(byRead[p.x]) == 0 {
				order = append(order, p.x)
			}
			byRead[p.x] = append(byRead[p.x], p)
		}
		if len(order) != len(xs) {
			t.Fatalf("%d of %d reads have pieces", len(order), len(xs))
		}
		for i, x := range xs {
			if order[i] != x {
				t.Fatalf("the pieces of %s come out of read order", x.name)
			}
			cut := byRead[x]
			if each.width == 0 && len(cut) != 1 {
				t.Fatalf("inline, %s is %d pieces, want 1", x.name, len(cut))
			}
			if x.left != len(cut) {
				t.Fatalf("%s waits for %d pieces, was cut into %d", x.name, x.left, len(cut))
			}
			var ws []window
			pieceOf := make(map[window]int)
			for j, p := range cut {
				for _, w := range p.ws {
					ws = append(ws, w)
					pieceOf[w] = j
				}
			}
			r, at := 0, int64(0) // the next byte due: range r, offset at
			for _, w := range ws {
				n := int64(len(x.bufs[w.r]))
				switch {
				case w.r == r && w.lo == at && w.hi == n && n == 0:
					r, at = r+1, 0
				case w.r == r && w.lo == at && w.lo < w.hi && w.hi <= n:
					if at = w.hi; at == n {
						r, at = r+1, 0
					}
				default:
					t.Fatalf("%s: window %+v, want the next from range %d at %d (%d-byte ranges)", x.name, w, r, at, len(x.bufs))
				}
				if each.width > 0 && (w.hi-w.lo >= size+minPieceBytes || w.hi-w.lo < min(n, minPieceBytes)) {
					t.Fatalf("%s: a %d-byte window of a %d-byte range, pieces of %d", x.name, w.hi-w.lo, n, size)
				}
			}
			if r != len(x.bufs) {
				t.Fatalf("%s: the windows end in range %d of %d", x.name, r, len(x.bufs))
			}
			for i, w := range ws {
				short := int64(len(x.bufs[w.r])) < minPieceBytes && w.r < len(x.bufs)-1
				if each.width > 0 && short && pieceOf[w] != pieceOf[ws[i+1]] {
					t.Fatalf("%s: short range %d does not ride with range %d", x.name, w.r, w.r+1)
				}
			}
		}
	})
}

// TestCheckShortHeaderSaysWhy: a file check whose file is shorter than an
// RHDF header fails, and its verdict carries the header read's own error.
func TestCheckShortHeaderSaysWhy(t *testing.T) {
	fsys := rt.NewMemFS()
	writeAll(t, fsys, "short.rhdf", []byte("RHDF"))
	e := FileEntry{Name: "short.rhdf", Size: 4}
	xs := checkReads([]FileEntry{e}, []int64{0})
	reads{fsys: fsys}.readExtents(xs, nil)
	if err := xs[0].checkDir(e); !errors.Is(err, io.EOF) {
		t.Errorf("check of a 4-byte file: %v, want the header read's EOF", err)
	}
}
