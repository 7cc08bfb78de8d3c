package snapshot

import (
	"fmt"
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
	files, dirs := chain[0].Manifest.Files, dirBytes(chain)
	costs := make([]int64, len(files))
	for i, e := range files {
		costs[i] = dirs[e.Name]
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
