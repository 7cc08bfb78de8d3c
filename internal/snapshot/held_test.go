package snapshot

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// A Reader holds the last commit record it loaded whole and serves it while
// the head manifest reads as the same bytes. These tests count what a
// Reader opens (countFS) to pin what a held chain may serve and what it may
// not.

// onReader runs f on a one-rank channel world over fsys with one Reader
// whose counters land in reg under "r.".
func onReader(t *testing.T, fsys rt.FS, reg *metrics.Registry, f func(ctx mpi.Ctx, rd *Reader)) {
	t.Helper()
	err := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) error {
		f(ctx, NewReader(ctx, ReaderConfig{Metrics: reg, Prefix: "r."}))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readPanes is one restart round of panes 1..3 of the fluid window of base:
// each delivered pane's encoded datasets, and the round's mode.
func readPanes(rd *Reader, base string) (map[int][]byte, ReadMode) {
	got := make(map[int][]byte)
	mode := rd.Read(ReadRequest{Base: base, Window: "fluid", Attr: "all", Wanted: map[int]bool{1: true, 2: true, 3: true},
		Deliver: func(pane int, sets []roccom.IOSet) { got[pane] = roccom.EncodeIOSets(sets) }})
	return got, mode
}

// chainCounts returns the Reader's chain_loads and chain_reuses.
func chainCounts(reg *metrics.Registry) (loads, reuses int64) {
	c := reg.Snapshot().Counters
	return c["r.chain_loads"], c["r.chain_reuses"]
}

// commitFull writes and commits a full generation of panes 1..3 under base.
func commitFull(t *testing.T, fsys rt.FS, base string, val float64) {
	t.Helper()
	writeChainGen(t, fsys, base, []int{1, 2, 3}, val)
	if _, err := Commit(fsys, base, 0, val); err != nil {
		t.Fatal(err)
	}
}

// flipByte flips one bit of the byte at off of the named file.
func flipByte(t *testing.T, fsys rt.FS, name string, off int64) {
	t.Helper()
	blob := readAll(t, fsys, name)
	blob[off] ^= 0x10
	writeAll(t, fsys, name, blob)
}

// dataOnly fails unless opened is the head manifest of base followed by
// data files alone.
func dataOnly(t *testing.T, opened []string, base string) {
	t.Helper()
	if len(opened) < 2 || opened[0] != base+Suffix {
		t.Fatalf("round opened %v, want %s first, then data files", opened, base+Suffix)
	}
	for _, name := range opened[1:] {
		if !strings.HasSuffix(name, ".rhdf") {
			t.Fatalf("round opened %v: %s is not a data file", opened, name)
		}
	}
}

// TestReaderServesHeldChain: a second round of the same base reads the head
// manifest and then data files only — no lower manifest, no catalog — and
// delivers what the first round did.
func TestReaderServesHeldChain(t *testing.T) {
	fsys := &countFS{FS: rt.NewMemFS()}
	head := commitChain(t, fsys)[2]
	reg := metrics.New()
	onReader(t, fsys, reg, func(_ mpi.Ctx, rd *Reader) {
		first, mode := readPanes(rd, head)
		if mode != ReadIndexed || len(first) != 3 {
			t.Fatalf("first round: mode %d, %d panes", mode, len(first))
		}
		var second map[int][]byte
		dataOnly(t, fsys.opens(func() { second, mode = readPanes(rd, head) }), head)
		if mode != ReadIndexed || !maps.EqualFunc(first, second, slices.Equal) {
			t.Fatalf("second round: mode %d, delivered other panes than the first", mode)
		}
	})
	if loads, reuses := chainCounts(reg); loads != 1 || reuses != 1 {
		t.Fatalf("chain_loads %d, chain_reuses %d; want 1 and 1", loads, reuses)
	}
}

// TestWalkJudgmentThenReadLoadsCatalogsOnce: the restore walk judging a
// generation through a Reader and the round that restores it on the same
// Reader read each catalog blob, and each lower link's manifest, once.
func TestWalkJudgmentThenReadLoadsCatalogsOnce(t *testing.T) {
	fsys := &countFS{FS: rt.NewMemFS()}
	bases := commitChain(t, fsys)
	reg := metrics.New()
	onReader(t, fsys, reg, func(ctx mpi.Ctx, rd *Reader) {
		opened := fsys.opens(func() {
			base, err := rd.Restore(ctx.Comm(), "out/", func(base string) error {
				if got, _ := readPanes(rd, base); len(got) != 3 {
					return fmt.Errorf("restored %d of 3 panes", len(got))
				}
				return nil
			})
			if err != nil || base != bases[2] {
				t.Fatalf("restored %q (%v), want %s", base, err, bases[2])
			}
		})
		count := make(map[string]int)
		for _, name := range opened {
			count[name]++
		}
		for i, b := range bases {
			if n := count[b+".catalog"]; n != 1 {
				t.Errorf("catalog of %s read %d times, want once", b, n)
			}
			if n := count[b+Suffix]; i < 2 && n != 1 {
				t.Errorf("manifest of lower link %s read %d times, want once", b, n)
			}
		}
	})
	if loads, reuses := chainCounts(reg); loads != 1 || reuses != 1 {
		t.Fatalf("chain_loads %d, chain_reuses %d; want 1 (the judgment) and 1 (the round)", loads, reuses)
	}
}

// TestReaderReloadsRecommittedHead: a head committed again under the same
// name with other bytes is reloaded, and the round delivers the new bytes —
// a full head and a delta head alike.
func TestReaderReloadsRecommittedHead(t *testing.T) {
	for _, delta := range []bool{false, true} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			fsys := &countFS{FS: rt.NewMemFS()}
			head := commitChain(t, fsys)[0]
			recommit := func(val float64) {
				commitFull(t, fsys, head, val)
			}
			if delta {
				head = "out/snap000020"
				recommit = func(val float64) {
					writeChainGen(t, fsys, head, []int{1, 3}, val)
					if _, err := CommitChained(fsys, head, 20, val,
						&ChainInfo{Base: "out/snap000010", Depth: 2, Panes: map[string][]int{"fluid": {1, 2, 3}}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			reg := metrics.New()
			onReader(t, fsys, reg, func(ctx mpi.Ctx, rd *Reader) {
				before, _ := readPanes(rd, head)
				recommit(99)
				after, _ := readPanes(rd, head)
				fresh, _ := readPanes(NewReader(ctx, ReaderConfig{}), head)
				if maps.EqualFunc(before, after, slices.Equal) {
					t.Fatal("the round after the re-commit delivered the old bytes")
				}
				if !maps.EqualFunc(after, fresh, slices.Equal) || len(after) != 3 {
					t.Fatalf("held Reader delivered %d panes, a fresh one %d, not the same bytes", len(after), len(fresh))
				}
			})
			if loads, reuses := chainCounts(reg); loads != 2 || reuses != 0 {
				t.Fatalf("chain_loads %d, chain_reuses %d; want 2 and 0", loads, reuses)
			}
		})
	}
}

// TestReaderHoldsOnlyWholeChains: a delta with an unloadable link, a full
// head whose index is derived, and a base with no commit record are never
// held — the next round loads again, reading what the first read.
func TestReaderHoldsOnlyWholeChains(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, fsys rt.FS) string
		mode  ReadMode
	}{
		{"unloadable-link", func(t *testing.T, fsys rt.FS) string {
			bases := commitChain(t, fsys)
			flipByte(t, fsys, bases[0]+".catalog", 20)
			return bases[2]
		}, ReadFailed},
		{"derived-head", func(t *testing.T, fsys rt.FS) string {
			commitFull(t, fsys, "out/snap000000", 1)
			if err := fsys.Remove("out/snap000000.catalog"); err != nil {
				t.Fatal(err)
			}
			return "out/snap000000"
		}, ReadScan},
		{"uncommitted", func(t *testing.T, fsys rt.FS) string {
			writeChainGen(t, fsys, "out/snap000000", []int{1, 2, 3}, 1)
			return "out/snap000000"
		}, ReadScan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := &countFS{FS: rt.NewMemFS()}
			base := tc.setup(t, fsys.FS)
			reg := metrics.New()
			onReader(t, fsys, reg, func(_ mpi.Ctx, rd *Reader) {
				var rounds [2][]string
				for i := range rounds {
					rounds[i] = fsys.opens(func() {
						if _, mode := readPanes(rd, base); mode != tc.mode {
							t.Fatalf("round %d: mode %d, want %d", i, mode, tc.mode)
						}
					})
				}
				if !slices.Equal(rounds[0], rounds[1]) {
					t.Fatalf("second round opened %v, first %v: want the same load again", rounds[1], rounds[0])
				}
			})
			if loads, reuses := chainCounts(reg); loads != 2 || reuses != 0 {
				t.Fatalf("chain_loads %d, chain_reuses %d; want 2 and 0", loads, reuses)
			}
		})
	}
}

// TestReaderDifferentBaseReplacesHeld: a Reader holds one chain; loading
// another base replaces it, so coming back to the first loads it again.
func TestReaderDifferentBaseReplacesHeld(t *testing.T) {
	fsys := &countFS{FS: rt.NewMemFS()}
	commitFull(t, fsys, "out/snap000000", 1)
	commitFull(t, fsys, "out/snap000010", 2)
	reg := metrics.New()
	onReader(t, fsys, reg, func(_ mpi.Ctx, rd *Reader) {
		for _, base := range []string{"out/snap000000", "out/snap000010", "out/snap000000"} {
			if opened := fsys.opens(func() { readPanes(rd, base) }); !slices.Contains(opened, base+".catalog") {
				t.Fatalf("round of %s opened %v: no catalog, want a load", base, opened)
			}
		}
		dataOnly(t, fsys.opens(func() { readPanes(rd, "out/snap000000") }), "out/snap000000")
	})
	if loads, reuses := chainCounts(reg); loads != 3 || reuses != 1 {
		t.Fatalf("chain_loads %d, chain_reuses %d; want 3 and 1", loads, reuses)
	}
}

// TestHeldChainIsTheRecordAsLoaded is the documented case: a held chain is
// the commit record as the process first loaded it, so damage after that
// load to a lower link's manifest or catalog does not change its restores —
// a fresh Reader fails the same round — while every payload it reads is
// still CRC-checked.
func TestHeldChainIsTheRecordAsLoaded(t *testing.T) {
	fsys := &countFS{FS: rt.NewMemFS()}
	bases := commitChain(t, fsys)
	head := bases[2]
	bit := payloadBit(t, fsys, bases[1], bases[1]+"_s000.rhdf") // pane 2 resolves to snap000010
	onReader(t, fsys, metrics.New(), func(ctx mpi.Ctx, rd *Reader) {
		want, _ := readPanes(rd, head)
		flipByte(t, fsys, bases[0]+".catalog", 20)
		flipByte(t, fsys, bases[1]+Suffix, 3)
		if got, mode := readPanes(rd, head); mode != ReadIndexed || !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("held round: mode %d, %d panes; want the first round's 3", mode, len(got))
		}
		if got, mode := readPanes(NewReader(ctx, ReaderConfig{}), head); mode != ReadFailed || len(got) != 0 {
			t.Fatalf("fresh round: mode %d, %d panes; want a failed round", mode, len(got))
		}
		flipByte(t, fsys, bases[1]+"_s000.rhdf", bit/8)
		got, _ := readPanes(rd, head)
		if _, ok := got[2]; ok || len(got) != 2 {
			t.Fatalf("held round delivered panes %v after pane 2's payload was damaged, want 1 and 3", slices.Sorted(maps.Keys(got)))
		}
	})
}

// TestReaderPaneUniverse: the universe a Reader answers is a fresh Reader's.
// Cold, it reads what a fresh Reader reads — a delta's manifest, a full
// generation's manifest and catalog — and holds the full generation, so the
// round after it reads the head manifest and data files only; warm (after a
// round of the base) it reads the head manifest alone.
func TestReaderPaneUniverse(t *testing.T) {
	fsys := &countFS{FS: rt.NewMemFS()}
	bases := commitChain(t, fsys)
	reg := metrics.New()
	onReader(t, fsys, reg, func(ctx mpi.Ctx, rd *Reader) {
		universe := func(base string) []string {
			want, err := NewReader(ctx, ReaderConfig{}).PaneUniverse(base, "fluid")
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			opened := fsys.opens(func() { got, err = rd.PaneUniverse(base, "fluid") })
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("universe of %s: %v (%v), a fresh Reader says %v", base, got, err, want)
			}
			return opened
		}
		if opened := universe(bases[2]); !slices.Equal(opened, []string{bases[2] + Suffix}) {
			t.Fatalf("cold delta universe opened %v, want its manifest alone", opened)
		}
		if opened := universe(bases[0]); !slices.Equal(opened, []string{bases[0] + Suffix, bases[0] + ".catalog"}) {
			t.Fatalf("cold full universe opened %v, want its manifest and catalog", opened)
		}
		dataOnly(t, fsys.opens(func() { readPanes(rd, bases[0]) }), bases[0])
		readPanes(rd, bases[2])
		if opened := universe(bases[2]); !slices.Equal(opened, []string{bases[2] + Suffix}) {
			t.Fatalf("warm delta universe opened %v, want its manifest alone", opened)
		}
	})
	if loads, reuses := chainCounts(reg); loads != 2 || reuses != 2 {
		t.Fatalf("chain_loads %d, chain_reuses %d; want 2 and 2", loads, reuses)
	}
}

// FuzzReaderReuseMatchesFresh holds a long-lived Reader to a fresh one over
// random sequences of commits (full or delta), re-commits of a name, damage
// (a manifest, a catalog or a data file), prunes and reads: every round and
// every pane universe the long-lived Reader answers is exactly what a fresh
// Reader answers, delivering the same bytes and failing exactly when it
// fails. The one allowed difference is the documented one: it served a held
// chain while a lower link's manifest, or a link's catalog, no longer reads
// as the bytes the chain was loaded from.
func FuzzReaderReuseMatchesFresh(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 4, 3, 2, 1, 0, 2, 1, 0, 3, 1, 9, 2, 1, 0, 5, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 4, 5, 1, 9, 6, 2, 2, 0, 3, 3, 20, 2, 2, 0, 3, 4, 7, 2, 2, 0, 4, 0, 0, 2, 2, 0})
	f.Add([]byte{0, 1, 0, 2, 1, 0, 5, 1, 0, 2, 1, 0, 0, 2, 0, 2, 2, 0, 2, 1, 0, 3, 2, 40, 2, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*48 {
			return
		}
		fsys := rt.NewMemFS()
		gen := func(i byte) string { return fmt.Sprintf("out/snap%06d", 10*int(i%4)) }
		val := 0.0
		// commit writes gen g anew, a full generation or a delta on base
		// rewriting the panes whose bits are set in mask.
		commit := func(g, base string, mask byte) {
			val++
			if base == "" {
				commitFull(t, fsys, g, val)
				return
			}
			var panes []int
			for id := 1; id <= 3; id++ {
				if mask&(1<<id) != 0 {
					panes = append(panes, id)
				}
			}
			depth := 1
			if m, err := Load(fsys, base); err == nil {
				depth = m.ChainDepth + 1
			}
			writeChainGen(t, fsys, g, panes, val)
			if _, err := CommitChained(fsys, g, 0, val, &ChainInfo{Base: base, Depth: depth,
				Panes: map[string][]int{"fluid": {1, 2, 3}}}); err != nil {
				t.Fatal(err)
			}
		}
		onReader(t, fsys, metrics.New(), func(ctx mpi.Ctx, rd *Reader) {
			// loaded is what the chain rd holds was loaded from: every
			// link's catalog and every lower link's manifest, as read then.
			loaded := make(map[string][]byte)
			stale := func() bool {
				for name, b := range loaded {
					if now, err := hdf.ReadFile(fsys, name); err != nil || !bytes.Equal(now, b) {
						return true
					}
				}
				return false
			}
			// served runs call, a call on rd for base, and reports whether
			// the documented case excuses a difference: rd served the chain
			// it already held, and that chain is stale.
			served := func(base string, call func()) bool {
				before := rd.held
				excused := before != nil && before[0].Base == base && stale()
				call()
				if rd.held != nil && before != nil && &rd.held[0] == &before[0] {
					return excused
				}
				clear(loaded)
				for i, g := range rd.held {
					loaded[g.Manifest.Catalog.Name], _ = hdf.ReadFile(fsys, g.Manifest.Catalog.Name)
					if i > 0 {
						loaded[g.Base+Suffix], _ = hdf.ReadFile(fsys, g.Base+Suffix)
					}
				}
				return false
			}
			for ; len(ops) >= 3; ops = ops[3:] {
				op, a, b := ops[0]%6, ops[1], ops[2]
				g := gen(a)
				switch op {
				case 0: // a full generation, or one committed again
					commit(g, "", 0)
				case 1: // a delta, or one committed again
					if base := gen(a / 4); base != g {
						commit(g, base, b)
					}
				case 2: // a round and a pane universe
					var long, fresh map[int][]byte
					var lMode, fMode ReadMode
					exempt := served(g, func() { long, lMode = readPanes(rd, g) })
					fresh, fMode = readPanes(NewReader(ctx, ReaderConfig{}), g)
					if !exempt && (lMode != fMode || !maps.EqualFunc(long, fresh, slices.Equal)) {
						t.Fatalf("round of %s: long-lived Reader mode %d panes %v, fresh mode %d panes %v",
							g, lMode, slices.Sorted(maps.Keys(long)), fMode, slices.Sorted(maps.Keys(fresh)))
					}
					var lIDs []int
					var lErr error
					exempt = served(g, func() { lIDs, lErr = rd.PaneUniverse(g, "fluid") })
					fIDs, fErr := NewReader(ctx, ReaderConfig{}).PaneUniverse(g, "fluid")
					if !exempt && (!slices.Equal(lIDs, fIDs) || (lErr == nil) != (fErr == nil)) {
						t.Fatalf("universe of %s: long-lived Reader %v (%v), fresh %v (%v)", g, lIDs, lErr, fIDs, fErr)
					}
				case 3: // damage
					name := []string{g + Suffix, g + ".catalog", g + "_s000.rhdf"}[b%3]
					if blob, err := hdf.ReadFile(fsys, name); err == nil && len(blob) > 0 {
						blob[int(b/3)*7%len(blob)] ^= 0x20
						writeAll(t, fsys, name, blob)
					}
				case 4:
					if _, err := Prune(fsys, "out/", 1+int(a%3)); err != nil {
						t.Fatal(err)
					}
				case 5: // commit a committed generation again, as it was
					if m, err := Load(fsys, g); err == nil {
						commit(g, m.BaseGeneration, b)
					}
				}
			}
		})
	})
}
