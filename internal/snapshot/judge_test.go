package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/stats"
)

// The scrub, the restore walk and the derived index judge a committed
// generation one way. These tests write real pane state (roccom windows over
// mesh blocks), damage it, and restore it through the real read path — a
// Reader and a Receiver on a one-rank channel world — so "the scrub predicts
// the restore" is checked against what a restart actually delivers.

const judgePanes = 4 // panes 1..4; server s's file holds the panes with (id-1)%2 == s

// judgeWindow returns an empty "fluid" window with the pressure attribute
// declared, ready to receive restored panes.
func judgeWindow(t *testing.T) *roccom.Window {
	t.Helper()
	w, err := roccom.New().NewWindow("fluid")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1}); err != nil {
		t.Fatal(err)
	}
	return w
}

// judgeState is a window holding every pane and, per generation, the
// encoded state a restore of that generation must reproduce — and what the
// test wrote where, the record restores models a restart from.
type judgeState struct {
	w      *roccom.Window
	want   map[string]map[int][]byte // base → pane → roccom.EncodeIOSets of the pane
	last   map[int][]byte
	order  []string                    // bases, oldest first
	parent map[string]string           // base → the generation a delta resolves against
	files  map[string]map[string][]int // base → file (every copy) → panes it holds
}

func newJudgeState(t *testing.T) *judgeState {
	t.Helper()
	w := judgeWindow(t)
	blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.4, Length: 1, BR: 1, BT: judgePanes, BZ: 1, NodesPerBlock: 24,
	}, 1, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := w.RegisterPane(b.ID, b); err != nil {
			t.Fatal(err)
		}
	}
	return &judgeState{w: w, want: map[string]map[int][]byte{}, last: map[int][]byte{},
		parent: map[string]string{}, files: map[string]map[string][]int{}}
}

// write gives the panes new pressure values, writes them as server files of
// base — with R = 2 each file also as a byte-identical replica homed at the
// other server — and commits the generation, a delta on chain when set.
func (s *judgeState) write(t *testing.T, fsys rt.FS, base string, panes []int, val float64, r int, chain *ChainInfo) {
	t.Helper()
	files := map[int][][]roccom.IOSet{}
	held := map[int][]int{}
	for _, id := range panes {
		p, _ := s.w.Pane(id)
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = val + float64(id) + float64(i)/8
		}
		sets, err := roccom.PaneIOSets(s.w, p, "all")
		if err != nil {
			t.Fatal(err)
		}
		s.last[id] = roccom.EncodeIOSets(sets)
		files[(id-1)%2] = append(files[(id-1)%2], sets)
		held[(id-1)%2] = append(held[(id-1)%2], id)
	}
	s.order = append(s.order, base)
	s.files[base] = map[string][]int{}
	if chain != nil {
		s.parent[base] = chain.Base
	}
	for srv, panes := range files {
		name := fmt.Sprintf("%s_s%03d.rhdf", base, srv)
		writeSets(t, fsys, name, panes)
		s.files[base][name] = held[srv]
		if r == 2 {
			replica := fmt.Sprintf("%s_s%03dr1.rhdf", base, 1-srv)
			writeAll(t, fsys, replica, readAll(t, fsys, name))
			s.files[base][replica] = held[srv]
		}
	}
	var err error
	if chain == nil {
		_, err = Commit(fsys, base, 0, val)
	} else {
		_, err = CommitChained(fsys, base, 0, val, chain)
	}
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[int][]byte, len(s.last))
	for id, b := range s.last {
		state[id] = b
	}
	s.want[base] = state
}

// writeSets writes one RHDF file holding the given panes' datasets.
func writeSets(t *testing.T, fsys rt.FS, name string, panes [][]roccom.IOSet) {
	t.Helper()
	w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, sets := range panes {
		for _, d := range sets {
			if err := w.CreateDataset(d.Name, d.Type, d.Dims, d.Attrs, d.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// deltaOn is the chain info of a delta on base at depth.
func deltaOn(base string, depth int) *ChainInfo {
	return &ChainInfo{Base: base, Depth: depth, Panes: map[string][]int{"fluid": {1, 2, 3, 4}}}
}

// readBase restores every pane of the generation under base through the
// real read path, as one restart rank, and returns the window it filled.
func readBase(t *testing.T, rd *Reader, base string) (*roccom.Window, error) {
	w := judgeWindow(t)
	rcv := NewReceiver(w, "all", []int{1, 2, 3, 4})
	rd.Read(ReadRequest{Base: base, Window: "fluid", Attr: "all", Wanted: rcv.Wanted(),
		Deliver: func(_ int, sets []roccom.IOSet) { rcv.Deliver(sets) }})
	return w, rcv.Complete(base)
}

// restoreReal runs the restore walk under prefix with the real read path as
// its attempt, and returns the base it restored and the window it filled.
func restoreReal(t *testing.T, fsys rt.FS, prefix string) (base string, got *roccom.Window, err error) {
	t.Helper()
	base, got, _, err = restoreTried(t, fsys, prefix)
	return base, got, err
}

// restoreTried is restoreReal that also returns the bases the walk tried,
// in order. The walk runs under both drivers of its metadata reads — inline
// and on a 4-wide pool — and must try the same bases in the same order and
// restore the same one, bit-exact; the inline run's outcome is returned.
func restoreTried(t *testing.T, fsys rt.FS, prefix string) (base string, got *roccom.Window, tried []string, err error) {
	t.Helper()
	base, got, tried, err = restoreWith(t, fsys, prefix, ReaderConfig{})
	reg := metrics.New()
	pBase, pGot, pTried, pErr := restoreWith(t, fsys, prefix, ReaderConfig{Workers: 4, Metrics: reg})
	if reg.Counter("iosched.read.tasks").Value() == 0 {
		t.Fatal("the pooled walk ran no scheduler tasks")
	}
	if pBase != base || fmt.Sprint(pTried) != fmt.Sprint(tried) || fmt.Sprint(pErr) != fmt.Sprint(err) {
		t.Fatalf("pooled walk tried %v and restored %q (%v), inline tried %v and restored %q (%v)", pTried, pBase, pErr, tried, base, err)
	}
	if got != nil {
		checkState(t, pGot, stateOf(t, got))
	}
	return base, got, tried, err
}

// restoreWith is one restore walk whose metadata reads go through a Reader
// configured by walk; the attempts read inline.
func restoreWith(t *testing.T, fsys rt.FS, prefix string, walk ReaderConfig) (base string, got *roccom.Window, tried []string, err error) {
	t.Helper()
	runErr := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) error {
		rd := NewReader(ctx, ReaderConfig{})
		base, err = NewReader(ctx, walk).Restore(ctx.Comm(), prefix, func(b string) (err error) {
			tried = append(tried, b)
			got, err = readBase(t, rd, b)
			return err
		})
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return base, got, tried, err
}

// stateOf encodes every pane of w, as checkState compares them.
func stateOf(t *testing.T, w *roccom.Window) map[int][]byte {
	t.Helper()
	state := make(map[int][]byte)
	for _, id := range w.PaneIDs() {
		p, _ := w.Pane(id)
		sets, err := roccom.PaneIOSets(w, p, "all")
		if err != nil {
			t.Fatal(err)
		}
		state[id] = roccom.EncodeIOSets(sets)
	}
	return state
}

// readExplicit reads the generation under base with no walk in front, as an
// explicit-base restart does.
func readExplicit(t *testing.T, fsys rt.FS, base string) (got *roccom.Window, err error) {
	t.Helper()
	runErr := mpi.NewChanWorld(fsys, 1).Run(1, func(ctx mpi.Ctx) error {
		got, err = readBase(t, NewReader(ctx, ReaderConfig{}), base)
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got, err
}

// checkState fails unless w holds exactly the panes want encodes.
func checkState(t *testing.T, w *roccom.Window, want map[int][]byte) {
	t.Helper()
	for id, b := range want {
		p, ok := w.Pane(id)
		if !ok {
			t.Fatalf("pane %d not restored", id)
		}
		sets, err := roccom.PaneIOSets(w, p, "all")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(roccom.EncodeIOSets(sets), b) {
			t.Fatalf("pane %d restored with other bytes than committed", id)
		}
	}
	if w.NumPanes() != len(want) {
		t.Fatalf("restored %d panes, want %d", w.NumPanes(), len(want))
	}
}

// promised reports whether a deep scrub report promises that the restore
// walk restores the generation: it is committed, and the scrub's pass of the
// walk's rule left no "chain-broken" line on it.
func promised(rep GenReport) bool {
	if rep.Verdict == VerdictUncommitted {
		return false
	}
	for _, f := range rep.Files {
		if f.Status == "chain-broken" {
			return false
		}
	}
	return true
}

// restores is the model the restore is checked against, built from what the
// test recorded alone — which panes each generation wrote to which files —
// and hit, the artifacts the damage hit: a restart of head returns every
// pane when head and every link below it kept their manifests, every link
// but a full head (which derives its index from its files) kept its
// catalog, and each pane has a file no damage hit in the newest link that
// wrote it.
func (s *judgeState) restores(head string, hit map[string]bool) bool {
	intact, resolved := map[int]bool{}, map[int]bool{}
	for g := head; g != ""; g = s.parent[g] {
		if hit[g+Suffix] || (hit[g+".catalog"] && (g != head || s.parent[g] != "")) {
			return false
		}
		wrote := map[int]bool{}
		for name, panes := range s.files[g] {
			for _, id := range panes {
				if !resolved[id] {
					wrote[id], intact[id] = true, intact[id] || !hit[name]
				}
			}
		}
		for id := range wrote {
			resolved[id] = true
		}
	}
	for id := 1; id <= judgePanes; id++ {
		if !intact[id] {
			return false
		}
	}
	return true
}

// payloadBit returns the bit in the middle of the first stored dataset of
// file name, located through the generation's committed catalog.
func payloadBit(t *testing.T, fsys rt.FS, base, name string) int64 {
	t.Helper()
	chain, err := LoadChain(fsys, base)
	if err != nil {
		t.Fatal(err)
	}
	cat := chain[0].Catalog
	for _, e := range cat.Entries {
		if off, length := e.Extent(); cat.Files[e.File] == name && length > 0 {
			return (off + length/2) * 8
		}
	}
	t.Fatalf("no payload of %s in its catalog", name)
	return 0
}

// TestScrubPredictsRestore: whatever the damage, the restore walk tries
// exactly the generations, and restores bit-exact the one, that a per-pane
// model of the tree predicts from what the test wrote where and what the
// damage hit (restores) — the walk's file check does not see payload damage,
// the read that follows does — and that restored generation is the newest
// the deep scrub promises. The damage lands on the full generation
// snap000010, over an intact older full snap000000: as the head itself, as
// the base of a depth-2 delta head (deltas rewriting pane 2, then pane 4), or
// as the base of a depth-1 delta rewriting panes 1 and 3 (delta13) or pane 2
// (delta2). Server file _s000 holds panes 1 and 3, and at R = 2 its copy is
// _s001r1.
func TestScrubPredictsRestore(t *testing.T) {
	const target = "out/snap000010"
	remove := func(suffixes ...string) func(*testing.T, rt.FS) {
		return func(t *testing.T, fsys rt.FS) {
			for _, sfx := range suffixes {
				if err := fsys.Remove(target + sfx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	type damage struct {
		name    string
		hits    []string // suffixes of the artifacts of target it damages
		payload bool     // only a payload read sees it
		do      func(t *testing.T, fsys rt.FS)
	}
	damages := []damage{
		{"clean", nil, false, func(*testing.T, rt.FS) {}},
		{"data-file-removed", []string{"_s000.rhdf"}, false, remove("_s000.rhdf")},
		{"payload-bit-flipped", []string{"_s000.rhdf"}, true, func(t *testing.T, fsys rt.FS) {
			if err := faults.FlipBit(fsys, target+"_s000.rhdf", payloadBit(t, fsys, target, target+"_s000.rhdf")); err != nil {
				t.Fatal(err)
			}
		}},
		{"directory-bit-flipped", []string{"_s000.rhdf"}, false, func(t *testing.T, fsys rt.FS) {
			size := int64(len(readAll(t, fsys, target+"_s000.rhdf")))
			if err := faults.FlipBit(fsys, target+"_s000.rhdf", (size-2)*8+5); err != nil {
				t.Fatal(err)
			}
		}},
		{"catalog-bit-flipped", []string{".catalog"}, false, func(t *testing.T, fsys rt.FS) {
			if err := faults.FlipBit(fsys, target+".catalog", 12*8+3); err != nil {
				t.Fatal(err)
			}
		}},
		{"catalog-removed", []string{".catalog"}, false, remove(".catalog")},
		{"base-manifest-removed", []string{Suffix}, false, remove(Suffix)},
		{"catalog-and-data-file-removed", []string{".catalog", "_s000.rhdf"}, false, remove(".catalog", "_s000.rhdf")},
	}
	type row struct {
		r    int
		head string
		d    damage
	}
	var rows []row
	for _, r := range []int{1, 2} {
		for _, head := range []string{"full", "delta"} {
			for _, d := range damages {
				rows = append(rows, row{r, head, d})
			}
		}
	}
	rows = append(rows,
		row{1, "delta13", damages[1]},
		row{1, "delta13", damages[2]},
		row{2, "delta2", damage{"data-file-and-copy-removed", []string{"_s000.rhdf", "_s001r1.rhdf"}, false,
			remove("_s000.rhdf", "_s001r1.rhdf")}},
	)
	deltas := map[string][][]int{"delta": {{2}, {4}}, "delta13": {{1, 3}}, "delta2": {{2}}}
	for _, row := range rows {
		r, d := row.r, row.d
		t.Run(fmt.Sprintf("R%d/%s/%s", r, row.head, d.name), func(t *testing.T) {
			fsys := rt.NewMemFS()
			s := newJudgeState(t)
			s.write(t, fsys, "out/snap000000", []int{1, 2, 3, 4}, 0, r, nil)
			s.write(t, fsys, target, []int{1, 2, 3, 4}, 10, r, nil)
			for i, panes := range deltas[row.head] {
				base := fmt.Sprintf("out/snap%06d", 20+10*i)
				s.write(t, fsys, base, panes, float64(20+10*i), r, deltaOn(s.order[len(s.order)-1], i+1))
			}
			d.do(t, fsys)

			hit := map[string]bool{}
			for _, sfx := range d.hits {
				hit[target+sfx] = true
			}
			seen := hit // what the walk's file check sees
			if d.payload {
				seen = nil
			}
			want, wantTried := "", []string(nil)
			for i := len(s.order) - 1; i >= 0 && want == ""; i-- {
				if g := s.order[i]; s.restores(g, seen) {
					wantTried = append(wantTried, g)
					if s.restores(g, hit) {
						want = g
					}
				}
			}

			reports, err := Fsck(fsys, "out/")
			if err != nil {
				t.Fatal(err)
			}
			scrubbed := ""
			for _, rep := range reports {
				if promised(rep) {
					scrubbed = rep.Base
					break
				}
			}
			base, got, tried, err := restoreTried(t, fsys, "out/")
			if err != nil {
				t.Fatalf("restore: %v\n%s", err, Format(reports))
			}
			if base != want || fmt.Sprint(tried) != fmt.Sprint(wantTried) {
				t.Fatalf("walk tried %v and restored %s, the model says %v and %s\n%s", tried, base, wantTried, want, Format(reports))
			}
			if base != scrubbed {
				t.Fatalf("restored %s, the scrub promised %s\n%s", base, scrubbed, Format(reports))
			}
			for _, g := range tried {
				if _, err := universeOn(t, fsys, g, "fluid"); err != nil {
					t.Fatalf("the walk accepted %s, PaneUniverse refuses it: %v", g, err)
				}
			}
			checkState(t, got, s.want[base])
		})
	}
}

// TestIndexRefusesUnpinnedFile: a full generation whose catalog is damaged
// and whose _s000.rhdf was replaced by another valid RHDF holding the same
// panes is indexed without the impostor, and the index says why. The walk
// falls back past it at R = 1, an explicit-base read comes up short instead
// of delivering the impostor's bytes, and at R = 2 the generation restores
// bit-exact from the replica.
func TestIndexRefusesUnpinnedFile(t *testing.T) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", r), func(t *testing.T) {
			const base, victim = "out/snap000010", "out/snap000010_s000.rhdf"
			fsys := rt.NewMemFS()
			s := newJudgeState(t)
			s.write(t, fsys, "out/snap000000", []int{1, 2, 3, 4}, 0, r, nil)
			impostor := readAll(t, fsys, "out/snap000000_s000.rhdf") // panes 1 and 3, older values
			s.write(t, fsys, base, []int{1, 2, 3, 4}, 10, r, nil)
			if err := faults.FlipBit(fsys, base+".catalog", 12*8+3); err != nil {
				t.Fatal(err)
			}
			writeAll(t, fsys, victim, impostor)

			m, err := Load(fsys, base)
			if err != nil {
				t.Fatal(err)
			}
			cat, derived, err := indexOf(fsys, m)
			if !derived || !errors.Is(err, hdf.ErrChecksum) || !strings.Contains(err.Error(), victim) {
				t.Fatalf("Index: derived %v, err %v; want a derived index and the impostor's crc error", derived, err)
			}
			for _, name := range cat.Files {
				if name == victim {
					t.Fatalf("derived index holds %s, which the manifest does not pin", victim)
				}
			}
			if ids, err := universeOn(t, fsys, base, "fluid"); r == 1 && err == nil {
				t.Fatal("PaneUniverse answered from an index short the impostor")
			} else if r == 2 && fmt.Sprint(ids) != "[1 2 3 4]" {
				t.Fatalf("PaneUniverse at R = 2: %v, %v; want [1 2 3 4] through the impostor's indexed replica", ids, err)
			}

			got, err := readExplicit(t, fsys, base)
			restored, walked, walkErr := restoreReal(t, fsys, "out/")
			if walkErr != nil {
				t.Fatal(walkErr)
			}
			if r == 1 {
				if !errors.Is(err, ErrIncompleteRestart) {
					t.Fatalf("explicit-base read of %s: %v, want ErrIncompleteRestart", base, err)
				}
				if restored != "out/snap000000" {
					t.Fatalf("walk restored %s, want the older intact generation", restored)
				}
				checkState(t, walked, s.want[restored])
				return
			}
			if err != nil {
				t.Fatalf("explicit-base read at R = 2: %v", err)
			}
			checkState(t, got, s.want[base])
			if restored != base {
				t.Fatalf("walk restored %s, want %s from its replica", restored, base)
			}
			checkState(t, walked, s.want[base])
		})
	}
}

// TestFsckReplicatedChainNotBroken: a replicated base that lost a primary
// breaks no chain — the restore walk goes through it and the read path serves
// its panes from the replica — so the delta on it scrubs OK while the base
// scrubs CORRUPT, under both scrub depths, and repair makes the base REPAIRED.
func TestFsckReplicatedChainNotBroken(t *testing.T) {
	const base, delta = "out/snap000010", "out/snap000020"
	fsys := rt.NewMemFS()
	s := newJudgeState(t)
	s.write(t, fsys, base, []int{1, 2, 3, 4}, 10, 2, nil)
	s.write(t, fsys, delta, []int{2}, 20, 2, deltaOn(base, 1))
	if err := fsys.Remove(base + "_s000.rhdf"); err != nil {
		t.Fatal(err)
	}
	verdicts := func(reports []GenReport) map[string]string {
		v := map[string]string{}
		for _, r := range reports {
			v[r.Base] = r.Verdict
		}
		return v
	}
	for name, scrub := range map[string]func(rt.FS, string) ([]GenReport, error){"deep": Fsck, "quick": FsckQuick} {
		reports, err := scrub(fsys, "out/")
		if err != nil {
			t.Fatal(err)
		}
		if v := verdicts(reports); v[delta] != VerdictOK || v[base] != VerdictCorrupt {
			t.Fatalf("%s scrub: %v, want the delta OK and the base CORRUPT\n%s", name, v, Format(reports))
		}
		if Clean(reports) {
			t.Fatalf("%s scrub: Clean() true with a CORRUPT base", name)
		}
	}
	restored, got, err := restoreReal(t, fsys, "out/")
	if err != nil || restored != delta {
		t.Fatalf("restore: %s, %v; want the delta", restored, err)
	}
	checkState(t, got, s.want[delta])

	reports, err := Repair(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts(reports); v[delta] != VerdictOK || v[base] != VerdictRepaired || !Clean(reports) {
		t.Fatalf("repair: %v, want the base REPAIRED and the delta OK\n%s", v, Format(reports))
	}
}
