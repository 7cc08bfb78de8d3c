package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// writeChainGen writes one server-style snapshot file holding the given
// panes of the "fluid" window (proper pane dataset names, so the committed
// catalog indexes them and chain resolution can find them).
func writeChainGen(t *testing.T, fsys rt.FS, base string, panes []int, val float64) string {
	t.Helper()
	name := base + "_s000.rhdf"
	w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range panes {
		dsName := roccom.PanePrefix("fluid", id) + "p"
		if err := w.CreateDataset(dsName, hdf.F64, []int64{2}, nil,
			hdf.F64Bytes([]float64{val, val + float64(id)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return name
}

// commitChain builds the canonical three-link test chain:
//
//	snap000000  full   panes {1,2,3}
//	snap000010  delta  rewrites {2}     (universe {1,2,3})
//	snap000020  delta  rewrites {1,3}   (universe {1,2,3})
//
// and returns the bases oldest-first.
func commitChain(t *testing.T, fsys rt.FS) []string {
	t.Helper()
	universe := map[string][]int{"fluid": {1, 2, 3}}
	writeChainGen(t, fsys, "out/snap000000", []int{1, 2, 3}, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeChainGen(t, fsys, "out/snap000010", []int{2}, 10)
	if _, err := CommitChained(fsys, "out/snap000010", 10, 1,
		&ChainInfo{Base: "out/snap000000", Depth: 1, Panes: universe}); err != nil {
		t.Fatal(err)
	}
	writeChainGen(t, fsys, "out/snap000020", []int{1, 3}, 20)
	if _, err := CommitChained(fsys, "out/snap000020", 20, 2,
		&ChainInfo{Base: "out/snap000010", Depth: 2, Panes: universe}); err != nil {
		t.Fatal(err)
	}
	return []string{"out/snap000000", "out/snap000010", "out/snap000020"}
}

func TestLoadChainResolvesNewestFirst(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)

	chain, err := LoadChain(fsys, bases[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain has %d links, want 3", len(chain))
	}
	for i, want := range []string{bases[2], bases[1], bases[0]} {
		if chain[i].Base != want {
			t.Fatalf("link %d = %q, want %q (newest first)", i, chain[i].Base, want)
		}
		if chain[i].Catalog == nil {
			t.Fatalf("link %d has no catalog", i)
		}
	}

	// Each pane must resolve to the newest link that rewrote it: 1 and 3 to
	// the head, 2 to the middle delta, nothing to the full base.
	wanted := map[int]bool{1: true, 2: true, 3: true}
	assign := catalog.ResolvePanes(ChainCatalogs(chain), "fluid", wanted)
	flat := make([]map[int]bool, len(assign))
	copy(flat, assign)
	if !assign[0][1] || !assign[0][3] || len(assign[0]) != 2 {
		t.Fatalf("head assignment %v, want panes 1 and 3", assign[0])
	}
	if !assign[1][2] || len(assign[1]) != 1 {
		t.Fatalf("middle assignment %v, want pane 2 only", assign[1])
	}
	if len(assign[2]) != 0 {
		t.Fatalf("full base assignment %v, want empty (all panes shadowed)", assign[2])
	}

	// A full generation's chain is itself.
	single, err := LoadChain(fsys, bases[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 {
		t.Fatalf("full generation chain %d links, want 1", len(single))
	}
}

func TestLoadChainRefusesBrokenLinks(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)

	// A mid-chain record that lost its catalog: the chain cannot resolve
	// (nothing is derived across generations).
	rec := readAll(t, fsys, bases[1]+Suffix)
	cutCatalog(t, fsys, bases[1])
	if _, err := LoadChain(fsys, bases[2]); err == nil {
		t.Fatal("LoadChain accepted a chain with a record short its catalog")
	}
	// Another link's record in its place: loadable, but not the one the
	// head pins.
	writeAll(t, fsys, bases[1]+Suffix, readAll(t, fsys, bases[0]+Suffix))
	if _, err := LoadChain(fsys, bases[2]); err == nil {
		t.Fatal("LoadChain accepted another generation's record as a link")
	}
	// The link's own record, committed again with other bytes: it is not
	// the record the head pins.
	other := slices.Clone(rec)
	binary.LittleEndian.PutUint64(other[recordHeader+2+len(bases[1]):], 99) // its epoch
	reseal(other)
	writeAll(t, fsys, bases[1]+Suffix, other)
	if _, err := LoadChain(fsys, bases[2]); !errors.Is(err, hdf.ErrChecksum) {
		t.Fatalf("LoadChain accepted a link the head does not pin: %v", err)
	}
	writeAll(t, fsys, bases[1]+Suffix, rec)
	if _, err := LoadChain(fsys, bases[2]); err != nil {
		t.Fatalf("restored record, LoadChain still fails: %v", err)
	}

	// Missing base record.
	if err := fsys.Remove(bases[0] + Suffix); err != nil {
		t.Fatal(err)
	}
	chain, err := LoadChain(fsys, bases[2])
	if err == nil {
		t.Fatal("LoadChain accepted a chain with an uncommitted base")
	}
	if len(chain) != 2 {
		t.Fatalf("a chain failing at its third link returned %d links, want the two that loaded", len(chain))
	}
}

// TestLoadChainCycleGuard: a record names its whole chain, each link pinned,
// so no chain can come back to a generation: a commit that would close a
// cycle is refused, and so is a record that lists a link twice or itself.
func TestLoadChainCycleGuard(t *testing.T) {
	fsys := rt.NewMemFS()
	writeChainGen(t, fsys, "out/snap000000", []int{1}, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	writeChainGen(t, fsys, "out/snap000010", []int{1}, 0)
	if _, err := CommitChained(fsys, "out/snap000010", 0, 0,
		&ChainInfo{Base: "out/snap000000", Depth: 1, Panes: map[string][]int{"fluid": {1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := CommitChained(fsys, "out/snap000000", 0, 0,
		&ChainInfo{Base: "out/snap000010", Depth: 2, Panes: map[string][]int{"fluid": {1}}}); err == nil {
		t.Fatal("committed a delta whose chain holds it")
	}
	m, err := Load(fsys, "out/snap000010")
	if err != nil {
		t.Fatal(err)
	}
	_, at := catalogAt(t, fsys, "out/snap000010")
	for _, links := range [][]Link{{m.Links[0], m.Links[0]}, {m.Links[0], m.link()}} {
		loop := *m
		loop.Links = links
		buf := encodeRecord(&loop, readAll(t, fsys, "out/snap000010"+Suffix)[at:])
		if _, _, err := DecodeRecord(buf); err == nil || !strings.Contains(err.Error(), "twice or to itself") {
			t.Fatalf("record with links %v: %v, want a cycle complaint", links, err)
		}
	}
}

func TestCommitChainedValidation(t *testing.T) {
	fsys := rt.NewMemFS()
	writeChainGen(t, fsys, "out/snap000010", []int{1}, 0)
	if _, err := CommitChained(fsys, "out/snap000010", 0, 0,
		&ChainInfo{Base: "", Depth: 1}); err == nil {
		t.Fatal("committed a delta with no base")
	}
	if _, err := CommitChained(fsys, "out/snap000010", 0, 0,
		&ChainInfo{Base: "out/snap000010", Depth: 1}); err == nil {
		t.Fatal("committed a delta chained to itself")
	}
	if _, err := CommitChained(fsys, "out/snap000010", 0, 0,
		&ChainInfo{Base: "out/snap000000", Depth: 0}); err == nil {
		t.Fatal("committed a delta with depth 0")
	}
	// A delta on a generation with no record could never restore.
	if _, err := CommitChained(fsys, "out/snap000010", 0, 0,
		&ChainInfo{Base: "out/snap000000", Depth: 1}); err == nil {
		t.Fatal("committed a delta on an uncommitted base")
	}
	writeChainGen(t, fsys, "out/snap000000", []int{1}, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := CommitChained(fsys, "out/snap000010", 0, 0,
		&ChainInfo{Base: "out/snap000000", Depth: 2}); err == nil {
		t.Fatal("committed a delta at another depth than its base's next")
	}
	// An empty delta — nothing dirty — is legal: its state lives in the
	// chain.
	if _, err := CommitChained(fsys, "out/empty000020", 20, 2,
		&ChainInfo{Base: "out/snap000000", Depth: 1, Panes: map[string][]int{"fluid": {1}}}); err != nil {
		t.Fatalf("empty delta refused: %v", err)
	}
	m, err := Load(fsys, "out/empty000020")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 0 || m.ChainDepth != 1 {
		t.Fatalf("empty delta manifest %+v", m)
	}
}

func TestPaneUniverseOnDeltas(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)

	// The head delta's files hold only panes 1 and 3; the universe must
	// still be the manifest's recorded {1,2,3}.
	ids, err := universeOn(t, fsys, bases[2], "fluid")
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(ids) || fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("delta universe %v, want [1 2 3]", ids)
	}
	// Unknown window on a delta is an error, not an empty success.
	if _, err := universeOn(t, fsys, bases[2], "nope"); err == nil {
		t.Fatal("universe of unknown window succeeded")
	}
	// Full generations still answer from the catalog.
	ids, err = universeOn(t, fsys, bases[0], "fluid")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("full universe %v", ids)
	}
}

func TestRestoreFallsBackPastBrokenChain(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)

	// Break the chain under the head: the full base loses its manifest,
	// so the head and middle deltas are unrestorable too.
	if err := fsys.Remove(bases[0] + Suffix); err != nil {
		t.Fatal(err)
	}
	tried := []string{}
	_, err := restoreOn(t, fsys, "out/", func(base string) error {
		tried = append(tried, base)
		return nil
	}, nil)
	if err == nil {
		t.Fatal("restore succeeded with every chain link broken")
	}
	if len(tried) != 0 {
		t.Fatalf("restore attempted %v, want chain verification to refuse all", tried)
	}

	// Recommit the full base: the whole chain is restorable again and the
	// newest delta wins.
	if _, err := Commit(fsys, bases[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := restoreOn(t, fsys, "out/", func(base string) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != bases[2] {
		t.Fatalf("restored %q, want the chain head %q", got, bases[2])
	}
}

func TestPrunePinsChainAncestry(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys) // full, delta, delta — newest is a delta

	// Retaining just the head must pin its whole ancestry: nothing goes.
	removed, err := Prune(fsys, "out/", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("prune removed chain links %v", removed)
	}

	// Add two newer full generations; retaining them un-pins the chain.
	writeChainGen(t, fsys, "out/snap000030", []int{1, 2, 3}, 30)
	if _, err := Commit(fsys, "out/snap000030", 30, 3); err != nil {
		t.Fatal(err)
	}
	writeChainGen(t, fsys, "out/snap000040", []int{1, 2, 3}, 40)
	if _, err := Commit(fsys, "out/snap000040", 40, 4); err != nil {
		t.Fatal(err)
	}
	removed, err = Prune(fsys, "out/", 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(removed) != fmt.Sprint(bases) {
		t.Fatalf("removed %v, want the whole old chain %v (sorted)", removed, bases)
	}
	if !sort.StringsAreSorted(removed) {
		t.Fatalf("removed %v not sorted", removed)
	}
	gens, _ := Generations(fsys, "out/")
	if len(gens) != 2 {
		t.Fatalf("survivors %+v", gens)
	}
}

// TestPruneRerunnable: a prune interrupted mid-removal (or racing a
// concurrent prune) leaves some artifacts already gone; re-running must
// succeed, not fail on fs.ErrNotExist.
func TestPruneRerunnable(t *testing.T) {
	fsys := rt.NewMemFS()
	for i, b := range []string{"out/snap000000", "out/snap000010", "out/snap000020"} {
		writeChainGen(t, fsys, b, []int{1}, float64(i))
		if _, err := Commit(fsys, b, int64(i*10), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash window: the oldest generation's record and one
	// data file are already gone, a staged residue of it is not.
	writeAll(t, fsys, "out/snap000000_s001.rhdf"+hdf.TmpSuffix, []byte("staged"))
	if err := fsys.Remove("out/snap000000" + Suffix); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("out/snap000000_s000.rhdf"); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(fsys, "out/", 1)
	if err != nil {
		t.Fatalf("re-run prune failed: %v", err)
	}
	if fmt.Sprint(removed) != "[out/snap000000 out/snap000010]" {
		t.Fatalf("removed %v, want both old generations, sorted", removed)
	}
	if names, _ := fsys.List("out/snap000000"); len(names) != 0 {
		t.Fatalf("residue after prune: %v", names)
	}
}

func TestFsckChainBroken(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)

	// Flip a payload bit in the full base: it scrubs CORRUPT, and the delta
	// that still resolves panes 1 and 3 to it is CHAIN-BROKEN — its own
	// files are fine, but it cannot restore. The head rewrites panes 1 and 3
	// and takes pane 2 from the middle delta: it needs nothing of the base's.
	if err := faults.FlipBit(fsys, bases[0]+"_s000.rhdf", int64(hdf.HeaderSize()*8+3)); err != nil {
		t.Fatal(err)
	}
	reports, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, r := range reports {
		verdicts[r.Base] = r.Verdict
	}
	if verdicts[bases[0]] != VerdictCorrupt {
		t.Fatalf("base verdict %q, want CORRUPT", verdicts[bases[0]])
	}
	if verdicts[bases[1]] != VerdictChainBroken || verdicts[bases[2]] != VerdictOK {
		t.Fatalf("delta verdicts %v, want the middle CHAIN-BROKEN and the head OK", verdicts)
	}
	if Clean(reports) {
		t.Fatal("Clean() true with a broken chain")
	}
	out := Format(reports)
	if !strings.Contains(out, VerdictChainBroken) || !strings.Contains(out, "chain-broken") {
		t.Fatalf("Format lacks the chain verdict:\n%s", out)
	}

	// The broken-link report names the bad base and the panes it costs.
	for _, r := range reports {
		if r.Verdict != VerdictChainBroken {
			continue
		}
		found := false
		for _, f := range r.Files {
			if f.Status == "chain-broken" && f.Name == bases[0] && strings.Contains(f.Detail, "no intact copy of fluid:1, fluid:3 (2 in all)") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s chain-broken report does not name %s and its panes: %+v", r.Base, bases[0], r.Files)
		}
	}
}

func TestFsckChainBrokenByMissingBase(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)
	// Remove the middle delta entirely — files and record.
	names, _ := fsys.List(bases[1])
	for _, n := range names {
		if err := fsys.Remove(n); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		switch r.Base {
		case bases[2]:
			if r.Verdict != VerdictChainBroken {
				t.Fatalf("head verdict %q, want CHAIN-BROKEN", r.Verdict)
			}
		case bases[0]:
			if r.Verdict != VerdictOK {
				t.Fatalf("full base verdict %q, want OK", r.Verdict)
			}
		}
	}
}

// TestRepairLeavesDamagedRecord: a commit record has no copy to rebuild it
// from, so Repair leaves a damaged one as it is: the full base stays
// CORRUPT and the deltas on it CHAIN-BROKEN, and the scrub is not clean.
func TestRepairLeavesDamagedRecord(t *testing.T) {
	fsys := rt.NewMemFS()
	bases := commitChain(t, fsys)
	cutCatalog(t, fsys, bases[0])
	for _, scrub := range []func(rt.FS, string) ([]GenReport, error){Fsck, Repair} {
		reports, err := scrub(fsys, "out/")
		if err != nil {
			t.Fatal(err)
		}
		verdicts := map[string]string{}
		for _, r := range reports {
			verdicts[r.Base] = r.Verdict
		}
		if verdicts[bases[0]] != VerdictCorrupt || verdicts[bases[1]] != VerdictChainBroken || verdicts[bases[2]] != VerdictChainBroken {
			t.Fatalf("verdicts %v, want the base CORRUPT and both deltas CHAIN-BROKEN", verdicts)
		}
		if Clean(reports) {
			t.Fatal("Clean() true with a damaged record")
		}
	}
}

// TestFsckCatalogMissingVsMismatch: a generation with no commit record is
// UNCOMMITTED — crash residue, never a restart candidate — and one whose
// record lost its catalog, or lies, is CORRUPT.
func TestFsckCatalogMissingVsMismatch(t *testing.T) {
	fsys := rt.NewMemFS()
	writeChainGen(t, fsys, "out/snap000000", []int{1, 2}, 0)
	if _, err := Commit(fsys, "out/snap000000", 0, 0); err != nil {
		t.Fatal(err)
	}
	rec := readAll(t, fsys, "out/snap000000"+Suffix)

	// No record: UNCOMMITTED.
	if err := fsys.Remove("out/snap000000" + Suffix); err != nil {
		t.Fatal(err)
	}
	reports, err := Fsck(fsys, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Verdict != VerdictUncommitted {
		t.Fatalf("verdict %q, want UNCOMMITTED", reports[0].Verdict)
	}

	// The record short its catalog, or with its last byte flipped: CORRUPT.
	flipped := slices.Clone(rec)
	flipped[len(flipped)-1] ^= 0xff
	for _, bad := range [][]byte{rec[:len(rec)-1], flipped} {
		writeAll(t, fsys, "out/snap000000"+Suffix, bad)
		reports, err = Fsck(fsys, "out/")
		if err != nil {
			t.Fatal(err)
		}
		if reports[0].Verdict != VerdictCorrupt || Clean(reports) {
			t.Fatalf("verdict %q, want CORRUPT for a damaged record", reports[0].Verdict)
		}
	}
}

func readAll(t *testing.T, fsys rt.FS, name string) []byte {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func writeAll(t *testing.T, fsys rt.FS, name string, blob []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 0 {
		if _, err := f.WriteAt(blob, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
