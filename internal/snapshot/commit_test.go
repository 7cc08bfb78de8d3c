package snapshot

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// publishFile writes one server-style snapshot file holding panes of the
// "fluid" window and returns what its writer reports of it.
func publishFile(t *testing.T, fsys rt.FS, name string, panes []int, val float64) catalog.Report {
	t.Helper()
	w, err := hdf.Create(fsys, name, rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range panes {
		if err := w.CreateDataset(roccom.PanePrefix("fluid", id)+"p", hdf.F64, []int64{2}, nil,
			hdf.F64Bytes([]float64{val, val + float64(id)})); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := w.Publish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := catalog.Record(pub.Raw())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// soloComm returns the communicator of a one-process world, for use on the
// test's own goroutine: with no peers its collectives never wait.
func soloComm(t *testing.T) mpi.Comm {
	t.Helper()
	var comm mpi.Comm
	if err := mpi.NewChanWorld(rt.NewMemFS(), 1).Run(1, func(ctx mpi.Ctx) error {
		comm = ctx.Comm()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return comm
}

// tree is every file of fsys and its bytes.
func tree(t *testing.T, fsys rt.FS) map[string]string {
	t.Helper()
	names, err := fsys.List("")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(names))
	for _, name := range names {
		b, err := hdf.ReadFile(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(b)
	}
	return files
}

// diffTrees describes how two trees differ, "" when they are identical.
func diffTrees(a, b map[string]string) string {
	var out []string
	for name, data := range a {
		if other, ok := b[name]; !ok {
			out = append(out, "only in the first: "+name)
		} else if other != data {
			out = append(out, "bytes differ: "+name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			out = append(out, "only in the second: "+name)
		}
	}
	return strings.Join(out, "; ")
}

// truncatingComm cuts the last byte off rank 1's part of every Gather rank
// 0 receives: a report damaged on the wire.
type truncatingComm struct{ mpi.Comm }

func (c truncatingComm) Gather(root int, data ...[]byte) [][]byte {
	parts := c.Comm.Gather(root, data...)
	if len(parts) > 1 && len(parts[1]) > 0 {
		parts[1] = parts[1][:len(parts[1])-1]
	}
	return parts
}

// TestCommitRefusesDamagedReport: when a rank's report cannot be decoded,
// every rank's Commit fails, so rank 0 must not write the generation's
// catalog or manifest behind them — while the collective chain hook still
// runs on every rank.
func TestCommitRefusesDamagedReport(t *testing.T) {
	fsys := rt.NewMemFS()
	var errs [2]error
	var hooks [2]int
	var pubs [2]catalog.Report
	for rank := range pubs {
		pubs[rank] = publishFile(t, fsys, fmt.Sprintf("m/g0_p%05d.rhdf", rank), []int{rank}, 1)
	}
	err := mpi.NewChanWorld(fsys, 1).Run(2, func(ctx mpi.Ctx) error {
		comm := truncatingComm{ctx.Comm()}
		rank := comm.Rank()
		p := NewPending(comm, fsys, rt.NewWallClock(), 1, nil)
		p.Begin("m/g0", 0, 0)
		calls := 0
		errs[rank] = p.Commit(nil, pubs[rank:rank+1], func(*PendingGen) *ChainInfo {
			calls++
			comm.Barrier()
			return nil
		})
		hooks[rank] = calls
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if err == nil {
			t.Errorf("rank %d: Commit succeeded over a damaged report", rank)
		}
		if hooks[rank] != 1 {
			t.Errorf("rank %d: chain hook ran %d times, want 1", rank, hooks[rank])
		}
	}
	if _, err := Load(fsys, "m/g0"); err == nil {
		t.Error("the generation committed behind a failed gather")
	}
	if names, _ := fsys.List("m/g0."); len(names) != 0 {
		t.Errorf("commit records written behind a failed gather: %v", names)
	}
}

// genSpec is one generation of a commit-round table: its panes go to
// base_s000.rhdf, and to a replica base_s000r1.rhdf when replicated; a
// delta names the generation it chains to.
type genSpec struct {
	base       string
	panes      []int
	chainTo    string
	depth      int
	replicated bool
}

func (g genSpec) write(t *testing.T, fsys rt.FS, val float64) []catalog.Report {
	pubs := []catalog.Report{publishFile(t, fsys, g.base+"_s000.rhdf", g.panes, val)}
	if g.replicated {
		pubs = append(pubs, publishFile(t, fsys, g.base+"_s000r1.rhdf", g.panes, val))
	}
	return pubs
}

func (g genSpec) chain() *ChainInfo {
	if g.chainTo == "" {
		return nil
	}
	return &ChainInfo{Base: g.chainTo, Depth: g.depth, Panes: map[string][]int{"fluid": {1, 2, 3}}}
}

// round is one Sync of a commit-round table: before changes the tree first
// (residue, an interrupted prune), then gens are written and committed.
type round struct {
	before func(t *testing.T, fsys rt.FS)
	gens   []genSpec
}

func full(base string) genSpec { return genSpec{base: base, panes: []int{1, 2, 3}} }

func delta(base, to string, depth int) genSpec {
	return genSpec{base: base, panes: []int{depth}, chainTo: to, depth: depth}
}

func touch(names ...string) func(*testing.T, rt.FS) {
	return func(t *testing.T, fsys rt.FS) {
		for _, name := range names {
			if err := hdf.PublishFile(fsys, name, []byte("residue")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCommitPruneMatchesPrune is the commit path's prune — one listing, the
// round's own catalogs and manifests added, the links it committed — against
// standalone CommitChained + Prune, which list and read every manifest: over
// every layout they must leave byte-identical trees after every round.
func TestCommitPruneMatchesPrune(t *testing.T) {
	g := func(i int) string { return fmt.Sprintf("out/snap%06d", 10*i) }
	cases := []struct {
		name   string
		retain int
		rounds []round
	}{
		{"plain", 2, []round{{gens: []genSpec{full(g(0))}}, {gens: []genSpec{full(g(1))}},
			{gens: []genSpec{full(g(2))}}, {gens: []genSpec{full(g(3)), full(g(4))}}}},
		{"pinned-delta-chain", 2, []round{{gens: []genSpec{full(g(0))}}, {gens: []genSpec{delta(g(1), g(0), 1)}},
			{gens: []genSpec{delta(g(2), g(1), 2)}}, {gens: []genSpec{full(g(3))}},
			{gens: []genSpec{delta(g(4), g(3), 1), delta(g(5), g(4), 2)}}}},
		{"replicated", 1, []round{{gens: []genSpec{{base: g(0), panes: []int{1, 2}, replicated: true}}},
			{gens: []genSpec{{base: g(1), panes: []int{1, 2}, replicated: true}}},
			{gens: []genSpec{{base: g(2), panes: []int{1, 2}, replicated: true}}}}},
		{"staged-residue", 2, []round{{gens: []genSpec{full(g(0))}}, {gens: []genSpec{full(g(1))}},
			{before: touch(g(0)+"_s001.rhdf"+hdf.TmpSuffix, g(0)+".catalog"+hdf.TmpSuffix,
				g(0)+Suffix+hdf.TmpSuffix, g(2)+".catalog"+hdf.TmpSuffix, g(2)+Suffix+hdf.TmpSuffix),
				gens: []genSpec{full(g(2))}},
			// g3 is committed over its staged residue and pruned in one round.
			{before: touch(g(5)+Suffix+hdf.TmpSuffix, g(3)+".catalog"+hdf.TmpSuffix, g(3)+Suffix+hdf.TmpSuffix),
				gens: []genSpec{full(g(3)), full(g(4))}}}},
		{"uncommitted-generation", 2, []round{{gens: []genSpec{full(g(0))}}, {gens: []genSpec{full(g(1))}},
			{before: func(t *testing.T, fsys rt.FS) { full(g(2)).write(t, fsys, 9) }, gens: []genSpec{full(g(3))}},
			{gens: []genSpec{full(g(4))}}}},
		{"half-pruned", 2, []round{{gens: []genSpec{full(g(0))}}, {gens: []genSpec{{base: g(1), panes: []int{1, 2}, replicated: true}}},
			{before: func(t *testing.T, fsys rt.FS) {
				for _, name := range []string{g(0) + Suffix, g(1) + Suffix, g(1) + "_s000.rhdf"} {
					if err := fsys.Remove(name); err != nil {
						t.Fatal(err)
					}
				}
			}, gens: []genSpec{full(g(2))}},
			{gens: []genSpec{full(g(3))}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comm := soloComm(t)
			viaCommit, viaPrune := &countFS{FS: rt.NewMemFS()}, rt.NewMemFS()
			reg := metrics.New()
			p := NewPending(comm, viaCommit, rt.NewWallClock(), tc.retain, reg)
			removed := 0
			for i, r := range tc.rounds {
				var published []catalog.Report
				for _, fsys := range []rt.FS{viaPrune, viaCommit} {
					if r.before != nil {
						r.before(t, fsys)
					}
					published = published[:0] // viaCommit's reports are the ones kept
					for k, gen := range r.gens {
						published = append(published, gen.write(t, fsys, float64(10*i+k))...)
					}
				}
				for k, gen := range r.gens {
					p.Begin(gen.base, int64(10*i+k), float64(i))
					if _, err := CommitChained(viaPrune, gen.base, int64(10*i+k), float64(i), gen.chain()); err != nil {
						t.Fatal(err)
					}
				}
				specs, lists := r.gens, viaCommit.lists
				if err := p.Commit(nil, published, func(pg *PendingGen) *ChainInfo {
					for _, s := range specs {
						if s.base == pg.Base {
							return s.chain()
						}
					}
					return nil
				}); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				if n := viaCommit.lists - lists; n != 1 {
					t.Errorf("round %d listed %d times, want 1", i, n)
				}
				gone, err := Prune(viaPrune, "out/", tc.retain)
				if err != nil {
					t.Fatal(err)
				}
				removed += len(gone)
				if d := diffTrees(tree(t, viaCommit), tree(t, viaPrune)); d != "" {
					t.Fatalf("round %d: the commit path's prune left another tree: %s", i, d)
				}
			}
			if removed == 0 {
				t.Fatal("no round pruned anything")
			}
			if len(viaCommit.blindRemoves) > 0 {
				t.Errorf("the commit path removed names that did not exist: %v", viaCommit.blindRemoves)
			}
			if got := reg.Snapshot().Counters["snapshot.commit.dirs_read"]; got != 0 {
				t.Errorf("snapshot.commit.dirs_read = %d, want 0", got)
			}
		})
	}
}

// TestPruneLinksStayBounded runs 40 generations through one Pending at
// retain 4 — all full, then full every 4 with delta chains between. The
// links it keeps are exactly the surviving generations, never more than
// the retained ones and their pinned chain, and it reads no manifest. A
// fresh Pending over the same tree, as a restarted run has, knows no links:
// it reads manifests, and leaves the same tree.
func TestPruneLinksStayBounded(t *testing.T) {
	const gens, retain = 40, 4
	for _, fullEvery := range []int{1, 4} {
		t.Run(fmt.Sprintf("full-every-%d", fullEvery), func(t *testing.T) {
			comm := soloComm(t)
			spec := func(i int) genSpec {
				base := fmt.Sprintf("out/snap%06d", i)
				if d := i % fullEvery; d > 0 {
					return delta(base, fmt.Sprintf("out/snap%06d", i-1), d)
				}
				return full(base)
			}
			commitOne := func(p *Pending, fsys rt.FS, i int) {
				g := spec(i)
				pubs := g.write(t, fsys, float64(i))
				p.Begin(g.base, int64(i), float64(i))
				if err := p.Commit(nil, pubs, func(*PendingGen) *ChainInfo { return g.chain() }); err != nil {
					t.Fatalf("generation %d: %v", i, err)
				}
			}
			kept, restarted := rt.NewMemFS(), rt.NewMemFS()
			reg := metrics.New()
			p := NewPending(comm, kept, rt.NewWallClock(), retain, reg)
			q := NewPending(comm, restarted, rt.NewWallClock(), retain, nil)
			for i := 0; i < gens; i++ {
				commitOne(p, kept, i)
				commitOne(q, restarted, i)
				survivors, err := Generations(kept, "out/")
				if err != nil {
					t.Fatal(err)
				}
				if len(p.links) != len(survivors) || len(p.links) > retain+fullEvery-1 {
					t.Fatalf("generation %d: %d links for %d survivors, bound %d", i, len(p.links), len(survivors), retain+fullEvery-1)
				}
			}
			if got := reg.Snapshot().Counters["snapshot.prune.manifests_read"]; got != 0 {
				t.Errorf("snapshot.prune.manifests_read = %d on a clean run, want 0", got)
			}

			reg2 := metrics.New()
			fresh := NewPending(comm, restarted, rt.NewWallClock(), retain, reg2)
			commitOne(p, kept, gens)
			commitOne(fresh, restarted, gens)
			if got := reg2.Snapshot().Counters["snapshot.prune.manifests_read"]; got == 0 {
				t.Error("a restarted Pending pruned without reading a manifest")
			}
			if d := diffTrees(tree(t, kept), tree(t, restarted)); d != "" {
				t.Errorf("the restarted Pending left another tree: %s", d)
			}
		})
	}
}

// countFS counts List calls, records each Remove of a name that did not
// exist, and records the name of every Open, in order, whether it succeeds
// or not.
type countFS struct {
	rt.FS
	lists        int
	blindRemoves []string

	mu     sync.Mutex // opens come from pool workers too
	opened []string
}

func (fs *countFS) Open(name string) (rt.File, error) {
	fs.mu.Lock()
	fs.opened = append(fs.opened, name)
	fs.mu.Unlock()
	return fs.FS.Open(name)
}

// opens runs f and returns the names it opened.
func (fs *countFS) opens(f func()) []string {
	fs.mu.Lock()
	n := len(fs.opened)
	fs.mu.Unlock()
	f()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return slices.Clone(fs.opened[n:])
}

func (fs *countFS) List(prefix string) ([]string, error) {
	fs.lists++
	return fs.FS.List(prefix)
}

func (fs *countFS) Remove(name string) error {
	err := fs.FS.Remove(name)
	if errors.Is(err, rt.ErrNotExist) {
		fs.blindRemoves = append(fs.blindRemoves, name)
	}
	return err
}

// TestCommitSeconds: rank 0 observes snapshot.commit_seconds once for each
// generation it commits; no other rank observes it.
func TestCommitSeconds(t *testing.T) {
	fsys := rt.NewMemFS()
	var pubs [2][]catalog.Report
	for rank := range pubs {
		for g := range 3 {
			pubs[rank] = append(pubs[rank], publishFile(t, fsys, fmt.Sprintf("m/g%d_p%05d.rhdf", g, rank), []int{rank}, 1))
		}
	}
	regs := [2]*metrics.Registry{metrics.New(), metrics.New()}
	err := mpi.NewChanWorld(fsys, 1).Run(2, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		p := NewPending(ctx.Comm(), fsys, ctx.Clock(), 0, regs[rank])
		for g := range 3 {
			p.Begin(fmt.Sprintf("m/g%d", g), int64(g), 0)
		}
		return p.Commit(nil, pubs[rank], nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, want := range []int64{3, 0} {
		if h := regs[rank].Snapshot().Histograms["snapshot.commit_seconds"]; h.Count != want || h.Sum < 0 {
			t.Errorf("rank %d observed %d commits (%g s), want %d", rank, h.Count, h.Sum, want)
		}
	}
}

// catalogWrites counts the bytes written to catalog blobs, staged or not.
type catalogWrites struct {
	rt.FS
	n atomic.Int64
}

func (fs *catalogWrites) Create(name string) (rt.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil || !strings.Contains(name, catalog.Suffix) {
		return f, err
	}
	return catalogFile{f, &fs.n}, nil
}

type catalogFile struct {
	rt.File
	n *atomic.Int64
}

func (f catalogFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.n.Add(int64(n))
	return n, err
}

// TestCommitCatalogBytes: snapshot.commit.catalog_bytes, on rank 0, is the
// catalog bytes its commits wrote, as the filesystem saw them, and each
// blob holds the file table and pane index alone: a few dozen bytes a file
// however many datasets the file holds.
func TestCommitCatalogBytes(t *testing.T) {
	fsys := &catalogWrites{FS: rt.NewMemFS()}
	var pubs [2][]catalog.Report
	for rank := range pubs {
		for g := range 3 {
			panes := make([]int, 200)
			for i := range panes {
				panes[i] = 1000*rank + i
			}
			pubs[rank] = append(pubs[rank], publishFile(t, fsys, fmt.Sprintf("m/g%d_p%05d.rhdf", g, rank), panes, 1))
		}
	}
	regs := [2]*metrics.Registry{metrics.New(), metrics.New()}
	err := mpi.NewChanWorld(fsys, 1).Run(2, func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Rank()
		p := NewPending(ctx.Comm(), fsys, ctx.Clock(), 0, regs[rank])
		for g := range 3 {
			p.Begin(fmt.Sprintf("m/g%d", g), int64(g), 0)
		}
		return p.Commit(nil, pubs[rank], nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	var pinned int64
	for g := range 3 {
		m, err := Load(fsys, fmt.Sprintf("m/g%d", g))
		if err != nil {
			t.Fatal(err)
		}
		pinned += m.Catalog.Size
	}
	got := regs[0].Counter("snapshot.commit.catalog_bytes").Value()
	if seen := fsys.n.Load(); got != seen || got != pinned || regs[1].Counter("snapshot.commit.catalog_bytes").Value() != 0 {
		t.Fatalf("rank 0 counted %d catalog bytes, rank 1 %d; the filesystem saw %d, the manifests pin %d",
			got, regs[1].Counter("snapshot.commit.catalog_bytes").Value(), seen, pinned)
	}
	if per := got / 3; per > 600 {
		t.Fatalf("a catalog of two 200-pane files is %d bytes, want at most 600", per)
	}
}
