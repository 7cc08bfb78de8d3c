package rocpanda

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/stats"
)

// listRHDF lists the committed snapshot files under prefix, excluding the
// commit manifests and any staged temporaries.
func listRHDF(t testing.TB, fs rt.FS, prefix string) []string {
	t.Helper()
	names, err := fs.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if strings.HasSuffix(n, ".rhdf") {
			out = append(out, n)
		}
	}
	return out
}

// rankRegistries hands every rank of a test world its own registry (each
// rank builds its own Config), which is how a test gets a per-server view
// of the counters. The zero value is ready to use.
type rankRegistries struct {
	mu   sync.Mutex
	regs map[int]*metrics.Registry
}

func (r *rankRegistries) forRank(rank int) *metrics.Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.regs == nil {
		r.regs = make(map[int]*metrics.Registry)
	}
	if r.regs[rank] == nil {
		r.regs[rank] = metrics.New()
	}
	return r.regs[rank]
}

// fresh hands out a registry of its own to a caller that cannot name its
// rank (a Config hook sees only the Config). Not to be mixed with forRank.
func (r *rankRegistries) fresh() *metrics.Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.regs == nil {
		r.regs = make(map[int]*metrics.Registry)
	}
	reg := metrics.New()
	r.regs[len(r.regs)] = reg
	return reg
}

// servers returns the counters of every rank that served a restart round.
func (r *rankRegistries) servers() []map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []map[string]int64
	for _, reg := range r.regs {
		c := reg.Snapshot().Counters
		if c["rocpanda.restart.catalog_hits"]+c["rocpanda.restart.catalog_fallbacks"] > 0 {
			out = append(out, c)
		}
	}
	return out
}

// total sums one counter over every rank.
func (r *rankRegistries) total(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, reg := range r.regs {
		n += reg.Counter(name).Value()
	}
	return n
}

// crashed returns the world rank and counters of the one server that died
// to an injected crash.
func (r *rankRegistries) crashed(t testing.TB) (rank int, counters map[string]int64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	found := 0
	for wr, reg := range r.regs {
		if c := reg.Snapshot().Counters; c["rocpanda.server.crashes"] > 0 {
			rank, counters = wr, c
			found++
		}
	}
	if found != 1 {
		t.Fatalf("%d servers recorded a crash, want 1", found)
	}
	return rank, counters
}

// buildWindow registers nblocks panes with deterministic data for a client
// rank (of the client communicator).
func buildWindow(t testing.TB, clientRank, nblocks int) *roccom.Window {
	return buildWindowNodes(t, clientRank, nblocks, 50)
}

// buildWindowNodes is buildWindow with nodes nodes per pane.
func buildWindowNodes(t testing.TB, clientRank, nblocks, nodes int) *roccom.Window {
	rc := roccom.New()
	w, err := rc.NewWindow("fluid")
	if err != nil {
		t.Fatal(err)
	}
	w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
	w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
	blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.4, Length: 1,
		BR: 1, BT: nblocks, BZ: 1, NodesPerBlock: nodes, Spread: 0.25,
	}, 1000*clientRank+1, stats.NewRNG(uint64(clientRank)+3))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		p, err := w.RegisterPane(b.ID, b)
		if err != nil {
			t.Fatal(err)
		}
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = float64(b.ID) + float64(i)*0.001
		}
		fl, _ := p.Array("flags")
		fl.I32[0] = int32(b.ID * 2)
	}
	return w
}

func checkWindow(clientRank int, w *roccom.Window) error {
	for _, id := range w.PaneIDs() {
		p, _ := w.Pane(id)
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			want := float64(id) + float64(i)*0.001
			if pr.F64[i] != want {
				return fmt.Errorf("client %d pane %d pressure[%d]=%v want %v", clientRank, id, i, pr.F64[i], want)
			}
		}
		fl, _ := p.Array("flags")
		if fl.I32[0] != int32(id*2) {
			return fmt.Errorf("client %d pane %d flags=%d", clientRank, id, fl.I32[0])
		}
	}
	return nil
}

// zeroWindow rebuilds the same panes but wipes the data, keeping the IDs
// (the restart wanted-list).
func zeroWindow(t testing.TB, clientRank, nblocks int) *roccom.Window {
	w := buildWindow(t, clientRank, nblocks)
	w.EachPane(func(p *roccom.Pane) {
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = 0
		}
		fl, _ := p.Array("flags")
		fl.I32[0] = 0
	})
	return w
}

func TestServerPlacement(t *testing.T) {
	got := serverRanks(512, 32, Spread)
	if got[0] != 0 || got[1] != 16 || got[31] != 496 {
		t.Fatalf("spread ranks %v", got[:3])
	}
	packed := serverRanks(12, 3, Packed)
	if fmt.Sprint(packed) != "[9 10 11]" {
		t.Fatalf("packed ranks %v", packed)
	}
}

// runPanda writes snapshots with one world layout and restarts with
// another server count, verifying data equality end to end on the real
// (goroutine) backend.
func TestWriteRestartDifferentServerCount(t *testing.T) {
	fs := rt.NewMemFS()
	const nClients = 6
	cfgW := Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true}

	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+2, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, cfgW)
		if err != nil {
			return err
		}
		if cl == nil {
			return nil // server rank, done
		}
		w := buildWindow(t, cl.Comm().Rank(), 3)
		if err := cl.WriteAttribute("ck/snap0100", w, "all", 1.0, 100); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		m := cl.Metrics()
		if m.WriteCalls != 1 || m.BytesOut == 0 {
			return fmt.Errorf("client metrics %+v", m)
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two server files, not one per client.
	names := listRHDF(t, fs, "ck/snap0100")
	if len(names) != 2 {
		t.Fatalf("snapshot files %v, want 2", names)
	}

	// Restart with 3 servers on a 9-rank world (different m and n).
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(9, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 3, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		// 6 clients again, same block partition.
		w := zeroWindow(t, cl.Comm().Rank(), 3)
		if err := cl.ReadAttribute("ck/snap0100", w, "all"); err != nil {
			return err
		}
		if err := checkWindow(cl.Comm().Rank(), w); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartWithRepartitionedBlocks(t *testing.T) {
	// Blocks written by 6 clients are read back by 3 clients, each
	// claiming two clients' worth of pane IDs — block migration between
	// runs, which the ID-based restart protocol must handle.
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(7, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("mig/s", w, "all", 0, 0); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		r := cl.Comm().Rank()
		// Claim the panes of original clients 2r and 2r+1.
		rc := roccom.New()
		w, _ := rc.NewWindow("fluid")
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
		for _, orig := range []int{2 * r, 2*r + 1} {
			src := buildWindow(t, orig, 2)
			for _, id := range src.PaneIDs() {
				p, _ := src.Pane(id)
				if _, err := w.RegisterPane(id, p.Block); err != nil {
					return err
				}
			}
		}
		if err := cl.ReadAttribute("mig/s", w, "all"); err != nil {
			return err
		}
		for _, id := range w.PaneIDs() {
			p, _ := w.Pane(id)
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				want := float64(id) + float64(i)*0.001
				if pr.F64[i] != want {
					return fmt.Errorf("pane %d not migrated correctly", id)
				}
			}
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiWindowSnapshot(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(5, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rc := roccom.New()
		fluid, _ := rc.NewWindow("fluid")
		fluid.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		solid, _ := rc.NewWindow("solid")
		solid.NewAttribute(roccom.AttrSpec{Name: "stress", Loc: roccom.ElemLoc, Type: hdf.F64, NComp: 1})
		blocks, _ := mesh.GenCylinder(mesh.CylinderSpec{
			RInner: 0.1, ROuter: 0.3, Length: 1, BR: 1, BT: 2, BZ: 1, NodesPerBlock: 40,
		}, 100*cl.Comm().Rank()+1, stats.NewRNG(5))
		fluid.RegisterPane(blocks[0].ID, blocks[0])
		tet, _ := mesh.Tetrahedralize(blocks[1])
		solid.RegisterPane(tet.ID, tet)

		// Both windows into the same snapshot base: one file per server.
		if err := cl.WriteAttribute("multi/s0", fluid, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.WriteAttribute("multi/s0", solid, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	names := listRHDF(t, fs, "multi/")
	if len(names) != 1 {
		t.Fatalf("files %v, want a single shared file", names)
	}
	// The file must contain both windows' datasets.
	r, err := hdf.Open(fs, names[0], rt.NewWallClock(), hdf.NullProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var haveFluid, haveSolid bool
	for _, n := range r.Names() {
		if len(n) > 7 && n[:7] == "/fluid/" {
			haveFluid = true
		}
		if len(n) > 7 && n[:7] == "/solid/" {
			haveSolid = true
		}
	}
	if !haveFluid || !haveSolid {
		t.Fatalf("windows missing from shared file: %v", r.Names())
	}
}

func TestWriteThroughVsActiveBufferingVisibleCost(t *testing.T) {
	// On a simulated platform with a slow filesystem, active buffering
	// must hide the disk time from the clients.
	run := func(active bool) (visible float64) {
		plat := cluster.Turing()
		plat.NoiseFrac = 0
		w := cluster.NewWorld(plat, 17)
		err := w.Run(9, func(ctx mpi.Ctx) error {
			cl, err := Init(ctx, Config{
				NumServers:      1,
				Profile:         hdf.HDF4Profile(),
				ActiveBuffering: active,
				MemcpyBW:        plat.MemcpyBW,
			})
			if err != nil {
				return err
			}
			if cl == nil {
				return nil
			}
			win := buildWindow(t, cl.Comm().Rank(), 4)
			for snap := 0; snap < 2; snap++ {
				if err := cl.WriteAttribute(fmt.Sprintf("s%d", snap), win, "all", 0, snap); err != nil {
					return err
				}
				ctx.Clock().Compute(3)
			}
			if err := cl.Sync(); err != nil {
				return err
			}
			if cl.Comm().Rank() == 0 {
				visible = cl.Metrics().VisibleWrite
			}
			return cl.Shutdown()
		})
		if err != nil {
			t.Fatal(err)
		}
		return visible
	}
	through := run(false)
	buffered := run(true)
	if buffered > through/3 {
		t.Fatalf("active buffering visible %.4fs vs write-through %.4fs; want >=3x reduction", buffered, through)
	}
}

func TestBufferOverflowDrainsGracefully(t *testing.T) {
	reg := metrics.New()
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(5, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:        1,
			Profile:           hdf.NullProfile(),
			ActiveBuffering:   true,
			BufferBudgetBytes: 1 << 10, // smaller than one block: every buffering overflows
			Metrics:           reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 4)
		for snap := 0; snap < 3; snap++ {
			if err := cl.WriteAttribute(fmt.Sprintf("ovf/s%d", snap), w, "all", 0, snap); err != nil {
				return err
			}
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if m.Counters["rocpanda.server.overflow_stalls"] == 0 {
		t.Fatal("tiny buffer never overflowed")
	}
	if written, buffered := m.Counters["rocpanda.server.blocks_written"], m.Counters["rocpanda.server.blocks_buffered"]; written != buffered {
		t.Fatalf("wrote %d of %d buffered blocks", written, buffered)
	}
	if peak := m.Gauges["rocpanda.server.buf_bytes_peak"]; peak > 96<<10 {
		t.Fatalf("buffer grew to %v despite capacity", peak)
	}
	// All three snapshots must be complete, readable files.
	names := listRHDF(t, fs, "ovf/")
	if len(names) != 3 {
		t.Fatalf("files %v", names)
	}
	for _, n := range names {
		r, err := hdf.Open(fs, n, rt.NewWallClock(), hdf.NullProfile())
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if r.NumDatasets() == 0 {
			t.Fatalf("%s is empty", n)
		}
		r.Close()
	}
}

func TestFileCountReduction(t *testing.T) {
	// The paper's 8:1 ratio claim: files per snapshot = servers, an 8x
	// reduction versus individual I/O.
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	const total = 18 // 16 clients + 2 servers
	err := world.Run(total, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		if cl.Comm().Size() != 16 {
			return fmt.Errorf("client comm size %d", cl.Comm().Size())
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("ratio/s", w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	names := listRHDF(t, fs, "ratio/")
	if len(names) != 2 {
		t.Fatalf("files %v, want 2 (one per server)", names)
	}
}

func TestSingleAttributeRestore(t *testing.T) {
	fs := rt.NewMemFS()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("attr/s", w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		// Wipe just pressure, read just pressure.
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] = 0
			}
		})
		if err := cl.ReadAttribute("attr/s", w, "pressure"); err != nil {
			return err
		}
		if err := checkWindow(cl.Comm().Rank(), w); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInitValidation(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		if _, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile()}); err == nil {
			return fmt.Errorf("2 servers on 2 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	world = mpi.NewChanWorld(rt.NewMemFS(), 1)
	err = world.Run(2, func(ctx mpi.Ctx) error {
		if _, err := Init(ctx, Config{Profile: hdf.NullProfile()}); err == nil {
			return fmt.Errorf("zero servers accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIOAfterShutdownFails(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		if err := cl.Shutdown(); err != nil {
			return err
		}
		if err := cl.Shutdown(); err != nil { // idempotent
			return err
		}
		w := buildWindow(t, cl.Comm().Rank(), 1)
		if err := cl.WriteAttribute("x", w, "all", 0, 0); err == nil {
			return fmt.Errorf("write after shutdown accepted")
		}
		if err := cl.Sync(); err == nil {
			return fmt.Errorf("sync after shutdown accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModuleLoadedThroughRoccom(t *testing.T) {
	world := mpi.NewChanWorld(rt.NewMemFS(), 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rc := roccom.New()
		if err := rc.LoadModule(cl.Module(), "RocpandaIO"); err != nil {
			return err
		}
		svc, err := roccom.LoadedIO(rc, "RocpandaIO")
		if err != nil {
			return err
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := svc.WriteAttribute("mod/s", w, "all", 0.2, 20); err != nil {
			return err
		}
		if err := svc.Sync(); err != nil {
			return err
		}
		return rc.UnloadModule("RocpandaIO") // performs Shutdown
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProtocolCodecs(t *testing.T) {
	h := writeHdr{File: "f", Window: "w", Attr: "all", Time: 0.83, Step: 50, NBlocks: 7, Bytes: 1 << 30}
	got, err := decodeWriteHdr(encodeWriteHdr(h))
	if err != nil || got != h {
		t.Fatalf("writeHdr round trip: %+v %v", got, err)
	}
	if _, err := decodeWriteHdr([]byte{1, 2}); err == nil {
		t.Fatal("truncated header accepted")
	}
	r := readReq{File: "f", Window: "w", Attr: "all", PaneIDs: []int32{1, 5, 9}}
	got2, err := decodeReadReq(encodeReadReq(r))
	if err != nil || got2.File != r.File || len(got2.PaneIDs) != 3 || got2.PaneIDs[2] != 9 {
		t.Fatalf("readReq round trip: %+v %v", got2, err)
	}
	if _, err := decodeReadReq([]byte{9}); err == nil {
		t.Fatal("truncated request accepted")
	}
	// A damaged pane count the message cannot hold used to be skipped, the
	// alive list then decoding from the pane IDs' bytes: a "successful"
	// request for no panes. So is a count that leaves bytes over.
	enc := encodeReadReq(r)
	countAt := len(enc) - 4 - 4 - 4*len(r.PaneIDs) - 4 // before the pane IDs, the alive count and the head length
	for _, n := range []uint32{1 << 30, uint32(len(r.PaneIDs)) + 2, uint32(len(r.PaneIDs)) - 1} {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(bad[countAt:], n)
		if got, err := decodeReadReq(bad); err == nil {
			t.Fatalf("pane count %d of a %d-pane request accepted: %+v", n, len(r.PaneIDs), got)
		}
	}
}
