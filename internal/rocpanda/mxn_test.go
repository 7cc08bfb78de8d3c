package rocpanda

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// paneData is one pane's full payload as the writer produced it: the mesh
// coordinates plus both window attributes. M×N restart must reproduce it
// bit-exact on whichever rank the repartitioner lands the pane.
type paneData struct {
	coords   []float64
	pressure []float64
	flags    int32
}

// capturePane copies a pane's payload out of its window.
func capturePane(p *roccom.Pane) paneData {
	pr, _ := p.Array("pressure")
	fl, _ := p.Array("flags")
	return paneData{
		coords:   append([]float64(nil), p.Block.Coords...),
		pressure: append([]float64(nil), pr.F64...),
		flags:    fl.I32[0],
	}
}

// expectedPanes re-runs the original writer decomposition and captures
// every pane's payload, keyed by pane ID.
func expectedPanes(t *testing.T, nWriters, nblocks int) map[int]paneData {
	t.Helper()
	want := make(map[int]paneData)
	for r := 0; r < nWriters; r++ {
		w := buildWindow(t, r, nblocks)
		w.EachPane(func(p *roccom.Pane) {
			want[p.ID] = capturePane(p)
		})
	}
	return want
}

// writeSnapshot runs a full write+commit with nClients clients and
// nServers servers on a fresh world over fs.
func writeSnapshot(t *testing.T, fs rt.FS, file string, nClients, nServers, nblocks int) {
	t.Helper()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: nServers, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), nblocks)
		if err := cl.WriteAttribute(file, w, "all", 0, 0); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil { // commits manifest + catalog
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// restartTopology restarts the snapshot on a world with a different
// client/server split: each client asks PanesForRestart for its share of
// the pane universe and recovers panes it may never have written. Returns
// the union of recovered payloads, failing on overlap between ranks. reg
// may be nil; fallback tests pass one to assert on restart counters.
func restartTopology(t *testing.T, fs rt.FS, file string, nClients, nServers int, reg *metrics.Registry) map[int]paneData {
	t.Helper()
	return restartTopologyCfg(t, fs, file, nClients, nServers, reg, nil)
}

// restartTopologyCfg is restartTopology with a config hook: tune (may be
// nil) edits the restart world's Config before Init — how the parallel
// read engine's tests turn it on without forking the whole harness.
func restartTopologyCfg(t *testing.T, fs rt.FS, file string, nClients, nServers int, reg *metrics.Registry, tune func(*Config)) map[int]paneData {
	t.Helper()
	got := make(map[int]paneData)
	var mu sync.Mutex
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cfg := Config{
			NumServers: nServers, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
		}
		if tune != nil {
			tune(&cfg)
		}
		cl, err := Init(ctx, cfg)
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		rc := roccom.New()
		w, err := rc.NewWindow("fluid")
		if err != nil {
			return err
		}
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
		mine, err := cl.PanesForRestart(file, "fluid")
		if err != nil {
			return err
		}
		// Collective even for ranks with an empty share (grow runs have
		// more clients than panes).
		readErr := cl.ReadPanes(file, w, "all", mine)
		if readErr == nil && len(w.PaneIDs()) != len(mine) {
			readErr = fmt.Errorf("client %d restored %d panes, claimed %d",
				cl.Comm().Rank(), len(w.PaneIDs()), len(mine))
		}
		if readErr == nil {
			var dup error
			mu.Lock()
			w.EachPane(func(p *roccom.Pane) {
				if _, seen := got[p.ID]; seen {
					dup = fmt.Errorf("pane %d restored by two clients", p.ID)
				}
				got[p.ID] = capturePane(p)
			})
			mu.Unlock()
			readErr = dup
		}
		// Complete the shutdown collective even on failure so the world
		// drains instead of deadlocking, then report.
		if err := cl.Shutdown(); err != nil {
			return err
		}
		return readErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkMxN(t *testing.T, want, got map[int]paneData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("restored %d panes, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("pane %d missing from restart", id)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("pane %d payload differs after M×N restart", id)
		}
	}
}

// TestMxNRestartShrink writes with 8 clients / 2 servers and restarts
// with 3 clients / 1 server: every pane must land on exactly one of the
// new clients, bit-exact, via the catalog repartitioner.
func TestMxNRestartShrink(t *testing.T) {
	fs := rt.NewMemFS()
	writeSnapshot(t, fs, "mxn/shrink", 8, 2, 2)
	got := restartTopology(t, fs, "mxn/shrink", 3, 1, nil)
	checkMxN(t, expectedPanes(t, 8, 2), got)
}

// TestMxNRestartGrow writes with 3 clients / 1 server and restarts with
// 8 clients / 2 servers — more readers than panes, so some clients issue
// empty (but still collective) read requests.
func TestMxNRestartGrow(t *testing.T) {
	fs := rt.NewMemFS()
	writeSnapshot(t, fs, "mxn/grow", 3, 1, 2)
	got := restartTopology(t, fs, "mxn/grow", 8, 2, nil)
	checkMxN(t, expectedPanes(t, 3, 2), got)
}
