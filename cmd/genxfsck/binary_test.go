package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/mesh"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/stats"
)

// writeTree runs a real Rocpanda world (2 clients per server) over a
// directory and commits nGens generations run/snap00000g, every client
// re-dirtying one pane between generations so deltas have something to
// ship.
func writeTree(t *testing.T, root string, cfg rocpanda.Config, nGens int) rt.FS {
	t.Helper()
	fsys, err := rt.NewOSFS(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile, cfg.ActiveBuffering = hdf.NullProfile(), true
	err = mpi.NewChanWorld(fsys, 1).Run(3*cfg.NumServers, func(ctx mpi.Ctx) error {
		cl, err := rocpanda.Init(ctx, cfg)
		if err != nil || cl == nil {
			return err
		}
		rank := cl.Comm().Rank()
		w, err := roccom.New().NewWindow("fluid")
		if err != nil {
			return err
		}
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
			RInner: 0.1, ROuter: 0.4, Length: 1, BR: 1, BT: 3, BZ: 1, NodesPerBlock: 200,
		}, 1000*rank+1, stats.NewRNG(uint64(rank)+3))
		if err != nil {
			return err
		}
		for _, b := range blocks {
			if _, err := w.RegisterPane(b.ID, b); err != nil {
				return err
			}
		}
		for g := 0; g < nGens; g++ {
			p, _ := w.Pane(blocks[g%len(blocks)].ID)
			pr, _ := p.Array("pressure")
			pr.F64[0] = float64(g)
			w.MarkDirty(p.ID)
			if err := cl.WriteAttribute(fmt.Sprintf("run/snap%06d", g), w, "all", float64(g), g); err != nil {
				return err
			}
			if err := cl.Sync(); err != nil {
				return err
			}
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

// flipPayloadBit flips one bit in the middle of a stored dataset of the
// named file, located through the generation's catalog.
func flipPayloadBit(t *testing.T, fsys rt.FS, base, name string) {
	t.Helper()
	chain, err := snapshot.LoadChain(fsys, base)
	if err != nil {
		t.Fatal(err)
	}
	cat := chain[0].Catalog
	for _, e := range cat.Entries {
		if off, length := e.Extent(); cat.Files[e.File] == name && length > 0 {
			if err := faults.FlipBit(fsys, name, (off+length/2)*8); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("catalog of %s has no payload in %s", base, name)
}

// TestBuiltBinaryExitCodes is the one thing a shell scenario adds over the
// in-process tests: the binary as built, run as a process, on a real
// directory, reports the documented verdict words and exit statuses.
func TestBuiltBinaryExitCodes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "genxfsck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// scrub runs the binary on root and checks its exit status and that
	// every wanted verdict word (and no unwanted one) is in its report.
	scrub := func(root string, wantExit int, want, unwanted []string, flags ...string) {
		t.Helper()
		args := append([]string{"-root", root, "-prefix", "run/"}, flags...)
		out, err := exec.Command(bin, args...).Output()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("genxfsck %v: %v", args, err)
		}
		if code != wantExit {
			t.Fatalf("genxfsck %v: exit %d, want %d\n%s", args, code, wantExit, out)
		}
		for _, word := range want {
			if !strings.Contains(string(out), word) {
				t.Fatalf("genxfsck %v: no %s in\n%s", args, word, out)
			}
		}
		for _, word := range unwanted {
			if strings.Contains(string(out), word) {
				t.Fatalf("genxfsck %v: unexpected %s in\n%s", args, word, out)
			}
		}
	}

	t.Run("replicated", func(t *testing.T) {
		root := t.TempDir()
		fsys := writeTree(t, root, rocpanda.Config{NumServers: 2, ReplicationFactor: 2}, 2)
		scrub(root, exitOK, []string{"OK", `"record"`, `"index"`}, []string{"CORRUPT"}, "-json")
		scrub(root, exitOK, []string{"OK"}, nil, "-quick")

		// A payload bit in one generation, a lost primary in the other:
		// every damaged file has a verified replica, so -repair rebuilds the
		// tree and a fresh scrub agrees.
		flipPayloadBit(t, fsys, "run/snap000000", "run/snap000000_s001.rhdf")
		if err := fsys.Remove("run/snap000001_s000.rhdf"); err != nil {
			t.Fatal(err)
		}
		scrub(root, exitCorrupt, []string{"CORRUPT"}, nil)
		scrub(root, exitOK, []string{"REPAIRED"}, []string{"CORRUPT"}, "-repair")
		scrub(root, exitOK, []string{"OK"}, []string{"CORRUPT", "REPAIRED"})

		// A bit in a commit record's catalog is damage to the record, which
		// has no copy: the quick pass catches it, and -repair leaves it.
		buf, err := hdf.ReadFile(fsys, "run/snap000001"+snapshot.Suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := faults.FlipBit(fsys, "run/snap000001"+snapshot.Suffix, int64(len(buf)-3)*8); err != nil {
			t.Fatal(err)
		}
		scrub(root, exitCorrupt, []string{"CORRUPT", "commit record crc32c"}, nil, "-quick")
		scrub(root, exitCorrupt, []string{"CORRUPT"}, []string{"REPAIRED"}, "-repair")
	})

	t.Run("delta-chain", func(t *testing.T) {
		root := t.TempDir()
		// Fulls at generations 0 and 4, deltas chained between and after.
		fsys := writeTree(t, root, rocpanda.Config{NumServers: 1, DeltaSnapshots: true, FullEvery: 4}, 7)
		scrub(root, exitOK, []string{"OK"}, []string{"CORRUPT", "CHAIN-BROKEN"})
		scrub(root, exitOK, []string{`"links"`, `"universe"`}, nil, "-json")
		// The mid-run full loses its file: it is CORRUPT, and the deltas
		// chained on it are clean themselves but cannot restore.
		if err := fsys.Remove("run/snap000004_s000.rhdf"); err != nil {
			t.Fatal(err)
		}
		scrub(root, exitCorrupt, []string{"OK", "CORRUPT", "CHAIN-BROKEN"}, nil)
		scrub(root, exitCorrupt, []string{"CHAIN-BROKEN"}, nil, "-quick")
	})
}
