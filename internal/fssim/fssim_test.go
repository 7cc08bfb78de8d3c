package fssim

import (
	"fmt"
	"testing"

	"genxio/internal/sim"
)

// runWriters runs n processes each writing (or reading) size bytes through
// the model concurrently and returns the makespan in virtual seconds.
func runWriters(t *testing.T, mk func(env *sim.Env) Model, n, size int, read bool) float64 {
	t.Helper()
	env := sim.NewEnv()
	m := mk(env)
	if !read {
		for i := 0; i < n; i++ {
			i := i
			env.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				fs := m.View(p)
				f, err := fs.Create(fmt.Sprintf("f%d", i))
				if err != nil {
					t.Error(err)
					return
				}
				f.WriteAt(make([]byte, size), 0)
				f.Close()
			})
		}
	} else {
		// Pre-populate without cost using a writer pass first.
		env.Spawn("prep", func(p *sim.Proc) {
			fs := m.View(p)
			for i := 0; i < n; i++ {
				f, _ := fs.Create(fmt.Sprintf("f%d", i))
				f.WriteAt(make([]byte, size), 0)
				f.Close()
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env = sim.NewEnv()
		m2 := mk(env)
		_ = m2
		// Rebuild on the same backing is awkward; instead measure read
		// after writes in one env, subtracting the write makespan.
		env = sim.NewEnv()
		m = mk(env)
		gate := env.NewQueue("writesDone", 1) // closed once the files are written
		var writeEnd float64
		env.Spawn("prep2", func(p *sim.Proc) {
			fs := m.View(p)
			for i := 0; i < n; i++ {
				f, _ := fs.Create(fmt.Sprintf("f%d", i))
				f.WriteAt(make([]byte, size), 0)
				f.Close()
			}
			writeEnd = env.Now()
			gate.Close()
		})
		for i := 0; i < n; i++ {
			i := i
			env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				gate.Get(p)
				fs := m.View(p)
				f, err := fs.Open(fmt.Sprintf("f%d", i))
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, size)
				f.ReadAt(buf, 0)
				f.Close()
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return env.Now() - writeEnd
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return env.Now()
}

func nfsModel(env *sim.Env) Model  { return NewNFS(env, NFSParams{}) }
func gpfsModel(env *sim.Env) Model { return NewGPFS(env, GPFSParams{}) }

func TestNFSWriteSlowerThanRead(t *testing.T) {
	// At high concurrency, aggregate writes collapse under interference
	// while concurrent reads scale to the line rate (the paper's NFS
	// asymmetry).
	const size = 1 << 20
	wr := runWriters(t, nfsModel, 48, size, false)
	rd := runWriters(t, nfsModel, 48, size, true)
	if wr < 3*rd {
		t.Fatalf("NFS writes (%.3fs) should be much slower than reads (%.3fs)", wr, rd)
	}
}

func TestNFSSingleStreamReadIsWindowLimited(t *testing.T) {
	// One reader is far below line rate; 16 readers of the same total
	// volume finish much sooner.
	const total = 16 << 20
	one := runWriters(t, nfsModel, 1, total, true)
	many := runWriters(t, nfsModel, 16, total/16, true)
	if many > one/4 {
		t.Fatalf("16 readers %.3fs vs 1 reader %.3fs; want >=4x speedup", many, one)
	}
}

func TestNFSWriteInterferencePeak(t *testing.T) {
	// Fixed total volume split across k writers: the interference model
	// must produce a worst case at moderate concurrency (Table 1's bump
	// at 32) and recover at higher concurrency.
	const total = 64 << 20
	t16 := runWriters(t, nfsModel, 16, total/16, false)
	t32 := runWriters(t, nfsModel, 32, total/32, false)
	t64 := runWriters(t, nfsModel, 64, total/64, false)
	if !(t32 > t16 && t32 > t64) {
		t.Fatalf("interference shape wrong: t16=%.2f t32=%.2f t64=%.2f", t16, t32, t64)
	}
}

func TestDefaultInterferenceShape(t *testing.T) {
	if DefaultInterference(1) != 1 {
		t.Fatal("single writer must be interference-free")
	}
	peak := 0.0
	peakAt := 0
	for k := 2; k <= 128; k++ {
		v := DefaultInterference(k)
		if v < 1 {
			t.Fatalf("interference(%d)=%v below 1", k, v)
		}
		if v > peak {
			peak, peakAt = v, k
		}
	}
	if peakAt < 16 || peakAt > 48 {
		t.Fatalf("interference peak at k=%d, want in [16,48]", peakAt)
	}
	if DefaultInterference(128) > DefaultInterference(peakAt) {
		t.Fatal("interference must relax past the peak")
	}
}

func TestGPFSAggregateScalesWithServers(t *testing.T) {
	const size = 8 << 20
	two := runWriters(t, func(env *sim.Env) Model {
		return NewGPFS(env, GPFSParams{Servers: 2})
	}, 8, size, false)
	eight := runWriters(t, func(env *sim.Env) Model {
		return NewGPFS(env, GPFSParams{Servers: 8})
	}, 8, size, false)
	if two < 3*eight {
		t.Fatalf("8-server GPFS (%.3f) should be ~4x faster than 2-server (%.3f)", eight, two)
	}
}

func TestGPFSFasterThanNFSForParallelWrites(t *testing.T) {
	const size = 4 << 20
	nfs := runWriters(t, nfsModel, 16, size, false)
	gpfs := runWriters(t, gpfsModel, 16, size, false)
	if gpfs > nfs/2 {
		t.Fatalf("GPFS writes %.3fs vs NFS %.3fs; production FS should win clearly", gpfs, nfs)
	}
}

func TestModelAccounting(t *testing.T) {
	env := sim.NewEnv()
	m := NewNFS(env, NFSParams{})
	env.Spawn("w", func(p *sim.Proc) {
		fs := m.View(p)
		f, _ := fs.Create("a")
		f.WriteAt(make([]byte, 1000), 0)
		f.Close()
		g, _ := fs.Open("a")
		buf := make([]byte, 400)
		g.ReadAt(buf, 0)
		g.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.BytesWritten() != 1000 || m.BytesRead() != 400 {
		t.Fatalf("accounting: wrote %d read %d", m.BytesWritten(), m.BytesRead())
	}
}

func TestDataIntegrityThroughCostFS(t *testing.T) {
	env := sim.NewEnv()
	m := NewGPFS(env, GPFSParams{})
	env.Spawn("w", func(p *sim.Proc) {
		fs := m.View(p)
		f, _ := fs.Create("x")
		f.WriteAt([]byte("hello"), 0)
		f.Close()
	})
	env.Spawn("r", func(p *sim.Proc) {
		p.Wait(10) // after the writer
		fs := m.View(p)
		names, err := fs.List("")
		if err != nil || len(names) != 1 {
			t.Errorf("List = %v, %v", names, err)
			return
		}
		sz, _ := fs.Stat("x")
		if sz != 5 {
			t.Errorf("Stat = %d", sz)
		}
		f, err := fs.Open("x")
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 5)
		f.ReadAt(buf, 0)
		if string(buf) != "hello" {
			t.Errorf("read %q", buf)
		}
		if err := fs.Remove("x"); err != nil {
			t.Error(err)
		}
		f.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestViewsShareBacking(t *testing.T) {
	env := sim.NewEnv()
	m := NewNFS(env, NFSParams{})
	env.Spawn("a", func(p *sim.Proc) {
		f, _ := m.View(p).Create("shared")
		f.WriteAt([]byte{42}, 0)
		f.Close()
	})
	env.Spawn("b", func(p *sim.Proc) {
		p.Wait(5)
		f, err := m.View(p).Open("shared")
		if err != nil {
			t.Error("views do not share a backing store:", err)
			return
		}
		f.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
