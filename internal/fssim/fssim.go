// Package fssim provides the simulated shared filesystems of the paper's
// two evaluation platforms, as virtual-time models over real byte storage:
//
//   - NFS: the Turing development cluster's shared filesystem — one server
//     (reiserfs exported over NFS). Every request crosses the server's
//     network line (a FIFO resource, so concurrent streams share it
//     fairly); writes additionally pay the server disk, whose service
//     degrades under concurrent writers (the write contention of Table 1),
//     while reads are cache-friendly and essentially line-rate — which is
//     why Rochdf restart, with all processors reading, beats Rocpanda's
//     few servers (Section 7.1).
//
//   - GPFS: the Frost production platform's parallel filesystem — a pool
//     of server nodes (capacity-N resource), so aggregate bandwidth scales
//     to Servers × BWPerServer and then saturates.
//
// Files are backed by an rt.MemFS, so everything written is really there
// and restart paths genuinely re-read it. A model hands out per-process
// views (rt.FS) that charge time to the owning simulation process.
package fssim

import (
	"math"
	"sync/atomic"

	"genxio/internal/rt"
	"genxio/internal/sim"
)

// Model is a simulated filesystem: per-process views plus traffic
// accounting.
type Model interface {
	// View returns p's filesystem handle; all operations through it
	// charge virtual time to p.
	View(p *sim.Proc) rt.FS
	// Backing returns the real byte store, for cost-free post-run
	// inspection of what the simulation wrote.
	Backing() *rt.MemFS
	// BytesWritten returns the total bytes written so far.
	BytesWritten() int64
	// BytesRead returns the total bytes read so far.
	BytesRead() int64
}

// NFSParams configures the single-server NFS model. Bandwidths are bytes
// per second, latencies seconds.
type NFSParams struct {
	LineBW      float64 // server network line rate
	DiskWriteBW float64 // sustained server disk write bandwidth
	// StreamReadBW caps a single client's read throughput: NFS reads
	// proceed in small synchronous rsize windows, so one stream is
	// latency-bound far below the line rate. Aggregate read bandwidth
	// still grows with concurrent readers until the line saturates —
	// the paper's "NFS tolerates concurrent reads much better than
	// concurrent writes".
	StreamReadBW float64
	OpLatency    float64 // per data request (RPC round trip)
	MetaLatency  float64 // per metadata operation (create/open/stat/...)
	Interference func(writers int) float64
}

// DefaultInterference is the write-interference multiplier applied to disk
// service when k write streams are open concurrently. It has a linear
// floor (per-stream journal pressure) plus a bump peaking near 32 streams
// that relaxes at higher concurrency, where each stream's requests arrive
// slowly enough for the server to batch adjacent blocks — an empirical
// curve calibrated to the non-monotonic Rochdf write times of Table 1
// (worst near 32 writers, recovering by 64). The authors attribute the
// bump to write contention on the shared cluster; see EXPERIMENTS.md.
func DefaultInterference(k int) float64 {
	if k <= 1 {
		return 1
	}
	x := float64(k)
	u := x / 45
	return 1 + 0.02*x + 0.25*x*math.Exp(-u*u*u*u)
}

// DefaultStreamReadBW is NFSParams.StreamReadBW when left zero: one
// client's window-limited read stream, in bytes per second.
const DefaultStreamReadBW = 0.75e6

// NFS is the Turing-style single-server shared filesystem.
type NFS struct {
	params  NFSParams
	backing *rt.MemFS
	line    *sim.Resource // server network line (capacity 1)
	disk    *sim.Resource // server disk (capacity 1)
	writers int32         // in-flight write operations

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

// NewNFS returns an NFS model in env. Zero-valued params get defaults
// loosely matching a 2002-era departmental server reached over Myrinet
// IP: 90 MB/s line, 14 MB/s disk writes, 0.8 ms RPCs.
func NewNFS(env *sim.Env, params NFSParams) *NFS {
	if params.LineBW == 0 {
		params.LineBW = 90e6
	}
	if params.DiskWriteBW == 0 {
		params.DiskWriteBW = 15e6
	}
	if params.StreamReadBW == 0 {
		params.StreamReadBW = DefaultStreamReadBW
	}
	if params.OpLatency == 0 {
		params.OpLatency = 0.8e-3
	}
	if params.MetaLatency == 0 {
		params.MetaLatency = 1.5e-3
	}
	if params.Interference == nil {
		params.Interference = DefaultInterference
	}
	return &NFS{
		params:  params,
		backing: rt.NewMemFS(),
		line:    env.NewResource("nfs.line", 1),
		disk:    env.NewResource("nfs.disk", 1),
	}
}

// View implements Model.
func (m *NFS) View(p *sim.Proc) rt.FS {
	return &costFS{fs: m.backing, ops: &nfsOps{m: m, p: p}}
}

// Backing implements Model.
func (m *NFS) Backing() *rt.MemFS { return m.backing }

// BytesWritten implements Model.
func (m *NFS) BytesWritten() int64 { return m.bytesWritten.Load() }

// BytesRead implements Model.
func (m *NFS) BytesRead() int64 { return m.bytesRead.Load() }

// nfsOps charges NFS costs for one process.
type nfsOps struct {
	m *NFS
	p *sim.Proc
}

func (o *nfsOps) meta() {
	o.m.line.Use(o.p, o.m.params.MetaLatency)
}

func (o *nfsOps) openWrite()  { o.m.writers++ }
func (o *nfsOps) closeWrite() { o.m.writers-- }

func (o *nfsOps) write(size int) {
	m := o.m
	k := int(m.writers)
	m.line.Use(o.p, m.params.OpLatency+float64(size)/m.params.LineBW)
	service := float64(size) / m.params.DiskWriteBW * m.params.Interference(k)
	m.disk.Use(o.p, service)
	m.bytesWritten.Add(int64(size))
}

func (o *nfsOps) read(size int) {
	m := o.m
	// Reads are served from the server's cache: the shared line charges
	// the wire time (fair among concurrent readers), while the RPC
	// latency and the stream's window-limited pacing are per-client and
	// overlap across readers — so aggregate read bandwidth grows with
	// reader count up to the line rate.
	m.line.Use(o.p, float64(size)/m.params.LineBW)
	o.p.Wait(m.params.OpLatency + float64(size)/m.params.StreamReadBW)
	m.bytesRead.Add(int64(size))
}

// GPFSParams configures the multi-server parallel filesystem model.
type GPFSParams struct {
	Servers     int     // number of filesystem server nodes
	BWPerServer float64 // bytes/s each server sustains
	OpLatency   float64
	MetaLatency float64
}

// GPFS is the Frost-style parallel filesystem.
type GPFS struct {
	params  GPFSParams
	backing *rt.MemFS
	pool    *sim.Resource // capacity = Servers

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

// NewGPFS returns a GPFS model. Defaults: 2 servers at 90 MB/s each,
// 0.5 ms ops — matching Frost's two GPFS server nodes and the FLASH I/O
// throughput ballpark the paper cites.
func NewGPFS(env *sim.Env, params GPFSParams) *GPFS {
	if params.Servers == 0 {
		params.Servers = 2
	}
	if params.BWPerServer == 0 {
		params.BWPerServer = 90e6
	}
	if params.OpLatency == 0 {
		params.OpLatency = 0.5e-3
	}
	if params.MetaLatency == 0 {
		params.MetaLatency = 1.0e-3
	}
	return &GPFS{
		params:  params,
		backing: rt.NewMemFS(),
		pool:    env.NewResource("gpfs.pool", params.Servers),
	}
}

// View implements Model.
func (m *GPFS) View(p *sim.Proc) rt.FS {
	return &costFS{fs: m.backing, ops: &gpfsOps{m: m, p: p}}
}

// Backing implements Model.
func (m *GPFS) Backing() *rt.MemFS { return m.backing }

// BytesWritten implements Model.
func (m *GPFS) BytesWritten() int64 { return m.bytesWritten.Load() }

// BytesRead implements Model.
func (m *GPFS) BytesRead() int64 { return m.bytesRead.Load() }

type gpfsOps struct {
	m *GPFS
	p *sim.Proc
}

func (o *gpfsOps) meta() {
	o.m.pool.Use(o.p, o.m.params.MetaLatency)
}

func (o *gpfsOps) openWrite()  {}
func (o *gpfsOps) closeWrite() {}

func (o *gpfsOps) write(size int) {
	o.m.pool.Use(o.p, o.m.params.OpLatency+float64(size)/o.m.params.BWPerServer)
	o.m.bytesWritten.Add(int64(size))
}

func (o *gpfsOps) read(size int) {
	o.m.pool.Use(o.p, o.m.params.OpLatency+float64(size)/o.m.params.BWPerServer)
	o.m.bytesRead.Add(int64(size))
}
