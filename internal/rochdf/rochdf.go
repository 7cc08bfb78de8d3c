// Package rochdf implements the paper's server-less individual-I/O module:
// each compute processor writes its own data blocks into its own
// scientific-format file, one file per process per snapshot. Two variants
// are provided, as in the paper:
//
//   - Rochdf (Threaded=false): the baseline — writes happen synchronously
//     inside write_attribute, so the application-visible I/O time is the
//     full file I/O time.
//
//   - T-Rochdf (Threaded=true): a single persistent background I/O thread
//     per process drains a local buffer while the main thread computes.
//     write_attribute only copies the data locally; the main thread blocks
//     at the next snapshot until the thread has finished the previous one
//     (bounded memory), and sync waits for everything to reach the
//     filesystem. The overlap is transparent: callers keep the blocking
//     interface and may reuse buffers immediately.
//
// Individual I/O avoids all communication and scales writes with the
// number of processors, but creates as many files per snapshot as
// processes — the file-management problem that motivates Rocpanda.
package rochdf

import (
	"fmt"

	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// Config configures a Rochdf instance.
type Config struct {
	// Profile is the scientific-library cost model (HDF4 in the paper).
	Profile hdf.CostProfile
	// Threaded selects T-Rochdf: buffer locally and write in background.
	Threaded bool
	// BufferBW is the local buffer-copy bandwidth (bytes/s) charged for
	// T-Rochdf's buffering on simulated platforms; <= 0 charges nothing.
	BufferBW float64
	// Compress stores snapshot datasets deflate-compressed.
	Compress bool
	// Metrics, if set, receives rochdf.* (or trochdf.* when Threaded)
	// counters and latency histograms. A nil registry disables recording.
	Metrics *metrics.Registry
	// RetainGenerations, when > 0, prunes committed snapshot generations
	// beyond the newest N at every Sync. 0 keeps everything.
	RetainGenerations int
}

// Metrics accumulates the per-process costs the paper reports.
type Metrics struct {
	VisibleWrite float64 // time spent inside write_attribute
	VisibleRead  float64 // time spent inside read_attribute
	SyncWait     float64 // time spent inside sync
	WriteCalls   int
	ReadCalls    int
	BytesOut     int64 // payload bytes handed to write_attribute
	FilesCreated int
}

// Rochdf is one process's individual-I/O service.
type Rochdf struct {
	rank    int
	comm    mpi.Comm
	clock   rt.Clock
	fs      rt.FS
	cfg     Config
	created map[string]bool // file names already created (append afterwards)

	// Generations written since the last Sync, in write order. The write
	// path is collective, so every rank accumulates the same list; rank 0
	// commits the manifests once all ranks agree the drain succeeded.
	pending    []pendingGen
	pendingSet map[string]bool

	// T-Rochdf state: a one-writer iosched instance is the background I/O
	// thread (Workers: 1 keeps the paper's single persistent thread and
	// its strict job order).
	eng      *iosched.Engine
	lastFile string
	closed   bool

	m  Metrics
	mx hdfMx
}

// hdfMx holds the registry handles, named rochdf.* or trochdf.* so the
// two variants stay distinguishable in one shared registry. All handles
// are nil-safe no-ops without a registry.
type hdfMx struct {
	visibleWrite *metrics.Histogram
	visibleRead  *metrics.Histogram
	syncWait     *metrics.Histogram
	drainWait    *metrics.Histogram // T-Rochdf: blocking on the I/O thread
	bgWrite      *metrics.Histogram // T-Rochdf: background file-write time
	bytesOut     *metrics.Counter
	filesCreated *metrics.Counter
}

func newHdfMx(r *metrics.Registry, threaded bool) hdfMx {
	prefix := "rochdf."
	if threaded {
		prefix = "trochdf."
	}
	mx := hdfMx{
		visibleWrite: r.Histogram(prefix+"visible_write_seconds", nil),
		visibleRead:  r.Histogram(prefix+"visible_read_seconds", nil),
		syncWait:     r.Histogram(prefix+"sync_wait_seconds", nil),
		bytesOut:     r.Counter(prefix + "bytes_out"),
		filesCreated: r.Counter(prefix + "files_created"),
	}
	if threaded {
		mx.drainWait = r.Histogram(prefix+"drain_wait_seconds", nil)
		mx.bgWrite = r.Histogram(prefix+"bg_write_seconds", nil)
	}
	return mx
}

// pendingGen is one snapshot generation awaiting manifest commit.
type pendingGen struct {
	base  string
	epoch int64
	time  float64
}

type writeJob struct {
	fname   string
	newFile bool
	sets    []roccom.IOSet
	time    float64
	step    int
}

// New returns a Rochdf service for the calling rank. With Threaded set it
// spawns the background I/O thread immediately (one persistent thread per
// process, as in the paper).
func New(ctx mpi.Ctx, cfg Config) *Rochdf {
	h := &Rochdf{
		rank:       ctx.Comm().Rank(),
		comm:       ctx.Comm(),
		clock:      ctx.Clock(),
		fs:         ctx.FS(),
		cfg:        cfg,
		created:    make(map[string]bool),
		pendingSet: make(map[string]bool),
		mx:         newHdfMx(cfg.Metrics, cfg.Threaded),
	}
	if cfg.Threaded {
		h.eng = iosched.New(ctx, iosched.Config{
			Name:    "rochdf-io",
			Workers: 1,
			// The job queue bounds buffered snapshots (a full queue blocks
			// WriteAttribute's submit), the paper's bounded-memory rule.
			QueueCap:   8,
			Policy:     iosched.Writeback{},
			FlushClass: iosched.ClassWrite,
			Metrics:    cfg.Metrics,
		})
	}
	return h
}

// Metrics returns the accumulated costs.
func (h *Rochdf) Metrics() Metrics { return h.m }

// fileName returns this rank's file for a snapshot base name.
func (h *Rochdf) fileName(base string) string {
	return fmt.Sprintf("%s_p%05d.rhdf", base, h.rank)
}

// WriteAttribute implements roccom.IOService.
func (h *Rochdf) WriteAttribute(file string, w *roccom.Window, attr string, tm float64, step int) error {
	if h.closed {
		return fmt.Errorf("rochdf: write after Close")
	}
	t0 := h.clock.Now()
	defer func() {
		d := h.clock.Now() - t0
		h.m.VisibleWrite += d
		h.m.WriteCalls++
		h.mx.visibleWrite.Observe(d)
	}()

	fname := h.fileName(file)
	var sets []roccom.IOSet
	var bytes int64
	var err error
	w.EachPane(func(p *roccom.Pane) {
		if err != nil {
			return
		}
		var ps []roccom.IOSet
		ps, err = roccom.PaneIOSets(w, p, attr)
		for _, s := range ps {
			bytes += int64(len(s.Data))
		}
		sets = append(sets, ps...)
	})
	if err != nil {
		return err
	}
	h.m.BytesOut += bytes
	h.mx.bytesOut.Add(bytes)

	newFile := !h.created[fname]
	if newFile {
		h.created[fname] = true
		h.m.FilesCreated++
		h.mx.filesCreated.Inc()
	}
	if !h.pendingSet[file] {
		h.pendingSet[file] = true
		h.pending = append(h.pending, pendingGen{base: file, epoch: int64(step), time: tm})
	}
	job := writeJob{fname: fname, newFile: newFile, sets: sets, time: tm, step: step}

	if !h.cfg.Threaded {
		return h.writeFile(h.clock, h.fs, job)
	}

	// T-Rochdf: block until the previous snapshot is fully written, then
	// buffer locally and return. PaneIOSets already copied the data; the
	// buffering bandwidth charge models that copy on simulated platforms.
	if h.lastFile != "" && fname != h.lastFile {
		if err := h.drain(); err != nil {
			return err
		}
	}
	h.lastFile = fname
	if h.cfg.BufferBW > 0 {
		h.clock.Compute(float64(bytes) / h.cfg.BufferBW)
	}
	h.eng.Submit(&iosched.Task{
		Class: iosched.ClassWrite,
		Key:   job.fname,
		Cost:  bytes,
		Run: func(tc rt.TaskCtx, _ iosched.WorkerState) iosched.Result {
			t0 := tc.Clock().Now()
			err := h.writeFile(tc.Clock(), tc.FS(), job)
			h.mx.bgWrite.Observe(tc.Clock().Now() - t0)
			return iosched.Result{Err: err}
		},
	})
	return nil
}

// drain waits until the I/O thread has completed all outstanding jobs
// (an iosched flush barrier), recording the blocking time — the part of
// the background write the application actually sees. A write failure is
// sticky: once a background job fails, every later drain reports it, so
// no generation after the failure can commit.
func (h *Rochdf) drain() error {
	t0 := h.clock.Now()
	defer func() { h.mx.drainWait.Observe(h.clock.Now() - t0) }()
	return h.eng.Flush()
}

// writeFile writes one job's datasets into the rank's snapshot file,
// creating or appending as needed, and closes the file so its directory is
// always valid on disk.
func (h *Rochdf) writeFile(clock rt.Clock, fs rt.FS, job writeJob) error {
	var wr *hdf.Writer
	var err error
	if job.newFile {
		wr, err = hdf.Create(fs, job.fname, clock, h.cfg.Profile)
		if err == nil {
			err = wr.CreateDataset("_meta", hdf.U8, []int64{0},
				[]hdf.Attr{
					hdf.F64Attr("time", job.time),
					hdf.I32Attr("step", int32(job.step)),
					hdf.I32Attr("rank", int32(h.rank)),
				}, nil)
		}
	} else {
		wr, err = hdf.OpenAppend(fs, job.fname, clock, h.cfg.Profile)
	}
	if err != nil {
		return fmt.Errorf("rochdf: %s: %w", job.fname, err)
	}
	wr.Compress = h.cfg.Compress
	wr.Metrics = h.cfg.Metrics
	for _, s := range job.sets {
		if err := wr.CreateDataset(s.Name, s.Type, s.Dims, s.Attrs, s.Data); err != nil {
			wr.Close()
			return err
		}
	}
	return wr.Close()
}

// ReadAttribute implements roccom.IOService: restart. The window's
// registered pane IDs define which blocks this process wants; their
// contents (mesh and attributes for "all", a single attribute otherwise)
// are replaced from this rank's snapshot file, so individual-I/O restart
// requires the same process count that wrote the snapshot.
func (h *Rochdf) ReadAttribute(file string, w *roccom.Window, attr string) error {
	t0 := h.clock.Now()
	defer func() {
		d := h.clock.Now() - t0
		h.m.VisibleRead += d
		h.m.ReadCalls++
		h.mx.visibleRead.Observe(d)
	}()
	if h.cfg.Threaded {
		if err := h.drain(); err != nil {
			return err
		}
	}
	fname := h.fileName(file)
	r, err := hdf.Open(h.fs, fname, h.clock, h.cfg.Profile)
	if err != nil {
		return fmt.Errorf("rochdf: restart: %w", err)
	}
	defer r.Close()
	r.Metrics = h.cfg.Metrics

	for _, id := range w.PaneIDs() {
		prefix := roccom.PanePrefix(w.Name, id)
		dss := r.LookupPrefix(prefix)
		if len(dss) == 0 {
			return fmt.Errorf("rochdf: restart: pane %d not in %s (restart needs the writing process count)", id, fname)
		}
		if attr == "all" {
			sets := make([]roccom.IOSet, 0, len(dss))
			for _, d := range dss {
				data, err := r.ReadData(d)
				if err != nil {
					return err
				}
				sets = append(sets, roccom.IOSet{Name: d.Name, Type: d.Type, Dims: d.Dims, Attrs: d.Attrs, Data: data})
			}
			if err := w.DeletePane(id); err != nil {
				return err
			}
			if _, err := roccom.RestorePane(w, id, sets); err != nil {
				return err
			}
			continue
		}
		ds, ok := r.Lookup(prefix + attr)
		if !ok {
			return fmt.Errorf("rochdf: restart: %s%s not in %s", prefix, attr, fname)
		}
		data, err := r.ReadData(ds)
		if err != nil {
			return err
		}
		p, _ := w.Pane(id)
		a, ok := p.Array(attr)
		if !ok {
			return fmt.Errorf("rochdf: window %q has no attribute %q", w.Name, attr)
		}
		if err := a.SetBytes(data); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements roccom.IOService: it blocks until all buffered output
// has reached the filesystem, then commits the written generations'
// manifests. Sync is collective: all ranks agree (via an allreduce over
// their drain outcomes) before rank 0 writes the commit records, so a
// failure anywhere leaves every generation visibly uncommitted.
func (h *Rochdf) Sync() error {
	t0 := h.clock.Now()
	defer func() {
		d := h.clock.Now() - t0
		h.m.SyncWait += d
		h.mx.syncWait.Observe(d)
	}()
	var err error
	if h.cfg.Threaded {
		err = h.drain()
	}
	bad := 0.0
	if err != nil {
		bad = 1
	}
	if h.comm.AllreduceMax(bad) > 0 {
		// Someone failed: no manifests. Pending stays, so a later
		// successful Sync can still commit the generations.
		return err
	}
	return h.commitPending()
}

// commitPending writes the manifest commit record for every generation
// written since the last successful Sync and prunes old generations past
// the retention limit. Collective: rank 0 does the filesystem work, the
// trailing barrier keeps other ranks from racing into a manifest-driven
// restore before the commit records exist.
func (h *Rochdf) commitPending() error {
	var firstErr error
	if h.comm.Rank() == 0 {
		for _, g := range h.pending {
			if _, err := snapshot.Commit(h.fs, g.base, g.epoch, g.time); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("rochdf: commit %s: %w", g.base, err)
			}
		}
		if firstErr == nil && h.cfg.RetainGenerations > 0 && len(h.pending) > 0 {
			prefix := genPrefix(h.pending[len(h.pending)-1].base)
			if _, err := snapshot.Prune(h.fs, prefix, h.cfg.RetainGenerations); err != nil {
				firstErr = fmt.Errorf("rochdf: prune %s: %w", prefix, err)
			}
		}
	}
	h.pending = nil
	h.pendingSet = make(map[string]bool)
	h.comm.Barrier()
	return firstErr
}

// genPrefix returns the directory prefix shared by a base's generations.
func genPrefix(base string) string {
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '/' {
			return base[:i+1]
		}
	}
	return ""
}

// Close drains outstanding output and stops the I/O thread. The service
// is unusable afterwards.
func (h *Rochdf) Close() error {
	if h.closed {
		return nil
	}
	var err error
	if h.cfg.Threaded {
		err = h.drain()
		h.eng.Close()
	}
	h.closed = true
	return err
}

// Module returns a roccom.Module that exposes this service as the
// interchangeable I/O module named at load time (e.g. "RochdfIO").
func (h *Rochdf) Module() roccom.Module { return &module{svc: h} }

type module struct {
	svc *Rochdf
}

func (m *module) Load(rc *roccom.Roccom, name string) error {
	if _, err := rc.NewWindow(name); err != nil {
		return err
	}
	return roccom.RegisterIOService(rc, name, m.svc)
}

func (m *module) Unload(rc *roccom.Roccom, name string) error {
	if err := m.svc.Close(); err != nil {
		return err
	}
	return rc.DeleteWindow(name)
}
