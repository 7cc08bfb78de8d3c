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
//     filesystem. Callers keep the blocking interface.
//
// Both are placements of the snapshot services Rocpanda's servers also run.
// Writes go through snapshot.Writer — Rochdf its write-through inline driver
// on the compute rank, T-Rochdf its pool of one — and Sync ends in the shared
// commit protocol (snapshot.Pending). Restart is snapshot.Reader's inline
// driver on the compute rank, delivering in place. What is left here is the
// file-naming rule (catalog.RankFile) and the roccom.IOService shim.
//
// Individual I/O avoids all communication and scales writes with the
// number of processors, but creates as many files per snapshot as
// processes — the file-management problem that motivates Rocpanda.
package rochdf

import (
	"cmp"
	"fmt"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
)

// Config configures a Rochdf instance.
type Config struct {
	// Profile is the scientific-library cost model (HDF4 in the paper),
	// charged per dataset created; restart reads charge none.
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
	BytesOut     int64 // payload bytes handed to write_attribute
	FilesCreated int   // snapshot files this rank started
}

// Rochdf is one process's individual-I/O service.
type Rochdf struct {
	comm  mpi.Comm
	clock rt.Clock

	wr       *snapshot.Writer  // the write service, this rank its only source of blocks
	rd       *snapshot.Reader  // the restart-read service, delivering in place
	pending  *snapshot.Pending // generations written since the last Sync
	lastFile string            // generation of the last write: a change flushes
	buffered bool              // T-Rochdf: blocks outlive WriteAttribute
	failed   error             // the caller's failed step (Fail): no commit after it
	closed   bool

	m  Metrics
	mx hdfMx
}

// hdfMx holds the shim's registry handles (nil-safe no-ops without a
// registry), named rochdf.* or trochdf.* so the variants stay apart in a
// shared registry; the write service's series carry the same prefix.
type hdfMx struct {
	visibleWrite *metrics.Histogram
	visibleRead  *metrics.Histogram
	syncWait     *metrics.Histogram
	flushWait    *metrics.Histogram // blocking on the write service's flush barrier
	bytesOut     *metrics.Counter
}

// New returns a Rochdf service for the calling rank. With Threaded set it
// spawns the background I/O thread immediately (one persistent thread per
// process, as in the paper).
func New(ctx mpi.Ctx, cfg Config) *Rochdf {
	prefix, workers := "rochdf.", 0
	if cfg.Threaded {
		prefix, workers = "trochdf.", 1
	}
	rank := ctx.Comm().Rank()
	r := cfg.Metrics
	return &Rochdf{
		comm:     ctx.Comm(),
		clock:    ctx.Clock(),
		buffered: cfg.Threaded,
		wr: snapshot.NewWriter(ctx, snapshot.WriterConfig{
			Profile:       cfg.Profile,
			Compress:      cfg.Compress,
			Meta:          []hdf.Attr{hdf.I32Attr("rank", int32(rank))},
			ClosePerBlock: true,
			Buffering:     cfg.Threaded,
			Workers:       workers,
			MemcpyBW:      cfg.BufferBW,
			Metrics:       r,
			Prefix:        prefix,
			ErrorSeries:   prefix + "drain_errors",
		}),
		rd: snapshot.NewReader(ctx, snapshot.ReaderConfig{
			Metrics:       r,
			Prefix:        prefix + "restart.",
			SkippedSeries: prefix + "restart.files_skipped",
			ErrorSeries:   prefix + "read_errors",
		}),
		pending: snapshot.NewPending(ctx.Comm(), ctx.FS(), ctx.Clock(), cfg.RetainGenerations, r),
		mx: hdfMx{
			visibleWrite: r.Histogram(prefix+"visible_write_seconds", nil),
			visibleRead:  r.Histogram(prefix+"visible_read_seconds", nil),
			syncWait:     r.Histogram(prefix+"sync_wait_seconds", nil),
			flushWait:    r.Histogram(prefix+"drain_wait_seconds", nil),
			bytesOut:     r.Counter(prefix + "bytes_out"),
		},
	}
}

// Metrics returns the accumulated costs.
func (h *Rochdf) Metrics() Metrics { return h.m }

// timed starts timing the enclosing call; the returned func charges what it
// took to the shadow total and the registry histogram.
func (h *Rochdf) timed(total *float64, hist *metrics.Histogram) func() {
	t0 := h.clock.Now()
	return func() {
		d := h.clock.Now() - t0
		*total += d
		hist.Observe(d)
	}
}

// WriteAttribute implements roccom.IOService: one call is one block, every
// local pane's datasets bound for this rank's file. Rochdf writes it before
// returning (write-through), so a failed write fails the call and the pane
// views PaneIOSets packed are never copied; T-Rochdf only buffers it — in
// one contiguous copy, since it holds the block past the call (the view
// rule), which BufferBW models on simulated platforms — after blocking
// until the previous snapshot is fully written (the paper's bounded-memory
// rule), where a background failure surfaces.
func (h *Rochdf) WriteAttribute(file string, w *roccom.Window, attr string, tm float64, step int) error {
	if h.closed {
		return fmt.Errorf("rochdf: write after Close")
	}
	defer h.timed(&h.m.VisibleWrite, h.mx.visibleWrite)()
	h.m.WriteCalls++

	blk := snapshot.Block{File: catalog.RankFile(file, h.comm.Rank()), Time: tm, Step: int32(step)}
	for _, id := range w.PaneIDs() {
		p, _ := w.Pane(id)
		sets, err := roccom.PaneIOSets(w, p, attr)
		if err != nil {
			return err
		}
		for _, s := range sets {
			blk.Bytes += int64(len(s.Data))
		}
		blk.Sets = append(blk.Sets, sets...)
	}
	h.m.BytesOut += blk.Bytes
	h.mx.bytesOut.Add(blk.Bytes)

	if _, fresh := h.pending.Begin(file, int64(step), tm); fresh {
		h.m.FilesCreated++
	}
	if h.lastFile != "" && file != h.lastFile {
		if err := h.flush(); err != nil {
			return err
		}
	}
	h.lastFile = file
	if h.buffered {
		ownCopy(blk.Sets, blk.Bytes)
	}
	h.wr.Submit(blk)
	return h.wr.Err()
}

// ownCopy moves every set's Data out of its pane into one buffer of n bytes.
func ownCopy(sets []roccom.IOSet, n int64) {
	buf := make([]byte, 0, n)
	for i := range sets {
		from := len(buf)
		buf = append(buf, sets[i].Data...)
		sets[i].Data = buf[from:len(buf):len(buf)]
	}
}

// flush waits until every outstanding block has landed, recording the
// blocking time — the part of a background write the application sees — and
// returns the write service's sticky error: once a block fails, no later
// generation can commit.
func (h *Rochdf) flush() error {
	t0 := h.clock.Now()
	defer func() { h.mx.flushWait.Observe(h.clock.Now() - t0) }()
	return h.wr.Flush()
}

// ReadAttribute implements roccom.IOService: restart of the window's
// registered panes.
func (h *Rochdf) ReadAttribute(file string, w *roccom.Window, attr string) error {
	return h.ReadPanes(file, w, attr, w.PaneIDs())
}

// ReadPanes is ReadAttribute with an explicit wanted-pane list, exactly as on
// rocpanda.Client: this rank reads every file the generation's catalogs plan
// for the panes — so the writing run's rank count, and module, are free — and
// installs each verified pane in place (mesh and attributes for "all", which
// need not be registered yet; the one named attribute otherwise). A full
// generation whose catalog is unusable is planned from the same catalog
// derived from its files' directories; an uncommitted one is read from this
// rank's own file, which then needs the writing process count, after a
// flush puts its still-buffered blocks on disk (a committed generation needs
// none, so a later generation's background write error does not fail its
// read; the next Sync reports it). Panes no intact copy could be found for
// fail the call with snapshot.ErrIncompleteRestart.
func (h *Rochdf) ReadPanes(file string, w *roccom.Window, attr string, ids []int) error {
	defer h.timed(&h.m.VisibleRead, h.mx.visibleRead)()
	rcv := snapshot.NewReceiver(w, attr, ids)
	h.rd.Read(snapshot.ReadRequest{
		Base: file, Window: w.Name, Attr: attr, Wanted: rcv.Wanted(),
		Own:         catalog.RankFile(file, h.comm.Rank()),
		Uncommitted: func() { rcv.Fail(h.flush()) },
		Deliver:     func(_ int, sets []roccom.IOSet) { rcv.Deliver(sets) }, // a failure sticks: Complete reports it
	})
	return rcv.Complete(file)
}

// PanesForRestart deals the generation's pane universe for the window
// (snapshot.Reader.PaneUniverse) over the ranks in contiguous runs
// (catalog.Repartition), as rocpanda.Client's does, so a restart through
// ReadPanes with attr "all" may run on any rank count. It is collective:
// the ranks then load the directories of the files their parts plan from,
// each read by one rank and sent to the others that need it
// (snapshot.Reader.ShareDirs), so the ReadPanes of those parts read data
// only.
func (h *Rochdf) PanesForRestart(base, window string) ([]int, error) {
	ids, err := h.rd.PaneUniverse(base, window)
	var part []int
	if err == nil {
		part = catalog.Repartition(ids, h.comm.Size())[h.comm.Rank()]
	}
	h.rd.ShareDirs(h.comm, base, window, part)
	return part, err
}

// RestoreLatest is rocpanda.Client's restore walk, collective over the ranks
// and run on this rank's Reader (snapshot.Reader.Restore): rank 0's judgment
// loads the chain its first round then reuses.
func (h *Rochdf) RestoreLatest(prefix string, restore func(base string) error) (string, error) {
	return h.rd.Restore(h.comm, prefix, restore)
}

// Sync implements roccom.IOService: it blocks until all buffered output
// has reached the filesystem, then commits the written generations'
// manifests. Sync is collective: all ranks agree (the commit allreduce over
// their flush outcomes) before rank 0 writes the commit records, so a
// failure anywhere — a T-Rochdf background write, or an earlier
// WriteAttribute that already returned its error — fails Sync on every rank
// and leaves every generation visibly uncommitted. The commit indexes the
// files from what this rank's writes reported publishing.
func (h *Rochdf) Sync() error {
	defer h.timed(&h.m.SyncWait, h.mx.syncWait)()
	err := cmp.Or(h.flush(), h.failed)
	return h.pending.Commit(err, h.wr.Published(), nil)
}

// Fail records a step the caller could not finish on this rank: from then
// on every Sync fails on every rank, as after a failed write, so no
// generation the step's output belonged to commits.
func (h *Rochdf) Fail(err error) { h.failed = cmp.Or(h.failed, err) }

// Close drains outstanding output and stops the I/O thread. The service
// is unusable afterwards.
func (h *Rochdf) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	err := h.flush()
	h.wr.Close()
	return err
}

// Module returns a roccom.Module that exposes this service as the
// interchangeable I/O module named at load time (e.g. "RochdfIO").
func (h *Rochdf) Module() roccom.Module { return roccom.IOModule(h, h.Close) }
