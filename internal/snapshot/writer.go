package snapshot

// The write service: the one implementation of a snapshot write, under all
// three I/O modules. The paper presents individual and collective I/O as two
// placements of the same work — who holds the buffer, who writes the file —
// and so does this: a Rocpanda server feeds a Writer from the MPI stream
// (§6.1, Figure 2), Rochdf is its write-through inline configuration on the
// compute rank itself, and T-Rochdf its pool of one. It is one state machine
// with two drivers.
//
// The state machine. Submit takes a block into the queue once, whatever its
// replication (charging the buffer copy and counting it under active
// buffering); a step lands one copy of the oldest queued block — its
// primary file, then each replica in order — appending it through a
// blockSink, observes drain_seconds and then visits the MidDrain crash
// point; the block leaves the queue with its last copy. Under active
// buffering, the step of a write's last block (Block.Whole, set by an
// owner that knows the write is whole — a Rocpanda server, once each of
// its clients has sent its part of a collective write) also publishes the
// copy's file: it writes the directory after the data, patches the
// header, closes the file and renames it into place (hdf.Writer.Publish),
// so a file is under its final name exactly when it holds a whole write,
// and the flush that ends the generation finds no file open. The publish
// is drain work like the block's, done in the owner's idle time between
// probes (idle_publishes counts those done before a flush began); a block
// that later lands in such a file — a second write into the same base, as
// Rocman's fluid and solid windows are — reopens it from the sink's memory
// (hdf.Writer.Reopen, files_reopened): back under its staged name, no byte
// of it read, written on over the directory the publish wrote, so the file
// ends with the bytes of one never published in between. Which step
// publishes is decided by what the owner received, not by when its queue
// ran empty, so a run makes the same filesystem calls whatever the timing
// of its clients. Flush empties the queue, publishes every file still open
// and returns the sticky first error — the barrier-before-commit that
// sync, restart reads of an uncommitted generation and shutdown rely on.
// Only after it may a generation's manifest be written (Pending.Commit),
// so crash consistency, catalog publication and generation fallback depend
// on neither the driver nor the module.
//
// The budget rule, stated once: WriterConfig.Budget bounds the queued bytes
// by iosched.OverBudget, the scheduler's streaming rule. A block counts its
// bytes once, however many copies it lands, and releases them when its last
// copy lands. A Submit that leaves the queue over budget holds the
// submitter — delaying a Rocpanda client's ack — until steps bring it back
// under; 0 is unbounded, and a budget smaller than any block degenerates to
// write-through timing under either driver.
//
// The inline driver (Workers 0) is the paper-faithful, zero-worker case: the
// queue lives on the owner, which runs one step per empty Iprobe (a Rocpanda
// server's request loop) with its own clock and filesystem view, and a held
// submitter steps inline (overflow_stalls counts those steps). No scheduler
// is constructed, so such a run reports no iosched write tasks.
// Write-through (Buffering off — Rochdf, and Rocpanda's ablation baseline)
// is this driver holding every Submit until the queue is empty: no buffer
// copy is charged and nothing counts as buffered, but each copy of a block
// still takes its step, MidDrain point included. It publishes no file at a
// write's last block; ClosePerBlock publishes each file as each block
// lands, and a later block appends to it (hdf.OpenAppend).
//
// The pool driver (Workers > 0 — T-Rochdf's I/O thread is one worker) hands
// the same step to an internal/iosched pool as ClassWrite tasks (goroutines
// on the channel backend, simulation processes with their own clock and
// filesystem view on the virtual platforms), one task per copy holding the
// block's one charge (iosched.SubmitShared): queue, budget and hold are the
// scheduler's, each writer owns a private blockSink, and the owner keeps
// absorbing blocks while earlier ones land. A held submitter blocks on
// completion signals (iosched.write.backpressure_waits), never sleep-polling.
//
// Ordering and bit-exactness: the inline queue is FIFO and lands a block's
// copies back to back; a pool task's key is its destination file, so the
// scheduler's keyed-ordering invariant (same key => same worker, in
// submission order) gives each file its blocks in exactly the arrival order
// the inline driver uses. The output files are byte-identical under both,
// and every replica is byte-identical to its primary.
//
// Reports: every file a sink publishes is reported to the Writer as what
// the commit records of it (catalog.Record: its size, dataset count,
// directory length and CRC32C, and its pane index record), made from the
// directory its hdf.Writer published, the latest per file (a reopen or an
// append republishes it). The directory itself stays here. Published hands
// the reports out once; the owner calls it after the flush that answers a
// sync or shutdown, so they travel to the commit (Pending.Commit), which
// indexes the files from them instead of reading every directory back off
// the filesystem. A flush that is only a barrier (a restart read of an
// uncommitted generation) leaves them for the next.
//
// Faults: MidBuffer fires on the owner once per buffered block, after it is
// queued (never under write-through). MidDrain fires after each copy lands
// and BeforeMeta inside the sink, on whichever process runs the step — on the
// owner inline, as a fatal task result on a pool writer; a dying writer takes
// the owning process with it (Crashed): a file whose write was whole is
// published, whole, under its final name; one still being written is left
// a staged temporary, never renamed into place. A failed write, publish,
// reopen or close never panics: the first error sticks (ErrorSeries counts
// every one), Flush reports it from then on, and the commit allreduce
// refuses the generation.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

// writerQueueCap is each pool writer's job-queue capacity in blocks; the
// byte budget (or the module's own flush rule), not this bound, is the
// intended flow control.
const writerQueueCap = 4096

// Block is one data block awaiting its steps: the datasets one source handed
// over, and the files they land in — the primary, then any replicas, each a
// copy of the same buffered bytes.
type Block struct {
	File     string   // destination snapshot file: the primary copy
	Replicas []string // further copies, landed after File in this order
	Sets     []roccom.IOSet
	Bytes    int64 // the block's charge against the buffer budget, once for all its copies
	Time     float64
	Step     int32
	// Whole marks the last block of a write its owner knows is whole (a
	// Rocpanda server's, once each of its clients has sent its part): after
	// its datasets, each copy's step publishes the file.
	Whole bool
}

// copies is how many files the block lands in.
func (b *Block) copies() int { return 1 + len(b.Replicas) }

// copyFile names copy i's file: the primary, then the replicas.
func (b *Block) copyFile(i int) string {
	if i == 0 {
		return b.File
	}
	return b.Replicas[i-1]
}

// WriterConfig is what differs between the placements of a Writer.
type WriterConfig struct {
	Profile  hdf.CostProfile // the scientific-library cost model
	Compress bool            // store datasets deflate-compressed
	// Meta follows the time and step attributes of every new file's _meta
	// dataset: who wrote it (server and server count, or rank).
	Meta []hdf.Attr
	// ClosePerBlock closes a file as each block lands and reopens it in
	// append mode for the next: individual I/O, where one write_attribute
	// call is the whole write. Off, a file stays open across a generation's
	// blocks — a server interleaves many clients into one file — and closes
	// when a newer generation's data arrives or at Flush.
	ClosePerBlock bool

	// Buffering is the paper's active buffering; off, every Submit is held
	// until its block is on disk. Workers > 0 selects the pool driver of
	// that width, at most MaxWorkers (Buffering only). MemcpyBW is the
	// buffer-copy bandwidth (bytes/s) charged per buffered block on
	// simulated platforms; Budget bounds the queued bytes (0: unbounded).
	Buffering bool
	Workers   int
	MemcpyBW  float64
	Budget    int64

	// Metrics receives the series named in newWriterMx under Prefix, and
	// the failure count as ErrorSeries; nil disables recording.
	Metrics     *metrics.Registry
	Prefix      string
	ErrorSeries string
	// Crash reports whether the owning process dies at an instrumented
	// point (fault injection); nil never does.
	Crash func(faults.CrashPoint) bool
	// Trace receives one span per pool task on row TraceRank.
	Trace     *trace.Recorder
	TraceRank int
}

// Crashed is the panic a Writer or Reader raises on its owner when the crash
// hook fires or a pool worker died to it; the owner recovers it and dies
// without draining or acknowledging anything.
type Crashed struct{}

// writerMx holds a Writer's registry handles (nil-safe no-ops without a
// registry), created once so the hot paths never touch the registry map.
type writerMx struct {
	blocksBuffered *metrics.Counter
	blocksWritten  *metrics.Counter
	bytesWritten   *metrics.Counter
	filesCreated   *metrics.Counter
	overflowStalls *metrics.Counter
	idlePublishes  *metrics.Counter
	reopened       *metrics.Counter
	errors         *metrics.Counter
	bufBytesPeak   *metrics.Gauge
	drainSeconds   *metrics.Histogram
}

func newWriterMx(r *metrics.Registry, prefix, errorSeries string) writerMx {
	return writerMx{
		blocksBuffered: r.Counter(prefix + "blocks_buffered"),
		blocksWritten:  r.Counter(prefix + "blocks_written"),
		bytesWritten:   r.Counter(prefix + "bytes_written"),
		filesCreated:   r.Counter(prefix + "files_created"),
		overflowStalls: r.Counter(prefix + "overflow_stalls"),
		idlePublishes:  r.Counter(prefix + "idle_publishes"),
		reopened:       r.Counter(prefix + "files_reopened"),
		errors:         r.Counter(errorSeries),
		bufBytesPeak:   r.Gauge(prefix + "buf_bytes_peak"),
		drainSeconds:   r.Histogram(prefix+"drain_seconds", nil),
	}
}

// Writer is one process's write machine, built once per service lifetime.
// Everything but the pool's task closures runs on the owner's goroutine.
type Writer struct {
	cfg   WriterConfig
	clock rt.Clock // the owner's
	mx    writerMx
	err   error // sticky first failure

	// Inline driver: the queue (pending from head on; its array is reused
	// once it drains), its byte count, how many copies of the head block
	// have landed, and the owner's sink.
	queue  []Block
	head   int
	queued int64
	landed int
	sink   *blockSink

	// Pool driver: queue, budget and sinks live in the scheduler.
	eng *iosched.Engine

	flushing atomic.Bool // a Flush is under way: a publish now is on its path, not idle

	mu        sync.Mutex                // guards published: pool sinks report from their workers
	published map[string]catalog.Report // published since the last Published call, the latest per file
}

// NewWriter builds the write machine for the calling process. This is the
// one place the driver is chosen.
func NewWriter(ctx mpi.Ctx, cfg WriterConfig) *Writer {
	w := &Writer{cfg: cfg, clock: ctx.Clock(), mx: newWriterMx(cfg.Metrics, cfg.Prefix, cfg.ErrorSeries)}
	if cfg.Workers <= 0 || !cfg.Buffering {
		w.sink = newBlockSink(w, ctx.Clock(), ctx.FS())
		return w
	}
	w.eng = iosched.New(ctx, iosched.Config{
		Name:     "snapshot-write",
		Workers:  min(cfg.Workers, MaxWorkers),
		Budget:   cfg.Budget,
		QueueCap: writerQueueCap,
		NewState: func(wi int, tc rt.TaskCtx) iosched.WorkerState {
			return newBlockSink(w, tc.Clock(), tc.FS())
		},
		Metrics:    cfg.Metrics,
		Trace:      cfg.Trace,
		TraceRank:  cfg.TraceRank,
		TracePhase: trace.PhaseDrain,
	})
	return w
}

// dies asks the crash hook about point; crashAt dies there if it says so.
func (w *Writer) dies(point faults.CrashPoint) bool {
	return w.cfg.Crash != nil && w.cfg.Crash(point)
}

func (w *Writer) crashAt(point faults.CrashPoint) {
	if w.dies(point) {
		panic(Crashed{})
	}
}

// Submit takes one block into the machine and returns once the queue is
// back within budget — at once with room to spare, after the steps (inline)
// or completions (pool) that make room otherwise. A Rocpanda client's ack
// waits on this, so with room it is delayed only by the buffer copy, not by
// file I/O.
func (w *Writer) Submit(blk Block) {
	buffering := w.cfg.Buffering
	if buffering {
		if w.cfg.MemcpyBW > 0 {
			w.clock.Compute(float64(blk.Bytes) / w.cfg.MemcpyBW)
		}
		w.mx.blocksBuffered.Inc()
	}
	if w.eng != nil {
		// One task per copy, keyed by its file, all holding the block's one
		// charge: the budget gets the bytes back when the last copy lands.
		tasks := make([]*iosched.Task, blk.copies())
		for i := range tasks {
			file := blk.copyFile(i)
			tasks[i] = &iosched.Task{
				Class: iosched.ClassWrite,
				Key:   file,
				Run: func(tc rt.TaskCtx, st iosched.WorkerState) (res iosched.Result) {
					// The BeforeMeta crash point inside the sink panics with
					// Crashed; the writer dies there, its files unclosed.
					defer func() {
						if r := recover(); r != nil {
							if _, died := r.(Crashed); !died {
								panic(r)
							}
							res = iosched.Result{Fatal: true}
						}
					}()
					err := w.land(st.(*blockSink), &blk, file)
					if err != nil {
						w.mx.errors.Inc()
					}
					return iosched.Result{Err: err, Fatal: w.dies(faults.MidDrain)}
				},
			}
		}
		info := w.eng.SubmitShared(blk.Bytes, tasks...)
		w.mx.bufBytesPeak.SetMax(float64(info.Queued))
		if info.Waited && w.eng.Crashed() {
			panic(Crashed{})
		}
		w.crashAt(faults.MidBuffer)
		return
	}
	w.queue = append(w.queue, blk)
	w.queued += blk.Bytes
	w.mx.bufBytesPeak.SetMax(float64(w.queued))
	if !buffering {
		w.drain() // write-through: the submitter is held until the queue is empty
		return
	}
	w.crashAt(faults.MidBuffer)
	for w.Pending() && iosched.OverBudget(w.queued, w.cfg.Budget) {
		w.mx.overflowStalls.Inc()
		w.Step()
	}
}

// Pending reports whether the owner has queued blocks to step through
// between probes; never with the pool, whose writers drain on their own.
func (w *Writer) Pending() bool { return w.head < len(w.queue) }

// Step lands the next copy of the oldest queued block on the owner; the
// block's bytes leave the queue with its last copy. A failure does not stop
// the queue: other files may still complete, and the sticky error already
// blocks every later commit.
func (w *Writer) Step() {
	blk := &w.queue[w.head]
	file := blk.copyFile(w.landed)
	if w.landed++; w.landed == blk.copies() {
		w.head++
		w.queued -= blk.Bytes
		w.landed = 0
	}
	if err := w.land(w.sink, blk, file); err != nil {
		w.Fail(err)
	}
	if !w.Pending() {
		clear(w.queue) // drop the landed blocks' payloads
		w.queue, w.head = w.queue[:0], 0
	}
	w.crashAt(faults.MidDrain)
}

// drain steps the inline queue empty.
func (w *Writer) drain() {
	for w.Pending() {
		w.Step()
	}
}

// land writes one copy of a block, to file, through k — and under
// ClosePerBlock publishes the file, written or not, so what landed is
// published; after a Whole block under active buffering it publishes the
// file, its writer kept to reopen should a later block land in it
// (idle_publishes counts it when no flush had begun) — and records the
// drain latency (the cost active buffering hides) on the clock of
// whichever process runs it.
func (w *Writer) land(k *blockSink, blk *Block, file string) error {
	t0 := k.clock.Now()
	err := k.write(blk, file)
	if w.cfg.ClosePerBlock {
		if cerr := k.closeAll(""); err == nil {
			err = cerr
		}
	} else if err == nil && blk.Whole && w.cfg.Buffering {
		if err = k.publish(file); err == nil && !w.flushing.Load() {
			w.mx.idlePublishes.Inc()
		}
	}
	w.mx.drainSeconds.Observe(k.clock.Now() - t0)
	if err != nil {
		return fmt.Errorf("snapshot: writing %s: %w", file, err)
	}
	return nil
}

// Flush forces every queued block to disk and publishes every snapshot
// file still open, returning the sticky error (nil when all output landed).
// With the pool it is iosched.Flush: every writer finishes its queue,
// publishes its open files and acks with its own sticky error. Panics with
// Crashed if a writer died to an injected crash.
func (w *Writer) Flush() error {
	w.flushing.Store(true)
	defer w.flushing.Store(false)
	if w.eng == nil {
		w.drain()
		if err := w.sink.closeAll(""); err != nil {
			w.Fail(err)
		}
		return w.err
	}
	if w.eng.Crashed() {
		panic(Crashed{})
	}
	err := w.eng.Flush()
	if w.eng.Crashed() {
		panic(Crashed{})
	}
	if err != nil && w.err == nil {
		w.err = err // counted by the writer that hit it
	}
	return w.err
}

// Fail records a failure seen on the owner: a failed block write or
// publish, or (a Rocpanda server) a message that arrived damaged. The first
// error sticks: Flush reports it from then on, so no generation after the
// failure can commit.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.mx.errors.Inc()
}

// Err returns the sticky error as the owner knows it: every inline failure
// so far, and what the last Flush reported from the pool.
func (w *Writer) Err() error { return w.err }

// Published hands out, once and sorted by name, the reports of the files
// published since the last call: what the commit records of each, the
// latest per file. Call it after a Flush, when every file of what was
// flushed is published.
func (w *Writer) Published() []catalog.Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	rs := make([]catalog.Report, 0, len(w.published))
	for _, r := range w.published {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	w.published = nil
	return rs
}

// report records what the commit records of a file a sink published.
func (w *Writer) report(r catalog.Report) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.published == nil {
		w.published = make(map[string]catalog.Report)
	}
	w.published[r.Name] = r
}

// Crashed reports whether a pool writer died to an injected crash; the
// owner polls it and takes the process down.
func (w *Writer) Crashed() bool { return w.eng != nil && w.eng.Crashed() }

// Close tears the pool down (idempotent; a no-op inline) so the
// simulation's non-daemon writer processes always terminate.
func (w *Writer) Close() {
	if w.eng != nil {
		w.eng.Close()
	}
}

// blockSink owns a generation's snapshot writers and appends blocks to
// them: the owner's under the inline driver, one per writer task under the
// pool — its private iosched.WorkerState, with the worker's own clock
// identity and filesystem view (required by the simulated platforms) — so
// sinks never share mutable state. A pool writer's open files stay staged
// temporaries if it dies to an injected crash, as a real process death
// would leave them.
type blockSink struct {
	w     *Writer
	clock rt.Clock
	fs    rt.FS
	// writers holds the generation's files by name: open, or published
	// after a whole write and kept to be reopened.
	writers  map[string]*hdf.Writer
	metaDone map[string]bool
}

func newBlockSink(w *Writer, clock rt.Clock, fs rt.FS) *blockSink {
	return &blockSink{
		w: w, clock: clock, fs: fs,
		writers:  make(map[string]*hdf.Writer),
		metaDone: make(map[string]bool),
	}
}

// Flush implements iosched.WorkerState: the barrier publishes every open
// file.
func (k *blockSink) Flush() error {
	err := k.closeAll("")
	if err != nil {
		k.w.mx.errors.Inc()
	}
	return err
}

// Close implements iosched.WorkerState. It closes nothing: files still open
// when a writer exits belong to a dead process and stay staged.
func (k *blockSink) Close() error { return nil }

// publish publishes the open file name and reports what the commit
// records of it (catalog.Record, over the directory just written).
func (k *blockSink) publish(name string) error {
	p, err := k.writers[name].Publish()
	var r catalog.Report
	if err == nil {
		r, err = catalog.Record(p.Raw())
	}
	if err != nil {
		return fmt.Errorf("snapshot: publishing %s: %w", name, err)
	}
	k.w.report(r)
	return nil
}

// write appends one block's datasets to file, opening it first if needed.
// Opening a new snapshot file publishes and forgets the previous
// snapshots' writers (writes are ordered across generations, so once a
// newer snapshot's data drains, older files are complete). A file published
// after a whole write is reopened from its writer (hdf.Writer.Reopen); one
// created and published before but no longer held (by ClosePerBlock, or by
// a flush while another client's blocks were still inbound) is appended to
// — recreating it would truncate the blocks already on disk.
//
// Errors are returned, not panicked: a full disk must surface through the
// sticky error and the commit allreduce, not tear the whole run down.
func (k *blockSink) write(blk *Block, file string) error {
	cfg, mx := &k.w.cfg, &k.w.mx
	w, ok := k.writers[file]
	switch {
	case ok && w.Closed():
		if err := w.Reopen(); err != nil {
			return err
		}
		mx.reopened.Inc()
	case !ok:
		if err := k.closeAll(baseOf(file)); err != nil {
			return err
		}
		var err error
		if k.metaDone[file] {
			w, err = hdf.OpenAppend(k.fs, file, k.clock, cfg.Profile)
		} else {
			w, err = hdf.Create(k.fs, file, k.clock, cfg.Profile)
		}
		if err != nil {
			return err
		}
		if !k.metaDone[file] {
			mx.filesCreated.Inc()
		}
		w.Compress = cfg.Compress
		w.Metrics = cfg.Metrics
		k.writers[file] = w
	}
	if !k.metaDone[file] {
		k.w.crashAt(faults.BeforeMeta)
		k.metaDone[file] = true
		attrs := append([]hdf.Attr{hdf.F64Attr("time", blk.Time), hdf.I32Attr("step", blk.Step)}, cfg.Meta...)
		if err := w.CreateDataset("_meta", hdf.U8, []int64{0}, attrs, nil); err != nil {
			return fmt.Errorf("meta: %w", err)
		}
	}
	for _, set := range blk.Sets {
		if err := w.CreateDataset(set.Name, set.Type, set.Dims, set.Attrs, set.Data); err != nil {
			return err
		}
	}
	mx.blocksWritten.Inc()
	mx.bytesWritten.Add(blk.Bytes)
	return nil
}

// closeAll publishes every open writer except those of the named
// generation base ("" publishes everything), reporting each file it
// published, and forgets every writer it covers, open or already
// published; it returns the first failure (a writer that failed its
// publish is forgotten too — a handle that failed is not worth retrying,
// and its file is not reported). Closing by generation, not by file, keeps
// a generation's primary and replica writers open side by side while
// their copies interleave; writes are still ordered across generations,
// so once a newer snapshot's data drains, the older generation's files are
// complete and can close.
func (k *blockSink) closeAll(exceptGen string) error {
	names := make([]string, 0, len(k.writers))
	for name := range k.writers {
		if exceptGen == "" || baseOf(name) != exceptGen {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var first error
	for _, name := range names {
		if !k.writers[name].Closed() {
			if err := k.publish(name); err != nil && first == nil {
				first = err
			}
		}
		delete(k.writers, name)
	}
	return first
}
