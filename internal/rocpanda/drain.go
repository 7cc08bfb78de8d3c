package rocpanda

// The write engine: the one implementation of the paper's server-side
// snapshot write (§6.1, Figure 2 — buffer a block, drain one block whenever
// the non-blocking probe comes back empty, block in probe when clean). It is
// one state machine with two drivers.
//
// The state machine. submit takes a decoded block into the queue (charging
// the buffer copy and counting it under active buffering); a step pops the
// oldest queued block, appends it to its snapshot file through a blockSink,
// observes drain_seconds and then visits the MidDrain crash point; flush
// empties the queue, closes every open file and returns the sticky first
// error — the barrier-before-commit that sync, restart reads of an
// uncommitted generation and shutdown rely on. Only after it may a client
// write the generation's manifest, so crash consistency, catalog
// publication and generation fallback do not depend on the driver.
//
// The budget rule, stated once: Config.BufferBudgetBytes bounds the queued
// bytes under the iosched.Writeback policy. A submit that leaves the queue
// over budget holds the submitter — delaying that client's ack — until
// steps bring it back under; 0 is unbounded, and a budget smaller than any
// block degenerates to write-through timing under either driver.
//
// The inline driver (Config.AsyncDrain off) is the paper-faithful
// configuration and the zero-worker case: the queue lives on the request
// loop, which runs one step per empty Iprobe (server.run) with the server's
// own clock and filesystem view, and a held submitter steps inline
// (rocpanda.server.overflow_stalls counts those steps). No scheduler is
// constructed, so such a run reports no iosched write tasks. Write-through
// (Config.ActiveBuffering off) is this driver holding every submit until
// the queue is empty: no buffer copy is charged and nothing counts as
// buffered, but a block still takes the one step, MidDrain point included.
//
// The pool driver (Config.AsyncDrain) hands the same step to an
// internal/iosched pool as ClassWrite tasks (real goroutines on the channel
// backend, simulation processes with their own clock and filesystem view on
// the virtual platforms): queue, budget and hold are the scheduler's, each
// writer owns a private blockSink, and the request loop keeps absorbing
// client writes while blocks land. A held submitter blocks on completion
// signals (iosched.write.backpressure_waits), never sleep-polling.
//
// Ordering and bit-exactness: the inline queue is FIFO; a pool task's key is
// its destination file, so the scheduler's keyed-ordering invariant (same
// key => same worker, in submission order) gives each file its blocks in
// exactly the arrival order the inline driver uses. The output files are
// byte-identical under both.
//
// Faults: MidBuffer fires on the request loop after a buffered block is
// queued (never under write-through, which buffers nothing). MidDrain fires
// after a block lands — on the request loop inline, as a fatal task result
// on a pool writer — and BeforeMeta inside the sink, on whichever process
// runs the step; a dying writer takes the server process with it, its files
// left as staged temporaries. A failed write or close never panics: the
// first error sticks (rocpanda.drain.errors counts every one), flush
// reports it on every later sync and shutdown ack, and the clients' commit
// allreduce refuses the generation (see Client.Sync).

import (
	"fmt"
	"sort"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

const (
	// maxDrainWriters caps Config.DrainWriters.
	maxDrainWriters = 8
	// drainQueueCap is each writer's job-queue capacity in blocks; the
	// byte budget, not this bound, is the intended flow control.
	drainQueueCap = 4096
)

// pendingBlock is one data block awaiting its step.
type pendingBlock struct {
	fname string
	sets  []roccom.IOSet
	bytes int64
	time  float64
	step  int32
}

// writeEngine is one server's write machine, built once per server
// lifetime. Everything but the pool's task closures runs on the server
// goroutine.
type writeEngine struct {
	s   *server
	err error // sticky first failure

	// Inline driver: the queue, its byte count and the request loop's sink.
	queue  []pendingBlock
	queued int64
	sink   *blockSink

	// Pool driver: queue, budget and sinks live in the scheduler.
	eng *iosched.Engine
}

// drainState is a pool writer's private iosched.WorkerState: a blockSink
// with the worker's own clock identity and filesystem view. Its files stay
// open (staged temporaries) if the worker dies to an injected crash, as a
// real process death would leave them.
type drainState struct{ sink *blockSink }

// Flush implements iosched.WorkerState: the barrier closes every file.
func (d *drainState) Flush() error {
	err := d.sink.closeAll("")
	if err != nil {
		d.sink.s.mx.drainErrors.Inc()
	}
	return err
}

// Close implements iosched.WorkerState (never called: the drain pool
// keeps state unclosed on exit, see Config.CloseStateOnExit).
func (d *drainState) Close() error { return nil }

// newWriteEngine builds the server's write machine. This is the one place
// the driver is chosen.
func newWriteEngine(s *server) *writeEngine {
	w := &writeEngine{s: s}
	if !s.cfg.AsyncDrain || !s.cfg.ActiveBuffering {
		w.sink = newBlockSink(s, s.ctx.Clock(), s.ctx.FS())
		return w
	}
	w.eng = iosched.New(s.ctx, iosched.Config{
		Name:       "panda-drain",
		Workers:    s.cfg.DrainWriters,
		MaxWorkers: maxDrainWriters,
		Budget:     s.cfg.BufferBudgetBytes,
		QueueCap:   drainQueueCap,
		Policy:     iosched.Writeback{},
		FlushClass: iosched.ClassWrite,
		NewState: func(wi int, tc rt.TaskCtx) iosched.WorkerState {
			return &drainState{sink: newBlockSink(s, tc.Clock(), tc.FS())}
		},
		// An injected crash point (BeforeMeta inside the sink) panics with
		// serverCrashed; the worker dies with its files unclosed.
		FatalPanic: func(r interface{}) bool { _, died := r.(serverCrashed); return died },
		Metrics:    s.cfg.Metrics,
		Trace:      s.cfg.Trace,
		TraceRank:  s.traceRank(),
		TracePhase: trace.PhaseDrain,
		// The drain timeline records every block span, including
		// zero-width ones on the virtual platforms.
		TraceZeroSpans: true,
	})
	return w
}

// submit takes one block into the machine and returns once the queue is
// back within budget — at once with room to spare, after the steps (inline)
// or completions (pool) that make room otherwise. The client's ack waits on
// this, so with room it is delayed only by the buffer copy, not by file
// I/O.
func (w *writeEngine) submit(blk pendingBlock) {
	s := w.s
	buffering := s.cfg.ActiveBuffering
	if buffering {
		if s.cfg.MemcpyBW > 0 {
			s.ctx.Clock().Compute(float64(blk.bytes) / s.cfg.MemcpyBW)
		}
		s.mx.blocksBuffered.Inc()
	}
	if w.eng != nil {
		info := w.eng.Submit(&iosched.Task{
			Class: iosched.ClassWrite,
			Key:   blk.fname,
			Cost:  blk.bytes,
			Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
				err := w.land(st.(*drainState).sink, blk)
				if err != nil {
					s.mx.drainErrors.Inc()
				}
				return iosched.Result{Err: err, Fatal: s.cfg.Crash.Hit(s.idx, faults.MidDrain)}
			},
		})
		s.mx.bufBytesPeak.SetMax(float64(info.Queued))
		if info.Waited && w.eng.Crashed() {
			panic(serverCrashed{})
		}
		s.maybeCrash(faults.MidBuffer)
		return
	}
	w.queue = append(w.queue, blk)
	w.queued += blk.bytes
	s.mx.bufBytesPeak.SetMax(float64(w.queued))
	if !buffering {
		w.drain() // write-through: the submitter is held until the queue is empty
		return
	}
	s.maybeCrash(faults.MidBuffer)
	for w.pending() && (iosched.Writeback{}).HoldSubmitter(w.queued, s.cfg.BufferBudgetBytes) {
		s.mx.overflowStalls.Inc()
		w.step()
	}
}

// pending reports whether the request loop has queued blocks to step
// through between probes; never with the pool, whose writers drain on
// their own.
func (w *writeEngine) pending() bool { return len(w.queue) > 0 }

// step drains the oldest queued block on the request loop. A failure does
// not stop the queue: other files may still complete, and the sticky error
// already blocks every later commit.
func (w *writeEngine) step() {
	blk := w.queue[0]
	w.queue = w.queue[1:]
	w.queued -= blk.bytes
	if err := w.land(w.sink, blk); err != nil {
		w.noteDrainErr(err)
	}
	w.s.maybeCrash(faults.MidDrain)
}

// drain steps the inline queue empty.
func (w *writeEngine) drain() {
	for w.pending() {
		w.step()
	}
}

// land writes one block through k and records its drain latency (the cost
// active buffering hides) on the clock of whichever process runs it.
func (w *writeEngine) land(k *blockSink, blk pendingBlock) error {
	t0 := k.clock.Now()
	err := k.write(blk)
	w.s.mx.drainSeconds.Observe(k.clock.Now() - t0)
	return err
}

// flush forces every queued block to disk and closes the snapshot files,
// returning the sticky error (nil when all output landed). With the pool
// it is iosched.Flush: every writer finishes its queue, closes its files
// and acks with its own sticky error. Panics with serverCrashed if a
// writer died to an injected crash.
func (w *writeEngine) flush() error {
	if w.eng == nil {
		w.drain()
		if err := w.sink.closeAll(""); err != nil {
			w.noteDrainErr(err)
		}
		return w.err
	}
	if w.eng.Crashed() {
		panic(serverCrashed{})
	}
	err := w.eng.Flush()
	if w.eng.Crashed() {
		panic(serverCrashed{})
	}
	if err != nil && w.err == nil {
		w.err = err // counted by the writer that hit it
	}
	return w.err
}

// noteDrainErr records a failure seen on the request loop: a failed block
// write or file close, or a block that arrived undecodable. The first
// error sticks: it is reported on every subsequent sync/shutdown ack, so
// no generation after the failure can commit.
func (w *writeEngine) noteDrainErr(err error) {
	if w.err == nil {
		w.err = err
	}
	w.s.mx.drainErrors.Inc()
}

// crashed reports whether a pool writer died to an injected crash; the
// request loop polls it and takes the process down.
func (w *writeEngine) crashed() bool { return w.eng != nil && w.eng.Crashed() }

// close tears the pool down (idempotent; a no-op inline) so the
// simulation's non-daemon writer processes always terminate.
func (w *writeEngine) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}

// blockSink owns a set of open snapshot writers and appends blocks to
// them: the request loop's own under the inline driver, one per writer
// task under the pool (its own clock identity and filesystem view,
// required by the simulated platforms), so sinks never share mutable
// state.
type blockSink struct {
	s        *server
	clock    rt.Clock
	fs       rt.FS
	writers  map[string]*hdf.Writer
	metaDone map[string]bool
}

func newBlockSink(s *server, clock rt.Clock, fs rt.FS) *blockSink {
	return &blockSink{
		s: s, clock: clock, fs: fs,
		writers:  make(map[string]*hdf.Writer),
		metaDone: make(map[string]bool),
	}
}

// write appends one block's datasets to the snapshot file, opening it
// first if needed. Opening a new snapshot file closes the previous
// snapshot's writers (collective writes are ordered, so once a newer
// snapshot's data drains, older files are complete). A file that was
// already created and closed (for example by one client's sync while
// another client's blocks were still inbound) is reopened in append mode —
// recreating it would truncate the blocks already on disk.
//
// Errors are returned, not panicked: a full disk on a server must surface
// through the sync acks and the clients' commit allreduce, not tear the
// whole run down (see noteDrainErr and Client.Sync).
func (k *blockSink) write(blk pendingBlock) error {
	s := k.s
	w, ok := k.writers[blk.fname]
	if !ok {
		if err := k.closeAll(genBase(blk.fname)); err != nil {
			return err
		}
		var err error
		if k.metaDone[blk.fname] {
			w, err = hdf.OpenAppend(k.fs, blk.fname, k.clock, s.cfg.Profile)
		} else {
			w, err = hdf.Create(k.fs, blk.fname, k.clock, s.cfg.Profile)
		}
		if err != nil {
			return fmt.Errorf("rocpanda: server %d: %w", s.idx, err)
		}
		if !k.metaDone[blk.fname] {
			s.mx.filesCreated.Inc()
		}
		w.Compress = s.cfg.Compress
		w.Metrics = s.cfg.Metrics
		k.writers[blk.fname] = w
	}
	if !k.metaDone[blk.fname] {
		s.maybeCrash(faults.BeforeMeta)
		k.metaDone[blk.fname] = true
		err := w.CreateDataset("_meta", hdf.U8, []int64{0}, []hdf.Attr{
			hdf.F64Attr("time", blk.time),
			hdf.I32Attr("step", blk.step),
			hdf.I32Attr("server", int32(s.idx)),
			hdf.I32Attr("nservers", int32(s.numServers)),
		}, nil)
		if err != nil {
			return fmt.Errorf("rocpanda: server %d writing %s meta: %w", s.idx, blk.fname, err)
		}
	}
	for _, set := range blk.sets {
		if err := w.CreateDataset(set.Name, set.Type, set.Dims, set.Attrs, set.Data); err != nil {
			return fmt.Errorf("rocpanda: server %d writing %s: %w", s.idx, blk.fname, err)
		}
	}
	s.mx.blocksWritten.Inc()
	s.mx.bytesWritten.Add(blk.bytes)
	return nil
}

// genBase is a snapshot file's generation base, the key sinks close by.
func genBase(fname string) string {
	base, _, _, _ := catalog.ParseServerFile(fname)
	return base
}

// closeAll closes every open writer except those of the named generation
// base ("" closes everything), returning the first failure (all affected
// writers are closed and forgotten regardless — a handle that failed its
// close is not worth retrying). Closing by generation, not by file, keeps
// a generation's primary and replica writers open side by side while its
// copies interleave; collective writes are still ordered across
// generations, so once a newer snapshot's data drains, the older
// generation's files are complete and can close.
func (k *blockSink) closeAll(exceptGen string) error {
	names := make([]string, 0, len(k.writers))
	for name := range k.writers {
		if exceptGen == "" || genBase(name) != exceptGen {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var first error
	for _, name := range names {
		if err := k.writers[name].Close(); err != nil && first == nil {
			first = err
		}
		delete(k.writers, name)
	}
	return first
}
