package rocpanda

// The background drain engine: the asynchronous writeback the paper's
// servers use to hide file I/O behind client computation. With
// Config.AsyncDrain the server no longer drains its buffer inline between
// probe polls; instead the blocks become ClassWrite tasks on an
// internal/iosched pool (real goroutines on the channel backend,
// simulation processes with their own clock and filesystem view on the
// virtual platforms) that continuously empties a bounded queue while the
// request loop keeps absorbing client writes.
//
// Ordering and bit-exactness: a block's task key is its destination file,
// so the scheduler's keyed-ordering invariant (same key => same worker, in
// submission order) gives each file its blocks in exactly the arrival
// order the synchronous drain would have used — the output files are
// byte-identical between the two modes.
//
// Backpressure: Config.BufferBudgetBytes becomes the scheduler budget
// under the Writeback policy. An enqueue that overruns it stalls the
// request loop (delaying the client's ack) on completion signals — no
// sleep-polling — until the writers catch up, so a one-block budget
// degenerates to write-through timing while an ample budget gives full
// overlap.
//
// Commit safety: flushOutput (the barrier behind Sync, restart scans and
// shutdown) is iosched.Flush: every worker finishes its queue, closes its
// files and acks with its sticky error. Only then may a client write the
// generation's manifest, so crash consistency, catalog publication and
// generation fallback are unchanged from the synchronous drain.
//
// Faults: the existing crash points fire on the writer task (MidDrain via
// a fatal task result, BeforeMeta via the sink's panic) exactly as they
// fire on the synchronous path, and a writer that observes a file error
// reports it through the flush ack so the client-side allreduce refuses
// the commit (see client.Sync).

import (
	"genxio/internal/faults"
	"genxio/internal/iosched"
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

// drainState is a writer's private iosched.WorkerState: a blockSink with
// the worker's own clock identity and filesystem view. Its files stay
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

// drainEngine adapts one server's async writeback onto internal/iosched.
// All entry points (enqueue, flushBarrier, close) run on the server
// goroutine.
type drainEngine struct {
	s   *server
	eng *iosched.Engine
	// wms collects per-writer sink tallies (blocks, bytes, files); each
	// entry is written only by its worker, and read only after the
	// worker's exit message has been received (close).
	wms    []ServerMetrics
	closed bool
}

// newDrainEngine builds the scheduler instance and spawns its writers.
func newDrainEngine(s *server) *drainEngine {
	e := &drainEngine{s: s, wms: make([]ServerMetrics, maxDrainWriters)}
	e.eng = iosched.New(s.ctx, iosched.Config{
		Name:       "panda-drain",
		Workers:    s.cfg.DrainWriters,
		MaxWorkers: maxDrainWriters,
		Budget:     s.cfg.BufferBudgetBytes,
		QueueCap:   drainQueueCap,
		Policy:     iosched.Writeback{},
		FlushClass: iosched.ClassWrite,
		NewState: func(wi int, tc rt.TaskCtx) iosched.WorkerState {
			return &drainState{sink: newBlockSink(s, tc.Clock(), tc.FS(), &e.wms[wi])}
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
	return e
}

// crashed reports whether a writer died to an injected crash; the request
// loop polls it and takes the process down.
func (e *drainEngine) crashed() bool { return e.eng.Crashed() }

// enqueue hands one buffered block to the scheduler, which may stall the
// request loop on the byte budget. Runs on the server goroutine.
func (e *drainEngine) enqueue(blk pendingBlock) {
	s := e.s
	info := e.eng.Submit(&iosched.Task{
		Class: iosched.ClassWrite,
		Key:   blk.fname,
		Cost:  blk.bytes,
		Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
			t0 := tc.Clock().Now()
			err := st.(*drainState).sink.write(blk)
			s.mx.drainSeconds.Observe(tc.Clock().Now() - t0)
			if err != nil {
				s.mx.drainErrors.Inc()
			}
			return iosched.Result{
				Err: err,
				// MidDrain fires after the block lands (and its span and
				// tallies are recorded), exactly as on the synchronous
				// path.
				Fatal: s.cfg.Crash.Hit(s.idx, faults.MidDrain),
			}
		},
	})
	// The queue's occupancy is the async mode's buffer: its byte peak is
	// the server's buffer peak.
	s.m.MaxBufBytes = max(s.m.MaxBufBytes, info.Queued)
	s.mx.bufBytesPeak.SetMax(float64(info.Queued))
	if info.Waited && e.eng.Crashed() {
		panic(serverCrashed{})
	}
}

// flushBarrier empties the pool: every writer finishes its queue, closes
// its files and acks. Returns the first sticky writer error. Panics with
// serverCrashed if a writer died to an injected crash. Runs on the server
// goroutine.
func (e *drainEngine) flushBarrier() error {
	if e.eng.Crashed() {
		panic(serverCrashed{})
	}
	err := e.eng.Flush()
	if e.eng.Crashed() {
		panic(serverCrashed{})
	}
	return err
}

// close tears the pool down and merges the writers' tallies into the
// server's metrics. Called exactly once, from run's deferred cleanup, on
// both the normal and the crashed path — so OnServerDone always sees the
// writers' completed counts, and the simulation's non-daemon writer
// processes always terminate.
func (e *drainEngine) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.eng.Close()
	for i := range e.wms {
		e.s.m.BlocksWritten += e.wms[i].BlocksWritten
		e.s.m.BytesWritten += e.wms[i].BytesWritten
		e.s.m.FilesCreated += e.wms[i].FilesCreated
	}
	t := e.eng.Tally(iosched.ClassWrite)
	e.s.m.OverlapSeconds += t.Overlap
	e.s.m.DrainErrors += int(t.Errors)
	e.s.m.DrainQueuePeak = t.DepthPeak
	e.s.m.BackpressureWaits = int(t.Waits)
	if e.eng.Crashed() {
		e.s.m.Crashed = true
	}
}
