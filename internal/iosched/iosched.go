// Package iosched is the unified budgeted I/O scheduler behind every
// background engine in the library: the snapshot write service's pool
// (snapshot.Writer — the Rocpanda async-drain writer pool and T-Rochdf's
// per-process I/O thread) and the Rocpanda parallel restart read pool are
// thin adapters over one Engine. It realizes the paper's
// "yield to new client requests" across request classes instead of once
// per feature:
//
//   - Typed tasks. A Task carries a Class (write-block, read-extent), a
//     routing Key, a byte Cost, and a Run closure executed on a worker with
//     that worker's own clock identity and filesystem view.
//
//   - Keyed ordering. Tasks with the same non-empty Key execute on one
//     worker in submission order (FNV-32a of the key over the pool width) —
//     the file-routing guarantee that keeps async-drain output
//     byte-identical to a synchronous drain is a scheduler invariant here,
//     not a drain-engine detail. A task with an empty Key goes to the
//     worker dealt the fewest bytes (Cost) so far, ties to the round-robin
//     cursor: a batch of mixed sizes (a read round's pieces, tails and
//     short runs) ends with every worker's bytes within one task's cost of
//     the others', and an equal-cost batch deals round-robin by index. The
//     restart reader cuts every read it batches, data and metadata alike,
//     by one rule into pieces of known bytes — a data file's runs from its
//     plan, a directory from the catalog's file table — costs each task
//     at its piece's bytes and submits each batch largest first, so the
//     deal starts the longest pieces first and the short ones fill the
//     workers up to the same bytes.
//
//   - Budget admission on completion signals. Config.Budget bounds the
//     task bytes in flight. The gate never sleep-polls: a stalled
//     submitter blocks on the control queue and is woken by the very
//     completion that releases budget. The two entry points are the two
//     admission rules. Submit streams (drain engines): every task is
//     enqueued, then the submitter is held while OverBudget — write-through
//     degeneration at tiny budgets; SubmitShared streams tasks that hold
//     one charge together (a replicated block's copies), released by the
//     last of their completions. RunBatch runs a bounded list (restart
//     rounds): a task is admitted while it fits the budget or nothing is in
//     flight — serial degeneration at tiny budgets. Because admission is
//     per Engine instance, a restart-read instance is serviced immediately
//     even while a drain instance is still emptying a previous generation's
//     queue — cross-engine overlap, not just overlap within one engine.
//
//   - One metrics and trace surface. The Engine owns the
//     iosched.<class>.{queue_depth,backpressure_waits,overlap_seconds,
//     errors,busy_seconds,tasks} series and hands the trace recorder one
//     span per task Run, zero-width ones included (trace.Recorder keeps
//     the spans with width) — the registry is the only tally.
//     errors counts failed tasks; a failed worker-state Flush is the
//     adapter's to count. overlap_seconds is task time outside a barrier;
//     RunBatch runs under one, so batch overlap is what the consumer notes
//     (NoteOverlap). An adapter that needs an event as it happens takes it
//     from what the engine returns (SubmitInfo, Completion) or measures
//     inside its Run closure; there are no observer hooks.
//
//   - Crashes are results. A task whose process dies at an injected crash
//     point returns Result.Fatal: its worker reports the completion and
//     exits, and the engine reports Crashed. A panic in Run is a bug and
//     propagates.
//
// Concurrency contract: Submit, Flush, RunBatch and Close run on the
// owning rank's goroutine; Run closures execute on the spawned workers.
// The two sides share only the queues and three atomics (barrier, crashed,
// dead), which keeps both the race detector and the deterministic
// simulation happy.
package iosched

import (
	"hash/fnv"
	"sync/atomic"

	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// Class is a task's request class. The scheduler accounts queue depth,
// backpressure, overlap, and errors per class.
type Class int

const (
	// ClassWrite is a buffered-block writeback (drain engines).
	ClassWrite Class = iota
	// ClassRead is a planned extent read (restart).
	ClassRead
	numClasses
)

// String returns the metric-name label of the class.
func (c Class) String() string {
	switch c {
	case ClassWrite:
		return "write"
	case ClassRead:
		return "read"
	}
	return "unknown"
}

// Task is one schedulable unit of I/O work.
type Task struct {
	// Class selects the accounting bucket.
	Class Class
	// Key routes the task: equal non-empty keys serialize on one worker
	// in submission order; an empty key deals to the worker with the
	// fewest bytes dealt so far.
	Key string
	// Cost is the task's byte charge against Config.Budget (Submit and
	// RunBatch; SubmitShared charges its tasks together instead).
	Cost int64
	// Run does the work on a worker, with the worker's clock and
	// filesystem (via TaskCtx) and the worker's private state.
	Run func(tc rt.TaskCtx, st WorkerState) Result

	share *share // the charge this task holds with others (SubmitShared)
	wi    int    // the worker it was put to
}

// share is one budget charge held by several tasks: the bytes count once
// and are released when the last of the tasks completes. Only the
// submitter goroutine touches it, counting completions as it consumes them.
type share struct {
	cost int64
	left int
}

// Result is what a Task's Run returns.
type Result struct {
	// Err is the task's failure, if any; it becomes the worker's sticky
	// error (reported by every later Flush) and counts in the class's
	// error metrics.
	Err error
	// Value is the task's payload, handed to the completion consumer.
	Value interface{}
	// Fatal kills the worker after the completion is reported — an
	// injected crash; the worker's exit message carries the verdict.
	Fatal bool
}

// Completion reports one finished task back to the submitter. The control
// queue handoff is the happens-before edge covering everything Run wrote.
type Completion struct {
	Task   *Task
	Result Result
	// T0 and T1 bracket Run on the worker's clock.
	T0, T1 float64
	// Cancelled marks a task discarded after Close (dead pool): Run never
	// executed, only its budget is released.
	Cancelled bool
}

// WorkerState is a worker's private per-pool state (open file handles, a
// block sink). Flush is the barrier hook: finish and close everything so
// prior output is durable. Close tears the state down at every worker exit,
// crashed or not.
type WorkerState interface {
	Flush() error
	Close() error
}

// noState is the default WorkerState: stateless workers.
type noState struct{}

func (noState) Flush() error { return nil }
func (noState) Close() error { return nil }

// Config configures an Engine.
type Config struct {
	// Name is the spawn name of the workers (shows in simulation traces).
	Name string
	// Workers is the pool width (at least 1).
	Workers int
	// Budget bounds the task bytes in flight; <= 0 is unbounded.
	Budget int64
	// QueueCap is each worker's job-queue capacity (>= 1). RunBatch puts
	// no task to a worker holding QueueCap unfinished ones, so a batch of
	// any size runs on a queue of any capacity.
	QueueCap int
	// NewState builds a worker's private state; nil means stateless.
	NewState func(wi int, tc rt.TaskCtx) WorkerState

	// Metrics receives the unified iosched.<class>.* series; nil
	// disables them.
	Metrics *metrics.Registry
	// Trace, TraceRank and TracePhase receive the task spans; a nil
	// recorder disables them.
	Trace      traceRecorder
	TraceRank  int
	TracePhase string
}

// traceRecorder is the slice of trace.Recorder the engine needs; an
// interface so a nil recorder simply disables spans without importing the
// concrete type into every adapter signature.
type traceRecorder interface {
	Record(rank int, phase string, t0, t1 float64)
}

// control-queue message types (besides Completion).
type flushToken struct{}
type flushAck struct{ err error }
type workerExit struct{}

// classMx holds one class's unified metric handles (nil-safe no-ops
// without a registry).
type classMx struct {
	depth   *metrics.Gauge
	waits   *metrics.Counter
	overlap *metrics.Histogram
	errors  *metrics.Counter
	busy    *metrics.Histogram
	tasks   *metrics.Counter
}

// Engine is one budgeted worker pool. See the package comment for the
// concurrency contract.
type Engine struct {
	cfg   Config
	clock rt.Clock // the submitter's clock identity
	nw    int
	jobs  []rt.Queue
	ctl   rt.Queue

	barrier atomic.Bool // a Flush or RunBatch is in progress (work then isn't overlap)
	crashed atomic.Bool // a worker died (injected crash)
	dead    atomic.Bool // pool closed: workers cancel instead of running

	// Submitter-goroutine-only state.
	queued     int64
	depth      int
	classDepth [numClasses]int
	rr         int     // round-robin cursor: where unkeyed ties go
	dealt      []int64 // unkeyed task bytes routed to each worker so far
	qcap       int
	out        []int // tasks put to each worker and not yet completed
	exited     int
	closed     bool
	mx         [numClasses]classMx
}

// New builds the pool and spawns its workers.
func New(ctx mpi.Ctx, cfg Config) *Engine {
	nw := max(cfg.Workers, 1)
	qcap := max(cfg.QueueCap, 1)
	e := &Engine{
		cfg:   cfg,
		clock: ctx.Clock(),
		nw:    nw,
		dealt: make([]int64, nw),
		qcap:  qcap,
		out:   make([]int, nw),
		// One slot per possibly-outstanding task plus every ack and exit:
		// a worker never blocks reporting, so a stalled or absent
		// submitter can never wedge the pool.
		ctl: ctx.NewQueue(nw*qcap + 2*nw + 4),
	}
	for c := Class(0); c < numClasses; c++ {
		e.mx[c] = newClassMx(cfg.Metrics, c)
	}
	// All queues exist before any worker starts: a worker indexes e.jobs,
	// and growing the slice under it would race.
	for wi := 0; wi < nw; wi++ {
		e.jobs = append(e.jobs, ctx.NewQueue(qcap))
	}
	for wi := 0; wi < nw; wi++ {
		wi := wi
		ctx.Spawn(cfg.Name, func(tc rt.TaskCtx) { e.runWorker(wi, tc) })
	}
	return e
}

func newClassMx(r *metrics.Registry, c Class) classMx {
	if r == nil {
		return classMx{}
	}
	p := "iosched." + c.String() + "."
	return classMx{
		depth:   r.Gauge(p + "queue_depth"),
		waits:   r.Counter(p + "backpressure_waits"),
		overlap: r.Histogram(p+"overlap_seconds", nil),
		errors:  r.Counter(p + "errors"),
		busy:    r.Histogram(p+"busy_seconds", nil),
		tasks:   r.Counter(p + "tasks"),
	}
}

// Crashed reports whether a worker died to an injected crash.
func (e *Engine) Crashed() bool { return e.crashed.Load() }

// NoteOverlap records class overlap decided by the adapter: a batch's,
// which the workers never count themselves. Submitter goroutine.
func (e *Engine) NoteOverlap(c Class, seconds float64) {
	e.mx[c].overlap.Observe(seconds)
}

// route assigns a task to a worker: FNV-32a of the key — stable, so one
// key's tasks always execute on one worker, in submission order — or, when
// unkeyed, the worker dealt the fewest bytes so far, the first such from
// the round-robin cursor. Dealing each task to the lightest worker keeps
// any two workers' bytes within the largest task's cost of each other; when
// every task costs the same, the lightest worker from the cursor is the
// cursor itself, so equal-cost tasks deal round-robin by submission index.
func (e *Engine) route(t *Task) int {
	if t.Key == "" {
		wi := e.rr % e.nw
		for i := 1; i < e.nw; i++ {
			if j := (e.rr + i) % e.nw; e.dealt[j] < e.dealt[wi] {
				wi = j
			}
		}
		e.rr = wi + 1
		e.dealt[wi] += t.Cost
		return wi
	}
	h := fnv.New32a()
	h.Write([]byte(t.Key))
	return int(h.Sum32() % uint32(e.nw))
}

// reapReady drains every completion signal that is already available,
// without blocking, so the submitter's depth and byte accounting track the
// workers' actual progress at each submit point. Stale flush acks (from a
// barrier a crash interrupted) are dropped.
func (e *Engine) reapReady() {
	for {
		v, ok := e.ctl.TryGet(e.clock)
		if !ok {
			return
		}
		switch msg := v.(type) {
		case Completion:
			e.noteCompletion(msg)
		case workerExit:
			e.exited++
		}
	}
}

// SubmitInfo reports a Submit's admission accounting to the adapter.
type SubmitInfo struct {
	Queued int64 // bytes in flight after this submit
	Waited bool  // the submitter was held for budget
}

// OverBudget is the streaming admission rule: a submitter whose queue
// holds queued bytes (the newest block included) is held while this is
// true. The data is already buffered, so refusing a block would buy
// nothing; holding its submitter degenerates to write-through at tiny
// budgets. A budget <= 0 is unbounded.
func OverBudget(queued, budget int64) bool {
	return budget > 0 && queued > budget
}

// Submit dispatches one task in streaming mode (drain engines): the task
// is always enqueued, then the submitter is held on completion signals
// while the queue is OverBudget. Ready completions are reaped (without
// blocking) first, so depth and byte accounting track the workers'
// progress at every submit point. Submitter goroutine.
func (e *Engine) Submit(t *Task) SubmitInfo { return e.SubmitShared(t.Cost, t) }

// SubmitShared is Submit for tasks that hold one charge of cost bytes
// between them — the copies of one buffered block, each keyed by its own
// file: the budget counts the bytes once, when they are submitted, and gets
// them back when the last of the tasks completes, in whatever order the
// workers finish them. Every task is enqueued before the submitter is held.
// Submitter goroutine.
func (e *Engine) SubmitShared(cost int64, ts ...*Task) SubmitInfo {
	e.reapReady()
	e.queued += cost
	sh := &share{cost: cost, left: len(ts)}
	cl := ts[0].Class
	for _, t := range ts {
		t.share = sh
		e.depth++
		e.classDepth[t.Class]++
		e.mx[t.Class].depth.SetMax(float64(e.classDepth[t.Class]))
	}
	info := SubmitInfo{Queued: e.queued}
	// Whether this submit overruns the budget is decided here, before the
	// workers can race the check: the wait accounting stays deterministic.
	if OverBudget(e.queued, e.cfg.Budget) {
		info.Waited = true
		e.mx[cl].waits.Inc()
	}
	for _, t := range ts {
		e.put(e.route(t), t)
	}
	for OverBudget(e.queued, e.cfg.Budget) && !e.crashed.Load() {
		v, ok := e.ctl.Get(e.clock)
		if !ok {
			break
		}
		switch msg := v.(type) {
		case Completion:
			e.noteCompletion(msg)
		case workerExit:
			e.exited++
		}
	}
	return info
}

// Flush is the barrier: every worker finishes its queue, flushes its state
// (closing files), and acks with its sticky error; the first one is
// returned. Work done under the barrier is not overlap. If a worker
// crashed (before or during the flush) Flush returns early — check
// Crashed. Submitter goroutine.
func (e *Engine) Flush() error {
	if e.crashed.Load() {
		return nil
	}
	e.barrier.Store(true)
	defer e.barrier.Store(false)
	for _, q := range e.jobs {
		q.Put(e.clock, flushToken{})
	}
	var err error
	for acks := 0; acks < e.nw; {
		v, ok := e.ctl.Get(e.clock)
		if !ok {
			break
		}
		switch msg := v.(type) {
		case Completion:
			e.noteCompletion(msg)
		case flushAck:
			acks++
			if msg.err != nil && err == nil {
				err = msg.err
			}
		case workerExit:
			// A worker can only exit mid-run by crashing; the barrier
			// cannot complete.
			e.exited++
			return err
		}
	}
	return err
}

// RunBatch executes a bounded task list (restart read rounds): admission
// interleaves with consumption, and every non-cancelled completion is
// handed to onDone on the submitter goroutine. A task is admitted while it
// fits the budget or nothing is in flight — an idle pool always admits, so
// a single over-budget task still runs, and tiny budgets degenerate to
// serial. Admission always wins while it may, so the queues stay full and
// the workers never starve; a deferred task blocks the loop on one
// completion signal, which both releases budget and lets earlier results
// ship while later work is still on disk. The batch runs under the
// barrier: its overlap is what onDone notes (NoteOverlap). Returns early,
// the barrier still up, if a worker crashed. Submitter goroutine.
func (e *Engine) RunBatch(tasks []*Task, onDone func(Completion)) {
	e.barrier.Store(true)
	stalled := -1 // index of the last wait-counted task
	wi := -1      // the worker tasks[next] is routed to, once it is
	for next := 0; next < len(tasks) || e.depth > 0; {
		if next < len(tasks) {
			t := tasks[next]
			if e.cfg.Budget <= 0 || e.queued+t.Cost <= e.cfg.Budget || e.depth == 0 {
				if wi < 0 {
					wi = e.route(t)
				}
				// A worker's full queue waits for a completion, as the
				// budget does: a crashed worker's then ends the batch
				// instead of wedging the Put.
				if e.out[wi] < e.qcap {
					e.put(wi, t)
					wi = -1
					e.queued += t.Cost
					e.depth++
					e.classDepth[t.Class]++
					e.mx[t.Class].depth.SetMax(float64(e.classDepth[t.Class]))
					next++
					continue
				}
			} else if stalled != next {
				// Count the wait once per task, however many completions it
				// takes to fit.
				stalled = next
				e.mx[t.Class].waits.Inc()
			}
		}
		v, ok := e.ctl.Get(e.clock)
		if !ok {
			return
		}
		switch msg := v.(type) {
		case Completion:
			e.noteCompletion(msg)
			if !msg.Cancelled && onDone != nil {
				onDone(msg)
			}
		case workerExit:
			// Mid-batch exits are crashes (queues close only after the
			// batch); the round cannot complete.
			e.exited++
			return
		}
	}
	e.barrier.Store(false)
}

// Close tears the pool down: closes the job queues, drains the control
// queue until every worker has exited (merging their tallies), and closes
// the control queue — so simulation worker processes always terminate and
// no stale message leaks into a later pool. Idempotent; submitter
// goroutine.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// From here on workers cancel instead of running: a dead pool's queued
	// tasks die with it (the crashed server's buffered blocks, a torn-down
	// read round). On the normal path the queues are already empty.
	e.dead.Store(true)
	for _, q := range e.jobs {
		q.Close()
	}
	for e.exited < e.nw {
		v, ok := e.ctl.Get(e.clock)
		if !ok {
			break
		}
		switch msg := v.(type) {
		case Completion:
			e.noteCompletion(msg)
		case workerExit:
			e.exited++
		}
		// Stale flush acks from a barrier a crash interrupted are dropped.
	}
	e.ctl.Close()
}

// put puts t to worker wi's queue.
func (e *Engine) put(wi int, t *Task) {
	t.wi = wi
	e.out[wi]++
	e.jobs[wi].Put(e.clock, t)
}

func (e *Engine) noteCompletion(c Completion) {
	e.out[c.Task.wi]--
	if sh := c.Task.share; sh == nil {
		e.queued -= c.Task.Cost
	} else if sh.left--; sh.left == 0 {
		e.queued -= sh.cost
	}
	e.depth--
	e.classDepth[c.Task.Class]--
}

// runWorker is one worker's body. It owns private state (its own files,
// clock identity and filesystem view), so the only cross-task traffic is
// the queues, the engine's atomics and the registry's.
func (e *Engine) runWorker(wi int, tc rt.TaskCtx) {
	st := WorkerState(noState{})
	if e.cfg.NewState != nil {
		st = e.cfg.NewState(wi, tc)
	}
	var sticky error
	defer func() {
		st.Close()
		e.ctl.Put(tc.Clock(), workerExit{})
	}()
	for {
		v, ok := e.jobs[wi].Get(tc.Clock())
		if !ok {
			return
		}
		switch t := v.(type) {
		case flushToken:
			if err := st.Flush(); err != nil && sticky == nil {
				sticky = err
			}
			e.ctl.Put(tc.Clock(), flushAck{err: sticky})
		case *Task:
			if e.dead.Load() {
				e.ctl.Put(tc.Clock(), Completion{Task: t, Cancelled: true})
				continue
			}
			t0 := tc.Clock().Now()
			res := t.Run(tc, st)
			t1 := tc.Clock().Now()
			cl := t.Class
			e.mx[cl].busy.Observe(t1 - t0)
			e.mx[cl].tasks.Inc()
			if !e.barrier.Load() {
				// Done while the submitter was free to serve requests:
				// this is the overlap the paper claims.
				e.mx[cl].overlap.Observe(t1 - t0)
			}
			if res.Err != nil {
				e.mx[cl].errors.Inc()
				if sticky == nil {
					sticky = res.Err
				}
			}
			if e.cfg.Trace != nil {
				e.cfg.Trace.Record(e.cfg.TraceRank, e.cfg.TracePhase, t0, t1)
			}
			e.ctl.Put(tc.Clock(), Completion{Task: t, Result: res, T0: t0, T1: t1})
			if res.Fatal {
				e.crashed.Store(true)
				return
			}
		}
	}
}
