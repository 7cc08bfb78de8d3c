package rocpanda

// The restart read engine: the one implementation of the paper's restart
// protocol (§4.1 — every server reads its share of the snapshot files and
// ships the found blocks to their owners). It is one state machine with two
// drivers.
//
// The state machine. Each file of a server's share — a catalog-planned
// extent read or a directory-scan fallback — becomes a readFile and a few
// disk tasks (newFile): a planned file gets its coalesced run buffers
// allocated and one ReadAt task per run (or per chunk of a run); a scan
// file is one task that walks the file into ship-ready pane payloads. Tasks
// do disk I/O only and report a readResult. consume folds each result into
// its file on the server goroutine and, when the file's last task is in,
// does everything else: CRC verification, inflate, pane assembly
// (assembleShips), and every network send (sendShips — simulated endpoints
// charge the sending process, so shipping stays on the server's own
// identity). A file with any damage is skipped whole, nothing from it
// ships, its bytes count as wasted rather than read, and recoverPanes
// retries its panes against the generation's other copies.
//
// The inline driver (runInline) is the paper-faithful configuration and the
// zero-worker case: it runs a file's tasks on the request loop with the
// server's own mpi.Ctx as their rt.TaskCtx, one file at a time — open, one
// ReadAt per coalesced run, verify, ship, close — and constructs no
// scheduler, so such a run reports no iosched read tasks. Runs are not
// split and scan files are not sized, because there is no pool to spread
// over or to bound. Pane retries always run through this driver, whichever
// driver serves the round.
//
// The pool driver (runPool, Config.ParallelRead) hands the whole share's
// tasks to an internal/iosched batch: ClassRead / ClassScan tasks executed
// by ctx.Spawn workers (real goroutines on the channel backend, simulation
// processes with their own clock and filesystem view on the virtual
// platforms), completions consumed on the server goroutine. Reads of file
// N+1 therefore overlap the verification and shipping of file N, which is
// the pipelining the pool exists for.
//
// Granularity (pool): coalesced runs are split into readChunkBytes chunks,
// so even a single large snapshot file spreads across the whole pool. On
// the simulated NFS platforms each worker process has its own stream-read
// pacing, so the chunks of one file genuinely overlap — this, not
// file-level fan-out, is where the restart speedup comes from when a
// server's share is one big file.
//
// Ordering and dedupe: within one file, entries ship in plan order under
// both drivers; across files the pool's completion order may differ from
// the plan order the inline driver follows, but a pane is planned from
// exactly one file per server and clients dedupe on first arrival (the
// copies a failover may leave in two files are identical), so what a rank
// restores is bit-identical under both. Pool tasks are unkeyed: the
// scheduler deals them round-robin by submission index, and disjoint
// chunks need no ordering.
//
// Backpressure (pool): Config.ReadBudgetBytes becomes the scheduler budget
// under the RestartRead policy: a task that would overrun the budget is
// deferred until outstanding reads complete, but an idle pool always
// admits, so progress is guaranteed and a one-byte budget degenerates to
// one read at a time. Because the budget is this instance's alone, a
// restart round is admitted immediately even while the same server's drain
// instance is still emptying a previous generation's queue.
//
// Failure: a task never panics the process. Open/ReadAt errors and damaged
// payloads mark the file failed. The injected MidRead crash point fires
// once per file after that file's ships on the inline driver, and on a
// worker as a fatal task result in the pool; either way the server dies as
// one process and the clients' stall detection takes over.

import (
	"sort"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/iosched"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

const (
	// maxReadWorkers caps Config.ReadWorkers.
	maxReadWorkers = 8
	// defaultReadWorkers is used when ParallelRead is on and ReadWorkers
	// is unset.
	defaultReadWorkers = 4
	// readChunkBytes splits coalesced runs into pool-sized chunks; see the
	// granularity note above.
	readChunkBytes = 512 << 10
)

// readItem is one file of a server's restart share, as serveRead classified
// it: a planned extent read, or a directory-scan fallback.
type readItem struct {
	name string
	scan bool
	plan catalog.FilePlan
	// cat is the catalog a planned item came from (nil for scan items) —
	// in chain rounds each item carries its own generation's catalog, so a
	// failed file's pane retries consult the right link's copies.
	cat *catalog.Catalog
}

// readFile is the server-side state of one file being read.
type readFile struct {
	readItem
	pooled  bool // its tasks run on pool workers, not on the request loop
	retry   bool // a pane retry against another copy: its own failure is final
	runs    []catalog.Run
	bufs    [][]byte // one buffer per run; tasks fill disjoint windows
	left    int      // outstanding task results for this file
	failed  bool
	opened  bool
	read    int64 // bytes successfully pulled from the file so far
	shipped bool  // verified end to end and sent
}

// readResult is one task's outcome, carried as the completion's value (in
// the pool the control-queue handoff is also the happens-before edge
// covering the buffer window the worker filled).
type readResult struct {
	f      *readFile
	read   int64 // bytes actually pulled from the file
	opened bool
	failed bool
	ships  []paneShip // scan tasks only: ship-ready pane payloads
}

// readHandles caches one open handle per file for whoever runs chunk tasks:
// a pool worker's private iosched.WorkerState (several workers may hold
// handles on the same file; each reads disjoint chunks), closed on every
// worker exit, crashed or not; or the inline driver's per-file handle,
// closed after the file's ships.
type readHandles struct{ m map[string]rt.File }

// Flush implements iosched.WorkerState (restart rounds never flush).
func (h *readHandles) Flush() error { return nil }

// Close implements iosched.WorkerState.
func (h *readHandles) Close() error {
	for _, f := range h.m {
		f.Close()
	}
	return nil
}

// readEngine is one restart round's share on one server. It is created per
// round (restart rounds are rare and bounded, unlike the server-lifetime
// drain pool). Everything but the task closures runs on the server
// goroutine.
type readEngine struct {
	s      *server
	window string
	round  *readRound
	// bad holds files that failed an open this round: a pane retry never
	// re-reads them, so one lost file costs one failed open, not one per
	// pane.
	bad     map[string]bool
	shipped bool // something left this server already (overlap accounting)
}

// serveItems reads, verifies and ships one restart round's share. This is
// the one place the driver is chosen.
func (s *server) serveItems(window string, round *readRound, items []readItem) {
	e := &readEngine{s: s, window: window, round: round, bad: make(map[string]bool)}
	if s.cfg.ParallelRead && len(items) > 0 {
		e.runPool(items)
		return
	}
	for _, it := range items {
		e.runInline(it, false)
		s.maybeCrash(faults.MidRead)
	}
}

// newFile builds one item's file state and disk tasks. For the pool, runs
// split into readChunkBytes chunks and a scan file's budget cost is its
// size; inline, a run is one read and nothing is sized (a Stat would be a
// metadata operation the paper's protocol does not make).
func (e *readEngine) newFile(it readItem, pooled bool) (*readFile, []*iosched.Task) {
	f := &readFile{readItem: it, pooled: pooled}
	if it.scan {
		f.left = 1
		var cost int64
		if pooled {
			cost, _ = e.s.ctx.FS().Stat(it.name) // unknown size costs zero
		}
		return f, []*iosched.Task{e.scanTask(f, cost)}
	}
	f.runs = catalog.Coalesce(it.plan.Entries, 0)
	f.bufs = make([][]byte, len(f.runs))
	var tasks []*iosched.Task
	for ri, run := range f.runs {
		f.bufs[ri] = make([]byte, run.Length)
		chunk := run.Length
		if pooled {
			chunk = readChunkBytes
		}
		// At least one task per run, so an empty run still opens its file.
		for off := int64(0); ; {
			n := min(chunk, run.Length-off)
			tasks = append(tasks, e.chunkTask(f, run.Offset+off, f.bufs[ri][off:off+n]))
			f.left++
			if off += n; off >= run.Length {
				break
			}
		}
	}
	return f, tasks
}

// chunkTask builds one contiguous disk read: fill buf from off.
func (e *readEngine) chunkTask(f *readFile, off int64, buf []byte) *iosched.Task {
	return &iosched.Task{
		Class: iosched.ClassRead,
		Cost:  int64(len(buf)),
		Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
			handles := st.(*readHandles).m
			res := readResult{f: f}
			h, ok := handles[f.name]
			if !ok {
				var err error
				h, err = tc.FS().Open(f.name)
				if err != nil {
					res.failed = true
					return e.finish(res)
				}
				handles[f.name] = h
			}
			res.opened = true
			if _, err := h.ReadAt(buf, off); err != nil {
				res.failed = true
			} else {
				res.read = int64(len(buf))
			}
			return e.finish(res)
		},
	}
}

// scanTask builds one whole-file directory-scan fallback, run on the
// driver's clock and filesystem view so the profile's lookup costs charge
// to the process that walks the file (and overlap across the pool).
func (e *readEngine) scanTask(f *readFile, cost int64) *iosched.Task {
	return &iosched.Task{
		Class: iosched.ClassScan,
		Cost:  cost,
		Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
			ships, read, opened, failed := collectScanFile(tc.FS(), tc.Clock(), e.s.cfg.Profile, e.s.cfg.Metrics, f.name, e.window, e.round)
			return e.finish(readResult{f: f, read: read, opened: opened, failed: failed, ships: ships})
		},
	}
}

// finish wraps a task result. On a pool worker it evaluates the injected
// MidRead crash after the work (and before the completion is reported,
// whose tallies and span still land — the server then dies with the
// worker); the inline driver fires the crash point itself, once per file.
func (e *readEngine) finish(res readResult) iosched.Result {
	return iosched.Result{Value: res, Fatal: res.f.pooled && e.s.cfg.Crash.Hit(e.s.idx, faults.MidRead)}
}

// runInline is the zero-worker driver: one file's tasks, run to completion
// on the request loop with the server's own clock and filesystem view. The
// file's handle closes after its ships and before any pane retry.
func (e *readEngine) runInline(it readItem, retry bool) *readFile {
	s := e.s
	f, tasks := e.newFile(it, false)
	f.retry = retry
	h := &readHandles{m: make(map[string]rt.File)}
	for _, t := range tasks {
		t0 := s.ctx.Clock().Now()
		res := t.Run(s.ctx, h)
		t1 := s.ctx.Clock().Now()
		if t1 > t0 {
			s.cfg.Trace.Record(s.traceRank(), trace.PhaseRead, t0, t1)
		}
		e.consume(iosched.Completion{Task: t, Result: res, T0: t0, T1: t1})
	}
	h.Close()
	if !f.shipped {
		e.recoverPanes(f)
	}
	return f
}

// runPool is the worker-pool driver: the whole share's tasks as one
// scheduler batch. Runs on the server goroutine; returns only after every
// worker has exited. If a worker hit an injected crash the server process
// dies with it.
func (e *readEngine) runPool(items []readItem) {
	s := e.s
	var tasks []*iosched.Task
	for _, it := range items {
		_, ts := e.newFile(it, true)
		tasks = append(tasks, ts...)
	}
	nw := s.cfg.ReadWorkers
	if nw <= 0 {
		nw = defaultReadWorkers
	}
	nw = min(nw, maxReadWorkers)
	eng := iosched.New(s.ctx, iosched.Config{
		Name:       "panda-read",
		Workers:    nw,
		MaxWorkers: maxReadWorkers,
		Budget:     s.cfg.ReadBudgetBytes,
		// Queues are sized so no Put ever blocks: the scheduler deals
		// unkeyed tasks round-robin by index, and the control queue holds
		// one completion per task plus every exit. A crashed worker that
		// abandons its queue can then never wedge the server mid-Put.
		QueueCap: len(tasks)/nw + 2,
		CtlCap:   len(tasks) + nw + 4,
		Policy:   iosched.RestartRead{},
		NewState: func(wi int, tc rt.TaskCtx) iosched.WorkerState {
			return &readHandles{m: make(map[string]rt.File)}
		},
		CloseStateOnExit: true,
		Metrics:          s.cfg.Metrics,
		Trace:            s.cfg.Trace,
		TraceRank:        s.traceRank(),
		TracePhase:       trace.PhaseRead,
		// Read overlap is not barrier-relative: it is disk time after the
		// round's first ship, decided per completion below.
		OverlapExternal: true,
	})
	defer eng.Close()
	eng.RunBatch(tasks, func(c iosched.Completion) {
		if dt := c.T1 - c.T0; dt > 0 && e.shipped {
			// Disk time spent after this round's first pane left the server:
			// reads of later files overlapped earlier files' sends.
			eng.NoteOverlap(c.Task.Class, dt)
		}
		if f := e.consume(c); f != nil && !f.shipped {
			// Recovery runs inline, while the workers keep reading the
			// round's remaining files.
			e.recoverPanes(f)
		}
	})
	eng.Close()
	if eng.Crashed() {
		panic(serverCrashed{})
	}
}

// consume folds one task result into its file and, when it was the file's
// last, verifies and ships the file — or skips it whole. It returns the
// file once it is complete (shipped or not), nil before that. Server
// goroutine only.
func (e *readEngine) consume(c iosched.Completion) *readFile {
	s := e.s
	r := c.Result.Value.(readResult)
	f := r.f
	if r.opened && !f.opened {
		f.opened = true
		s.mx.filesOpened.Inc()
	}
	if r.failed {
		f.failed = true
	}
	f.read += r.read
	if f.left--; f.left > 0 {
		return nil
	}
	ships, ok := r.ships, !f.failed
	if ok && !f.scan {
		var crcFailed bool
		ships, crcFailed, ok = assembleShips(f.plan, f.runs, f.bufs, e.round)
		if crcFailed {
			s.mx.checksumFails.Inc()
		}
	}
	if !ok {
		s.skipFile(f.read)
		return f
	}
	s.noteRestartBytes(f.read)
	s.sendShips(ships)
	f.shipped = true
	if len(ships) > 0 {
		e.shipped = true
	}
	return f
}

// recoverPanes retries every pane of a failed planned file against the
// generation's other copies, best-first (primaries before replicas, per
// catalog.PaneSources), shipping each pane from the first copy that
// verifies end to end. The walk is deterministic — sorted panes, ordered
// sources, a shared bad-file set — so every server makes the same recovery
// decisions. A pane with no good copy anywhere is simply not shipped: the
// clients then report the snapshot incomplete and the restore walk falls
// back a generation, which is exactly the all-copies-bad semantics the
// replica layer promises.
//
// There is nothing to do for a scan-fallback file (it carries no plan, its
// panes are unknown until read, and the listing already covers every
// replica), and a retry's own failure is final: the walk moves on to the
// pane's next copy.
func (e *readEngine) recoverPanes(f *readFile) {
	if f.scan || f.retry {
		return
	}
	s := e.s
	e.bad[f.name] = true
	seen := make(map[int]bool)
	var panes []int
	for i := range f.plan.Entries {
		if p := f.plan.Entries[i].Pane; !seen[p] {
			seen[p] = true
			panes = append(panes, p)
		}
	}
	sort.Ints(panes)
	for _, pane := range panes {
		for _, src := range f.cat.PaneSources(e.window, pane) {
			if e.bad[src.File] {
				continue
			}
			// A copy that cannot be opened is blacklisted; one that opens
			// but is damaged may still hold other panes intact, so only the
			// attempted read is charged as wasted.
			try := e.runInline(readItem{name: src.File, plan: src}, true)
			if !try.opened {
				e.bad[src.File] = true
			}
			if try.shipped {
				s.mx.repairedPanes.Inc()
				if catalog.ReplicaRank(src.File) > 0 {
					s.mx.replicaReads.Inc()
				}
				break
			}
		}
	}
}
