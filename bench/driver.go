package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"genxio/internal/cluster"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rochdf"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/snapshot"
	"genxio/internal/stats"
)

// One repetition: a fresh world and a fresh filesystem, the generated
// windows written for Epochs epochs and restored Restarts times, every
// client call timed on the rank's own clock (wall on ChanWorld, virtual
// on the simulated platform) and every restart checked against the
// source. The loop is closed: a client issues its next collective call
// only after the previous one returned and all clients agreed it
// succeeded; the client count is the concurrency.

const snapPrefix = "run/"

func genBase(gen int) string { return fmt.Sprintf("%ssnap%06d", snapPrefix, gen) }

// callKind indexes the three timed client calls.
type callKind int

const (
	callWrite callKind = iota
	callSync
	callRead
	numCallKinds
)

var callNames = [numCallKinds]string{"write", "sync", "read"}

// span is one recorded interval of a traced run. Parent links a client
// call to its generation, a generation to its repetition, a repetition
// to its workload; rank -1 marks spans that belong to no single rank.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Rank   int     `json:"rank"`
	T0     float64 `json:"t0"`
	T1     float64 `json:"t1"`
}

// memReading is the slice of runtime.MemStats the metrics use.
type memReading struct {
	TotalAlloc uint64
	Mallocs    uint64
	PauseNs    uint64
}

func readMem() memReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReading{TotalAlloc: ms.TotalAlloc, Mallocs: ms.Mallocs, PauseNs: ms.PauseTotalNs}
}

// repResult is everything one repetition measured.
type repResult struct {
	SetupS float64 // world start + window build, host wall seconds

	// Durations[kind][i][client] is client's seconds inside the i-th
	// call of that kind; a phase costs its slowest client.
	Durations [numCallKinds][][]float64

	StateBytesPerGen int64 // Σ IOSet.NumBytes over every registered pane
	PanesPerGen      int
	Gens, Restarts   int   // completed
	StoredBytes      int64 // on the FS after the last commit + prune
	RetainedGens     int

	Mem      memReading // delta over the measured section
	HeapPeak uint64     // traced runs: max HeapAlloc seen at epoch ends

	FSWrite fsTotals // filesystem activity of the write loop
	FSRead  fsTotals // and of the restart loop

	Attempted, Failed int
	Errors            []string

	InputDigest uint64           // wrapping sum of the source panes' digests at setup
	Registry    metrics.Snapshot // traced runs only
	Spans       []span           // traced runs only

	WallS        float64 // host seconds inside world.Run, all worlds
	VirtualS     float64 // simulated seconds, vt only
	FssimWritten int64
	FssimRead    int64
}

// phaseSeconds is the time of the i-th phase of a kind: max over clients.
func (r *repResult) phaseSeconds(k callKind, i int) float64 {
	return stats.MaxOf(r.Durations[k][i])
}

// seconds sums a kind's phases.
func (r *repResult) seconds(k callKind) float64 {
	s := 0.0
	for i := range r.Durations[k] {
		s += r.phaseSeconds(k, i)
	}
	return s
}

// rep is the shared state of one repetition's ranks.
type rep struct {
	wl      workload
	seed    uint64
	trace   bool
	corrupt func(rt.FS) error // test hook: damage the FS between write and restart

	counts *fsCounts
	reg    *metrics.Registry
	raw    func() rt.FS // the uncounted, uncharged byte store

	epoch time.Time // the workload's start: span times count from here
	start time.Time
	res   repResult

	mu        sync.Mutex
	srcDigest map[int]uint64 // final source state, by pane ID
	spans     [][]span       // per world rank, merged at the end
	spanBase  int            // first span ID of this repetition
	mem0      memReading
	fs0, fs1  fsTotals
	restored  atomic.Int64 // panes verified equal to their source
	attempted atomic.Int64
	failed    atomic.Int64
	aborted   atomic.Bool
}

func (r *rep) attempt() { r.attempted.Add(1) }

func (r *rep) fail(format string, args ...interface{}) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.res.Errors) < 8 {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// client is what the loop needs from an I/O service on one rank.
type client struct {
	comm mpi.Comm
	me   int
	io   roccom.IOService
	ids  []int // the panes this rank wrote, once writePhase has built them
	// target returns a fresh restart window; read fills it from the
	// newest generation. Only read is timed.
	target func() (*roccom.Window, error)
	read   func(w *roccom.Window) error
	close  func() error
}

// agree is the collective end of every phase: it reports whether any
// client's call failed, and doubles as the barrier that starts the next
// phase on all clients at once. It is never inside a timed interval.
func (r *rep) agree(c *client, what string, err error) bool {
	bad := 0.0
	if err != nil {
		bad = 1
		r.fail("client %d %s: %v", c.me, what, err)
	}
	if c.comm.AllreduceMax(bad) > 0 {
		r.aborted.Store(true)
		return false
	}
	return true
}

// timed runs one client call and records its duration (and span).
func (r *rep) timed(ctx mpi.Ctx, c *client, k callKind, i int, call func() error) error {
	r.attempt()
	clock := ctx.Clock()
	t0 := clock.Now()
	err := call()
	t1 := clock.Now()
	r.res.Durations[k][i][c.me] = t1 - t0
	if r.trace {
		rank := ctx.Comm().Rank()
		r.spans[rank] = append(r.spans[rank], span{
			ID:     r.spanBase + 1 + r.phases() + r.phaseIndex(k, i)*r.wl.maxClients() + c.me,
			Parent: r.spanBase + 1 + r.phaseIndex(k, i),
			Name:   callNames[k], Rank: c.me, T0: t0, T1: t1,
		})
	}
	return err
}

// Span IDs of a repetition are fixed by position, so ranks need not
// coordinate: spanBase is the repetition, the next phases() IDs are its
// generations, syncs and restarts in order, and the calls follow.

func (r *rep) phases() int { return r.wl.gens() + r.wl.Epochs + r.wl.Restarts }

func (r *rep) phaseIndex(k callKind, i int) int {
	for kk := callKind(0); kk < k; kk++ {
		i += len(r.res.Durations[kk])
	}
	return i
}

// spanIDs is how many IDs a repetition of wl uses.
func spanIDs(wl *workload) int {
	return 1 + (wl.gens()+wl.Epochs+wl.Restarts)*(1+wl.maxClients())
}

// writePhase builds the rank's source window and runs the write loop.
func (r *rep) writePhase(ctx mpi.Ctx, c *client) bool {
	wl := &r.wl
	rng := rankRNG(r.seed, c.me)
	w, err := buildWindow(wl.Shape, c.me, rng)
	var sb int64
	if err == nil {
		sb, err = stateBytes(w)
	}
	if !r.agree(c, "setup", err) {
		return false
	}
	c.ids = w.PaneIDs()
	var digest uint64
	for _, d := range windowDigests(w) {
		digest += d
	}
	r.mu.Lock()
	r.res.StateBytesPerGen += sb
	r.res.PanesPerGen += len(c.ids)
	r.res.InputDigest += digest
	r.mu.Unlock()
	// Set-up ends when the slowest client has its windows; the measured
	// section starts with every rank idle.
	c.comm.Barrier()
	if c.me == 0 {
		r.res.SetupS = time.Since(r.start).Seconds()
		r.mem0 = readMem()
		r.fs0 = r.counts.totals()
	}
	c.comm.Barrier()

	dirtyOrder := shuffled(c.ids, rng)
	gen := 0
	for e := 0; e < wl.Epochs; e++ {
		for k := 0; k < wl.gensPerEpoch(); k++ {
			base := genBase(gen)
			err := r.timed(ctx, c, callWrite, gen, func() error {
				return c.io.WriteAttribute(base, w, "all", float64(gen), gen)
			})
			if wl.ThinkSeconds > 0 {
				ctx.Clock().Compute(wl.ThinkSeconds)
			}
			if wl.Features && gen+1 < wl.gens() {
				// Mutated now, outside the timed calls, for the next write.
				dirtySome(w, dirtyOrder, gen+1, dirtyShare, rng)
			}
			if !r.agree(c, "write", err) {
				return false
			}
			gen++
		}
		err := r.timed(ctx, c, callSync, e, c.io.Sync)
		if c.me == 0 && r.trace {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > r.res.HeapPeak {
				r.res.HeapPeak = ms.HeapAlloc
			}
		}
		if !r.agree(c, "sync", err) {
			return false
		}
		if c.me == 0 {
			r.res.Gens = gen
		}
	}

	// The window now holds exactly what the newest generation must restore.
	d := windowDigests(w)
	r.mu.Lock()
	for id, h := range d {
		r.srcDigest[id] = h
	}
	r.mu.Unlock()
	c.comm.Barrier()
	if c.me == 0 {
		r.fs1 = r.counts.totals()
		r.res.FSWrite = r.fs1.sub(r.fs0)
		r.measureStored()
		if r.corrupt != nil {
			if err := r.corrupt(r.raw()); err != nil {
				r.fail("corrupt hook: %v", err)
			}
		}
		r.fs1 = r.counts.totals()
	}
	c.comm.Barrier()
	return true
}

// measureStored sums what the retained generations occupy on the FS.
func (r *rep) measureStored() {
	fs := r.raw()
	names, err := fs.List(snapPrefix)
	r.attempt()
	if err != nil {
		r.fail("list %s: %v", snapPrefix, err)
		return
	}
	for _, name := range names {
		if size, err := fs.Stat(name); err == nil {
			r.res.StoredBytes += size
		}
	}
	gens, err := snapshot.Generations(fs, snapPrefix)
	if err != nil {
		r.fail("generations: %v", err)
		return
	}
	r.res.RetainedGens = len(gens)
}

// restartPhase restores the newest generation Restarts times, checking each
// result against the source digests outside the timed interval.
func (r *rep) restartPhase(ctx mpi.Ctx, c *client) {
	for i := 0; i < r.wl.Restarts; i++ {
		w, err := c.target()
		if err == nil {
			err = r.timed(ctx, c, callRead, i, func() error { return c.read(w) })
		}
		if err == nil {
			r.verify(w)
		}
		if !r.agree(c, "restart", err) {
			return
		}
		if c.me == 0 {
			r.res.Restarts = i + 1
		}
	}
}

// verify compares every restored pane with its source, bit for bit.
func (r *rep) verify(w *roccom.Window) {
	w.EachPane(func(p *roccom.Pane) {
		r.attempt()
		want, ok := r.srcDigest[p.ID]
		switch {
		case !ok:
			r.fail("restart produced unknown pane %d", p.ID)
		case paneDigest(w, p) != want:
			r.fail("pane %d differs from its source after restart", p.ID)
		default:
			r.restored.Add(1)
		}
	})
}

// finish ends the measured section (client 0 of the last world).
func (r *rep) finish() {
	m := readMem()
	r.res.Mem = memReading{
		TotalAlloc: m.TotalAlloc - r.mem0.TotalAlloc,
		Mallocs:    m.Mallocs - r.mem0.Mallocs,
		PauseNs:    m.PauseNs - r.mem0.PauseNs,
	}
	r.res.FSRead = r.counts.totals().sub(r.fs1)
}

// pandaClient adapts a Rocpanda client. Features workloads restart the
// way a real M×N restart does — RestoreLatest walks the generations,
// PanesForRestart deals the universe over the current clients, ReadPanes
// rebuilds panes this rank never wrote; the others read back their own
// panes from the named generation.
func (r *rep) pandaClient(cl *rocpanda.Client) *client {
	c := &client{comm: cl.Comm(), me: cl.Comm().Rank(), io: cl, target: emptyWindow, close: cl.Shutdown}
	if r.wl.Features {
		c.read = func(w *roccom.Window) error {
			_, err := cl.RestoreLatest(snapPrefix, func(base string) error {
				want, err := cl.PanesForRestart(base, windowName)
				if err != nil {
					return err
				}
				return cl.ReadPanes(base, w, "all", want)
			})
			return err
		}
	} else {
		last := genBase(r.wl.gens() - 1)
		c.read = func(w *roccom.Window) error { return cl.ReadPanes(last, w, "all", c.ids) }
	}
	return c
}

// rochdfClient adapts a T-Rochdf instance: each rank restores its own
// file into a window that already names its panes.
func (r *rep) rochdfClient(ctx mpi.Ctx, h *rochdf.Rochdf) *client {
	last := genBase(r.wl.gens() - 1)
	c := &client{comm: ctx.Comm(), me: ctx.Comm().Rank(), io: h, close: h.Close}
	c.target = func() (*roccom.Window, error) { return placeholderWindow(c.ids) }
	c.read = func(w *roccom.Window) error { return h.ReadAttribute(last, w, "all") }
	return c
}

// open starts the rank's I/O service; nil means the rank was a Rocpanda
// server and has already finished serving.
func (r *rep) open(ctx mpi.Ctx, servers int) (*client, error) {
	if r.wl.TRochdf {
		h := rochdf.New(ctx, rochdf.Config{
			Profile: hdf.NullProfile(), Threaded: true, RetainGenerations: retainGens, Metrics: r.reg,
		})
		return r.rochdfClient(ctx, h), nil
	}
	cfg := r.wl.Panda(servers)
	cfg.Metrics = r.reg
	cl, err := rocpanda.Init(ctx, cfg)
	if err != nil || cl == nil {
		return nil, err
	}
	return r.pandaClient(cl), nil
}

// run executes the repetition and returns what it measured.
func (r *rep) run() repResult {
	wl := &r.wl
	r.counts = &fsCounts{}
	r.srcDigest = make(map[int]uint64)
	if r.trace {
		r.reg = metrics.New()
	}
	sizes := [numCallKinds]int{wl.gens(), wl.Epochs, wl.Restarts}
	for k, n := range sizes {
		r.res.Durations[k] = make([][]float64, n)
		for i := range r.res.Durations[k] {
			readers := wl.Clients
			if callKind(k) == callRead && wl.RestartClients > 0 {
				readers = wl.RestartClients
			}
			r.res.Durations[k][i] = make([]float64, readers)
		}
	}

	// One filesystem per repetition, shared by its worlds. A simulated
	// world brings its own, which ends with its Run, so it is the only
	// world of its repetition.
	mem := rt.NewMemFS()
	r.raw = func() rt.FS { return mem }
	var sim *cluster.World
	if wl.Virtual {
		sim = cluster.NewWorld(cluster.Turing(), r.seed)
		r.raw = func() rt.FS { return sim.FSModel().Backing() }
	}
	newWorld := func() mpi.World {
		if sim != nil {
			return sim
		}
		return mpi.NewChanWorld(mem, 1)
	}
	// runWorld starts a world of the given topology and runs body on
	// every client rank (server ranks serve inside open until shutdown).
	runWorld := func(clients, servers int, body func(ctx mpi.Ctx, c *client)) {
		w := newWorld()
		r.spans = make([][]span, clients+servers)
		t0 := time.Now()
		err := w.Run(clients+servers, func(ctx mpi.Ctx) error {
			ctx = newCountCtx(ctx, r.counts, r.trace)
			c, err := r.open(ctx, servers)
			if err != nil || c == nil {
				return err
			}
			body(ctx, c)
			r.attempt()
			if err := c.close(); err != nil {
				r.fail("client %d close: %v", c.me, err)
			}
			return nil
		})
		r.res.WallS += time.Since(t0).Seconds()
		if err != nil {
			r.attempt()
			r.fail("world: %v", err)
		}
		// Every world's clock starts at zero; place its spans on the
		// workload's time axis.
		off := t0.Sub(r.epoch).Seconds()
		for _, ss := range r.spans {
			for _, s := range ss {
				s.T0 += off
				s.T1 += off
				r.res.Spans = append(r.res.Spans, s)
			}
		}
		if sim != nil {
			r.res.VirtualS += sim.VirtualTime()
			r.res.FssimWritten += sim.FSModel().BytesWritten()
			r.res.FssimRead += sim.FSModel().BytesRead()
		}
	}

	restart := func(ctx mpi.Ctx, c *client) {
		r.restartPhase(ctx, c)
		if c.me == 0 {
			r.finish()
		}
	}
	r.start = time.Now()
	runWorld(wl.Clients, wl.Servers, func(ctx mpi.Ctx, c *client) {
		if r.writePhase(ctx, c) && wl.RestartClients == 0 {
			restart(ctx, c)
		}
	})
	if wl.RestartClients > 0 && !r.aborted.Load() {
		runWorld(wl.RestartClients, wl.RestartServers, restart)
	}

	// Gates outside every timed interval: each restart restored every
	// pane, and the filesystem the run leaves behind scrubs clean.
	r.attempt()
	if want := int64(r.res.Restarts) * int64(r.res.PanesPerGen); r.restored.Load() != want || r.res.Restarts != wl.Restarts {
		r.fail("restarts restored %d panes bit-exact, want %d (%d of %d restarts ran)",
			r.restored.Load(), int64(wl.Restarts)*int64(r.res.PanesPerGen), r.res.Restarts, wl.Restarts)
	}
	r.attempt()
	if reports, err := snapshot.Fsck(r.raw(), snapPrefix); err != nil {
		r.fail("fsck: %v", err)
	} else if !snapshot.Clean(reports) {
		r.fail("fsck not clean:\n%s", snapshot.Format(reports))
	} else if len(reports) == 0 {
		r.fail("fsck found no generations")
	}

	if r.trace {
		r.res.Spans = append(r.res.Spans, r.parentSpans()...)
	}
	r.res.Attempted = int(r.attempted.Load())
	r.res.Failed = int(r.failed.Load())
	r.res.Registry = r.reg.Snapshot()
	return r.res
}

// parentSpans synthesizes the spans above the recorded client calls: one
// per generation, sync and restart (first client in to last client out)
// and one for the repetition.
func (r *rep) parentSpans() []span {
	phaseNames := [numCallKinds]string{"generation", "epoch-sync", "restart"}
	out := make([]span, 1+r.phases())
	out[0] = span{ID: r.spanBase, Parent: 0, Name: "repetition", Rank: -1}
	for k := callKind(0); k < numCallKinds; k++ {
		for i := range r.res.Durations[k] {
			idx := 1 + r.phaseIndex(k, i)
			out[idx] = span{ID: r.spanBase + idx, Parent: r.spanBase, Name: phaseNames[k], Rank: -1}
		}
	}
	seen := make([]bool, len(out))
	for _, s := range r.res.Spans {
		for _, idx := range []int{s.Parent - r.spanBase, 0} {
			p := &out[idx]
			if !seen[idx] || s.T0 < p.T0 {
				p.T0 = s.T0
			}
			if !seen[idx] || s.T1 > p.T1 {
				p.T1 = s.T1
			}
			seen[idx] = true
		}
	}
	return out
}
