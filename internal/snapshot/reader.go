package snapshot

// The restart-read service: the one implementation of the paper's restart
// (§4.1 — find the requested blocks in the snapshot files and hand each to
// its owner), under all three I/O modules. Like the write service it has two
// placements: a Rocpanda server reads the files dealt to it and ships the
// panes to the requesting clients; a Rochdf or T-Rochdf rank reads for
// itself and installs them in place. Both run one plan → read → verify →
// deliver machine, so whatever module wrote a committed generation, any
// module restarts it, on any rank count. What differs is the share — which
// planned or listed files are this process's (ReadRequest.Mine, Own) — what
// delivering a verified pane means (ReadRequest.Deliver), and ReaderConfig.
// The restore walk (Restore) is a method of the same machine: a module's
// clients walk the generations with their own Readers, so the walk's
// filesystem, clock, driver, held chain and counters are the module's.
//
// One plan (Read). The generation's chain comes newest first; a full
// generation is the chain of length one. The Reader is the restart's one
// loader of commit records and holds the last chain it loaded (chain): every
// round, every judgment of its restore walk and every PaneUniverse reads the
// head manifest — one small read, none while the restore walk's step carries
// it (given) — and is served the held chain when those bytes are the ones it
// was loaded from. Otherwise the manifests are followed link by link and
// every link's catalog — its file table and pane index, a few hundred
// bytes — is read as one batch through the Reader's driver (reads), and the
// walk's file checks, the directories a round plans from and its data files
// go the same way, each one extent read: inline, the paper's serial order;
// pooled, every piece a task costed by its bytes, largest first, a long
// read cut across the workers (batch.go). A file's entries are read from
// its own directory, the bytes that end it, held to the directory CRC32C its
// manifest pins (dirLoad), on the handle the round's data reads of the file
// then use. A held chain keeps what it read, and a later round reads only
// the directories it lacks (loadDirs); ranks that deal a generation's
// panes among themselves can read its directories once among them first
// (ShareDirs). So a process loads a generation once
// for all its windows and attributes, and once per lifetime across
// restarts of it. A held chain is the commit record as this process first
// loaded it: damage after that load to a lower link's manifest, or to any
// link's catalog blob, does not change this process's restores (every
// payload is still CRC-checked as it is read), while a head re-committed
// under the same name reads as other bytes and is reloaded. Only a whole
// load is held — committed, every link loaded, the head's index its
// committed catalog — so a broken, derived or uncommitted generation is
// loaded afresh each round. Every wanted pane resolves to the newest link
// whose index holds it — each pane to exactly one (generation, file, extent)
// — and each link's planned files are read by direct coalesced offset reads,
// every entry CRC-verified before anything from its file is delivered; files
// the index knows but planned nothing from are never opened, and a named
// attribute plans that one dataset per pane. A planned file whose directory
// does not read or fails its pin is a failed file: its panes go to their
// other copies in the same link, never to an older one. Where the index
// comes from is all that varies: the catalog a commit wrote, or — a full
// head without a usable one, files no commit record describes — the same
// catalog derived from the files' own directories (index, deriveCatalog),
// planned and read the same way. A delta's files do not spell out the panes
// it inherits, so a delta head with any unloadable link fails the round —
// ReadFailed, nothing delivered — and the caller's completeness check sends
// the restore walk back past the whole chain. A failed listing reports the
// same way.
//
// The state machine. Each planned file of the share is one extent read of
// its coalesced runs (readFile), and the share is one batch through the
// Reader's driver (reads, batch.go). Pieces do disk I/O only; when a file's
// last piece is in, its hook (consume) does everything else on the owner's
// goroutine: CRC verification, inflate, pane assembly and every delivery (a
// server's sends: simulated endpoints charge the sending process, so
// shipping stays on the owner's identity). A file with any damage is
// skipped whole, nothing from it is delivered, its bytes count as wasted
// rather than read, and recoverPanes retries its panes against the other
// copies its index knows.
//
// The driver is chosen in one place (reads.run), for data and metadata
// reads alike. The inline driver (Workers 0) is the paper-faithful,
// zero-worker case and the only one Rochdf uses: every read is one piece,
// run on the owner's filesystem view — open, one ReadAt per coalesced
// run, verify, deliver, close — one file at a time, and no scheduler is
// constructed, so such a run reports no iosched read tasks. Pane retries
// always run inline, and so does a metadata batch of one piece.
//
// The pool driver (Workers > 0) hands a batch's pieces to an
// internal/iosched batch: ClassRead tasks executed by ctx.Spawn workers
// (goroutines on the channel backend, simulation processes with their own
// clock and filesystem view on the virtual platforms), completions folded
// on the owner, so reads of file N+1 overlap the verification and delivery
// of file N. One rule cuts every read: each range into pieces of the
// batch's fair share, 16 KB to 512 KB, so even a single large file spreads
// across the pool — on the simulated NFS platforms each worker has its own
// stream-read pacing, which is where the restart speedup comes from — and
// the scheduler's byte deal leaves every worker about the same bytes, so
// the round ends when they all do. A round's batches share one pool, and a
// data file's handle — opened by its directory's read or its data's —
// stays open on each worker that reads it until the round ends; a piece of
// the restore walk's or a chain load's metadata opens and closes its
// file. ReaderConfig.Budget is the batch's scheduler budget: a
// task that would overrun it is deferred until outstanding reads complete,
// but an idle pool always admits. Read overlap is disk time after the
// round's first delivery, which the owner notes per completion.
//
// Ordering and dedupe: within one file, panes are delivered in plan order
// under both drivers; across files the pool's completion order may differ,
// but a pane is planned from exactly one file and receivers dedupe on first
// arrival (Receiver), so what a rank restores is bit-identical under both.
//
// Failure: a task never panics the process. Open/ReadAt errors and damaged
// payloads mark the file failed. The injected MidRead crash point fires once
// per file after that file's deliveries on the inline driver, and on a
// worker as a fatal task result in the pool; either way the owner dies as
// one process (Crashed).

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

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

// MaxWorkers caps the pool width of both services: WriterConfig.Workers
// and ReaderConfig.Workers.
const MaxWorkers = 8

// ErrIncompleteRestart reports that a restart could not recover every
// requested pane: the snapshot is incomplete — a writer died mid-snapshot,
// or a file was damaged after commit with no intact copy left. Callers
// should fall back to the previous (complete) generation.
var ErrIncompleteRestart = errors.New("snapshot: snapshot incomplete")

// ReadMode reports where a round's index came from. The values are
// Rocpanda's done-mode wire bytes.
type ReadMode byte

const (
	ReadScan    ReadMode = iota // derived from the directories of the share's files
	ReadIndexed                 // the head's committed catalog
	// ReadFailed: the share could not be served at all (an unloadable chain
	// link, a failed listing) and delivered nothing. The round completed;
	// whether the restart is still complete is the receivers' call.
	ReadFailed
)

// ReaderConfig is what differs between the placements of a Reader.
type ReaderConfig struct {
	// Workers > 0 selects the pool driver of that width, at most
	// MaxWorkers; Budget then bounds the read bytes in flight (0:
	// unbounded).
	Workers int
	Budget  int64

	// Metrics receives the series named in newReaderMx: the restart
	// counters under Prefix, skipped files as SkippedSeries and read-path
	// failures as ErrorSeries. Nil disables recording.
	Metrics       *metrics.Registry
	Prefix        string
	SkippedSeries string
	ErrorSeries   string
	// Crash reports whether the owning process dies at an instrumented
	// point (fault injection); nil never does.
	Crash func(faults.CrashPoint) bool
	// Trace receives one read span per task on row TraceRank.
	Trace     *trace.Recorder
	TraceRank int
}

// ReadRequest is one restart round on one process.
type ReadRequest struct {
	Base   string       // the generation
	Window string       // whose panes
	Attr   string       // "all", or the one attribute to read of each pane
	Wanted map[int]bool // the panes to deliver

	// Mine deals the generation's files: a file is read by the one process
	// whose Mine accepts its home index (catalog.ParseDataFile; a file
	// outside the grammar has home 0). Nil takes every planned file. A
	// file Mine refuses is still a pane's candidate source, but no plan is
	// built for it (catalog.PlanFiles).
	Mine func(home int) bool
	// Own, when set, is the one file read where Base has no commit record,
	// and nothing is listed: individual I/O, where a rank knows its file by
	// name. Empty lists the generation's server files and reads Mine's that
	// the head's commit record does not name: all of them without a commit
	// record, and beside a full generation any its commit never saw (a
	// server wrongly declared dead renamed its file into place afterwards).
	Own string
	// Uncommitted, when set, runs once Base proves to have no readable
	// commit record, before its files are read: the flush barrier that
	// puts a still-buffered generation's blocks on disk. A committed
	// generation needs none — its commit record exists only because a flush
	// already landed every block of it.
	Uncommitted func()
	// Deliver takes one verified pane's datasets, on the caller's goroutine.
	Deliver func(pane int, sets []roccom.IOSet)
}

// readerMx holds a Reader's registry handles (nil-safe no-ops without a
// registry), created once so the hot paths never touch the registry map.
type readerMx struct {
	filesSkipped *metrics.Counter
	readErrors   *metrics.Counter

	// Restart I/O efficiency; rounds by where their index came from.
	filesOpened      *metrics.Counter
	bytesRead        *metrics.Counter
	bytesWasted      *metrics.Counter
	catalogHits      *metrics.Counter
	catalogFallbacks *metrics.Counter

	replicaReads  *metrics.Counter // pane retries served by a replica copy
	repairedPanes *metrics.Counter
	chainDepth    *metrics.Gauge     // delta chains
	chainSeconds  *metrics.Histogram // each round's chain step, the head manifest check and the directories it plans from included
	chainLoads    *metrics.Counter   // commit records loaded (Reader.chain)
	chainReuses   *metrics.Counter   // commit records served from the held chain
	catalogBytes  *metrics.Counter   // catalog blob bytes read
	dirBytes      *metrics.Counter   // directory bytes read: the walk's file checks and the directories rounds load to plan from
	cutPieces     *metrics.Counter   // windows the pool cut ranges of data and metadata reads into, beyond one per range: its requests over the inline driver's

	// The restore walk (Restore): generations each rank scanned and fell
	// past, and rank 0's judgment of each.
	generationsScanned *metrics.Counter
	fallbacks          *metrics.Counter
	judgeSeconds       *metrics.Histogram
}

func newReaderMx(cfg *ReaderConfig) readerMx {
	r, p := cfg.Metrics, cfg.Prefix
	return readerMx{
		filesSkipped: r.Counter(cfg.SkippedSeries),
		readErrors:   r.Counter(cfg.ErrorSeries),

		filesOpened:      r.Counter(p + "files_opened"),
		bytesRead:        r.Counter(p + "bytes_read"),
		bytesWasted:      r.Counter(p + "bytes_wasted"),
		catalogHits:      r.Counter(p + "catalog_hits"),
		catalogFallbacks: r.Counter(p + "catalog_fallbacks"),

		replicaReads:  r.Counter(p + "replica_reads"),
		repairedPanes: r.Counter(p + "repaired_panes"),
		chainDepth:    r.Gauge(p + "chain_depth"),
		chainSeconds:  r.Histogram(p+"chain_seconds", nil),
		chainLoads:    r.Counter(p + "chain_loads"),
		chainReuses:   r.Counter(p + "chain_reuses"),
		catalogBytes:  r.Counter(p + "catalog_bytes_read"),
		dirBytes:      r.Counter(p + "dir_bytes_read"),
		cutPieces:     r.Counter(p + "cut_pieces"),

		generationsScanned: r.Counter(p + "generations_scanned"),
		fallbacks:          r.Counter(p + "fallbacks"),
		judgeSeconds:       r.Histogram(p+"judge_seconds", nil),
	}
}

// Reader is one process's restart-read machine, built once per service
// lifetime; a pool, when configured, lives for one round. It holds the last
// commit record it loaded whole (chain). A Reader is used from one
// goroutine, its owner's.
type Reader struct {
	ctx mpi.Ctx
	cfg ReaderConfig
	mx  readerMx

	// held is the chain of held[0].Base as loaded from heldHead, its head
	// manifest's bytes; nil holds nothing.
	held     []ChainGen
	heldHead []byte
	// given, while set, is base's head manifest as a restore-walk step
	// carries it: a head read of given.base takes its bytes, or its error,
	// instead of the disk's.
	given headRead
	// delivered: a pane of the round being served has left this process,
	// so pooled read time after it is overlap (pool).
	delivered bool
}

// headRead is a head manifest's bytes as read for base, or why they did not
// read.
type headRead struct {
	base string
	buf  []byte
	err  error
}

// NewReader builds the read machine for the calling process.
func NewReader(ctx mpi.Ctx, cfg ReaderConfig) *Reader {
	return &Reader{ctx: ctx, cfg: cfg, mx: newReaderMx(&cfg)}
}

// chain returns the commit record of the generation under base, as
// loadChain gives it: the held chain when base's head manifest reads as the
// bytes it was loaded from, and otherwise a load through the Reader's
// driver that reads the head manifest no second time. A load is held only
// when it is whole: committed, every link loaded, the head's index its
// committed catalog (not Derived). Any other load leaves nothing held, so
// the next call loads again.
func (rd *Reader) chain(base string) ([]ChainGen, error) {
	held, buf, m, err := rd.head(base)
	if held != nil {
		return held, nil
	}
	rd.mx.chainLoads.Inc()
	chain, err := loadChain(rd.reads(), base, map[string]*commitRecord{base: {m: m, mErr: err}}, rd.mx.catalogBytes)
	if err == nil && !chain[0].Derived {
		rd.held, rd.heldHead = chain, buf
	} else {
		rd.held, rd.heldHead = nil, nil
	}
	return chain, err
}

// head reads base's head manifest — or takes the bytes the restore walk's
// step carries (given). When the held chain is base's and was loaded from
// those bytes it returns that chain (a reuse); otherwise the bytes and the
// manifest they decode to, or why they did not read or decode, as Load says
// it.
func (rd *Reader) head(base string) (held []ChainGen, buf []byte, m *Manifest, err error) {
	if rd.given.base == base {
		buf, err = rd.given.buf, rd.given.err
	} else {
		buf, err = hdf.ReadFile(rd.ctx.FS(), base+Suffix)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if rd.held != nil && rd.held[0].Base == base && bytes.Equal(rd.heldHead, buf) {
		rd.mx.chainReuses.Inc()
		return rd.held, buf, nil, nil
	}
	m, err = decodeManifest(base, buf)
	return nil, buf, m, err
}

// PaneUniverse returns the sorted set of pane IDs the committed generation
// under base holds for a window — the input to the M×N repartitioner, which
// lets a restart run use a different rank count than the writing run. It
// answers from the held chain when it is base's and the head manifest still
// reads as the bytes it was loaded from. Otherwise it reads the head's
// commit record no further than it must: a delta's manifest alone (its
// recorded universe), a full generation's manifest and index — the
// catalog's file table and pane index (readCatalog), or the index derived
// from the files — which must be whole up to copies: restorable's
// rule judged on the index alone (every file passes), since a universe
// short of an unindexed file's panes would restore short and report
// success. A full generation whose index is its committed catalog is then
// held, as chain would hold it.
func (rd *Reader) PaneUniverse(base, window string) ([]int, error) {
	held, buf, m, err := rd.head(base)
	if held != nil {
		return paneUniverse(held[0], window, nil)
	}
	head := ChainGen{Base: base, Manifest: m}
	if err == nil && m.ChainDepth == 0 {
		fsys := rd.ctx.FS()
		cat, catErr := readCatalog(fsys, m, rd.mx.catalogBytes)
		if head.Catalog, head.Derived, err = index(fsys, m, cat, catErr); err == nil && !head.Derived {
			rd.mx.chainLoads.Inc()
			rd.held, rd.heldHead = []ChainGen{head}, buf
		}
	}
	return paneUniverse(head, window, err)
}

// Read serves one restart round — plan this process's share of the
// generation's files, read, verify and deliver it — and reports where the
// index came from.
func (rd *Reader) Read(req ReadRequest) ReadMode {
	fsys, clock := rd.ctx.FS(), rd.ctx.Clock()
	mine := req.Mine
	if mine == nil {
		mine = func(int) bool { return true }
	}
	mineFile := func(name string) bool { _, home, _ := catalog.ParseDataFile(name); return mine(home) }
	// The round's runners keep every file they open until the round ends:
	// a planned file's directory and its data are read on one handle.
	each := rd.reads()
	each.round = newRound()
	defer each.round.close()
	t0 := clock.Now()
	chain, err := rd.chain(req.Base)
	switch {
	case len(chain) == 0: // no commit record: what is on disk is the only description
		if req.Uncommitted != nil {
			req.Uncommitted()
		}
	case err != nil: // a delta head with an unloadable link
		return rd.failed()
	}
	var items []readItem
	var lost []lostDir
	// planFrom plans from a chain's links, newest first. The directories of
	// the share's source files that a link's catalog lacks load first, as
	// one batch through the driver (loadDirs); a source whose directory
	// does not load is a failed file, whose panes go to their other copies.
	planFrom := func(links []ChainGen) {
		assign := catalog.ResolvePanes(ChainCatalogs(links), req.Window, req.Wanted)
		srcs, panes := make([][]int, len(links)), make([][][]int, len(links))
		var loads []dirLoad
		for gi, g := range links {
			srcs[gi], panes[gi] = g.Catalog.Sources(req.Window, assign[gi], mineFile)
			loads = append(loads, lacking(g, srcs[gi])...)
		}
		rd.loadDirs(each, loads)
		for gi, g := range links {
			c := g.Catalog
			for _, fp := range c.PlanFiles(req.Window, assign[gi], mineFile) {
				if fp = attrPlan(fp, req.Attr); len(fp.Entries) > 0 {
					items = append(items, readItem{plan: fp, link: g})
				}
			}
			for i, f := range srcs[gi] {
				if !c.HasDir(f) {
					lost = append(lost, lostDir{readItem{plan: catalog.FilePlan{File: c.Files[f]}, link: g}, panes[gi][i]})
				}
			}
		}
	}

	mode := ReadScan
	if len(chain) > 0 {
		if !chain[0].Derived {
			mode = ReadIndexed
		}
		rd.mx.chainDepth.SetMax(float64(len(chain) - 1))
		planFrom(chain)
	}
	rd.mx.chainSeconds.Observe(clock.Now() - t0)
	// The share's files on disk that no commit record describes get an
	// index derived from their own directories.
	var loose []FileEntry
	switch {
	case req.Own != "":
		if len(chain) == 0 {
			loose = []FileEntry{{Name: req.Own}}
		}
	case len(chain) <= 1:
		described := make(map[string]bool) // files the head's commit names
		if len(chain) == 1 {
			for _, e := range chain[0].Manifest.Files {
				described[e.Name] = true
			}
		}
		names, err := fsys.List(req.Base + "_s")
		if err != nil {
			return rd.failed()
		}
		for _, name := range names {
			if base, home, _, ok := catalog.ParseServerFile(name); ok && base == req.Base && mine(home) && !described[name] {
				loose = append(loose, FileEntry{Name: name})
			}
		}
	}
	if len(loose) > 0 {
		blob, dirs, _, errs := deriveCatalog(fsys, loose, false, nil, nil)
		for range errs { // no directory: what a crashed writer leaves behind
			rd.mx.filesSkipped.Inc()
			rd.mx.readErrors.Inc()
		}
		cat, err := derived(blob, dirs)
		if err != nil {
			return rd.failed()
		}
		planFrom([]ChainGen{{Catalog: cat}})
	}
	rd.serve(&req, each, items, lost)
	if mode == ReadIndexed {
		rd.mx.catalogHits.Inc()
	} else {
		rd.mx.catalogFallbacks.Inc()
	}
	return mode
}

// loadDirs is loadDirs for a round, its bytes counted on dir_bytes_read: a
// directory that does not load is a skipped file and a read error, as a
// data file that does not read or verify is.
func (rd *Reader) loadDirs(each reads, loads []dirLoad) {
	for _, err := range loadDirs(each, loads, rd.mx.dirBytes) {
		if err != nil {
			rd.mx.filesSkipped.Inc()
			rd.mx.readErrors.Inc()
		}
	}
}

// reads is the Reader's driver (batch.go): inline on the owner, or one
// scheduler batch on a pool of Workers per batch, each read's pieces tasks
// costed by their bytes, on their worker's filesystem view (on the
// simulated platforms, a stream of its own).
func (rd *Reader) reads() reads {
	return reads{fsys: rd.ctx.FS(), width: min(rd.cfg.Workers, MaxWorkers), rd: rd}
}

// pool runs tasks as one scheduler batch, handing each completion to done
// on the owner's goroutine; it returns only after every task has completed.
// The pool is the round's when r is set — built by its first pooled batch
// and closed when the round ends, so its workers' handles serve every
// batch of the round — and otherwise built for the batch alone and closed
// at its end. Disk time after the round's first delivery (delivered) is
// overlap. If a worker hit an injected crash the owning process dies with
// it, its pool closed.
func (rd *Reader) pool(tasks []*iosched.Task, r *roundState, done func(iosched.Completion)) {
	eng := r.pool(rd, len(tasks))
	if r == nil {
		defer eng.Close()
	}
	fatal := false
	eng.RunBatch(tasks, func(c iosched.Completion) {
		if dt := c.T1 - c.T0; dt > 0 && rd.delivered {
			// Disk time spent after this round's first pane left: reads of
			// later files overlapped earlier files' deliveries. The batch
			// runs under the barrier, so this is its only overlap.
			eng.NoteOverlap(c.Task.Class, dt)
		}
		fatal = fatal || c.Result.Fatal
		done(c)
	})
	if fatal || eng.Crashed() {
		eng.Close()
		panic(Crashed{})
	}
}

// pool returns r's pool, building it when r has none; with no round, a
// pool for one batch of n tasks. A round's pool queues up to
// roundQueueCap tasks per worker, and a batch of more waits for
// completions to put the rest (iosched.RunBatch).
func (r *roundState) pool(rd *Reader, n int) *iosched.Engine {
	if r != nil && r.eng != nil {
		return r.eng
	}
	cfg := &rd.cfg
	if r != nil {
		n = max(n, roundQueueCap)
	}
	eng := iosched.New(rd.ctx, iosched.Config{
		Name:       "snapshot-read",
		Workers:    min(cfg.Workers, MaxWorkers),
		Budget:     cfg.Budget,
		QueueCap:   n,
		NewState:   func(int, rt.TaskCtx) iosched.WorkerState { return newReadHandles() },
		Metrics:    cfg.Metrics,
		Trace:      cfg.Trace,
		TraceRank:  cfg.TraceRank,
		TracePhase: trace.PhaseRead,
	})
	if r != nil {
		r.eng = eng
	}
	return eng
}

// roundQueueCap is each worker's queue in a round's pool: room for every
// piece of a round's batches at the bench's shapes.
const roundQueueCap = 256

// failed reports a round that could not be served at all.
func (rd *Reader) failed() ReadMode {
	rd.mx.readErrors.Inc()
	return ReadFailed
}

// attrPlan narrows a file plan to the requested attribute's datasets.
func attrPlan(plan catalog.FilePlan, attr string) catalog.FilePlan {
	if attr == "all" {
		return plan
	}
	var keep []catalog.Entry
	for _, e := range plan.Entries {
		if e.Attr == attr {
			keep = append(keep, e)
		}
	}
	plan.Entries = keep
	return plan
}

// dies asks the crash hook about the MidRead point.
func (rd *Reader) dies() bool {
	return rd.cfg.Crash != nil && rd.cfg.Crash(faults.MidRead)
}

// readItem is one file of a share: the extents planned from it, and the
// link whose index they were planned from — in chain rounds each item
// carries its own generation's, a file no commit describes its share's
// derived index, with no manifest — so a failed file's pane retries consult
// the right copies, loading the directories they need.
type readItem struct {
	plan catalog.FilePlan
	link ChainGen
}

// lostDir is a planned source file whose directory would not load: its
// panes are retried against their other copies, as a failed file's are.
type lostDir struct {
	readItem
	panes []int
}

// readFile is one planned file of a round: its coalesced runs, read as one
// extent read (x), each run a range into its own buffer.
type readFile struct {
	readItem
	retry     bool // a pane retry against another copy: its own failure is final
	runs      []catalog.Run
	x         *extentRead
	delivered bool // verified end to end and handed over
}

// paneSets is one pane's verified datasets. Building one never delivers
// anything — the owner's goroutine does — so workers assemble and the owner
// hands over.
type paneSets struct {
	pane int
	sets []roccom.IOSet
}

// readRound is one round's share on one process. Everything but the
// pieces' reads runs on the owner's goroutine.
type readRound struct {
	rd   *Reader
	req  *ReadRequest
	each reads // the round's driver, with the owner's handles for the round
	// bad holds files that failed an open this round: a pane retry never
	// re-reads them, so one lost file costs one failed open, not one per
	// pane.
	bad map[string]bool
}

// serve reads, verifies and delivers one round's share as one batch through
// the round's driver each, then retries the panes of the sources whose
// directories were lost.
func (rd *Reader) serve(req *ReadRequest, each reads, items []readItem, lost []lostDir) {
	e := &readRound{rd: rd, req: req, each: each, bad: make(map[string]bool)}
	defer func() { rd.delivered = false }()
	e.read(each, items, false)
	for _, l := range lost {
		e.recoverPanes(l.readItem, l.panes)
	}
}

// read reads items as one batch through each, every file one extent read
// of its coalesced runs whose handle stays open for the batch and whose
// hook (consume) verifies and delivers it, or retries a failed file's panes,
// as soon as its last piece is in. A round's reads carry the MidRead crash
// point (run); a pane retry's do not.
func (e *readRound) read(each reads, items []readItem, retry bool) []*readFile {
	files := make([]*readFile, len(items))
	xs := make([]*extentRead, len(items))
	for i, it := range items {
		f := &readFile{readItem: it, retry: retry, runs: catalog.Coalesce(it.plan.Entries, 0)}
		f.x = &extentRead{name: it.plan.File, keep: true, done: func() { e.consume(f) }}
		for _, run := range f.runs {
			f.x.add(run.Offset, run.Length)
		}
		files[i], xs[i] = f, f.x
	}
	var crash func() bool
	if !retry {
		crash = e.rd.dies
	}
	each.readExtents(xs, crash)
	return files
}

// consume verifies and delivers a file whose last piece is in — or skips
// it whole and retries its panes against their other copies (recoverPanes).
// Owner's goroutine only.
func (e *readRound) consume(f *readFile) {
	mx := &e.rd.mx
	x := f.x
	if x.opened {
		mx.filesOpened.Inc()
	}
	var panes []paneSets
	ok := !slices.Contains(x.bad, true)
	if ok {
		panes, ok = assemble(f.link.Catalog, f.plan, f.runs, x.bufs, e.rd.cfg.Metrics)
	}
	if !ok {
		// An unreadable or damaged file is skipped whole, with whatever was
		// already read from it accounted as wasted — bytes_read counts only
		// files that were delivered.
		mx.filesSkipped.Inc()
		mx.readErrors.Inc()
		mx.bytesWasted.Add(x.bytesGot())
		if !f.retry { // a retry's own failure is final: the walk moves on to the pane's next copy
			var ids []int
			for i := range f.plan.Entries {
				ids = append(ids, f.plan.Entries[i].Pane)
			}
			slices.Sort(ids)
			e.recoverPanes(f.readItem, slices.Compact(ids))
		}
		return
	}
	mx.bytesRead.Add(x.bytesGot())
	for _, p := range panes {
		e.req.Deliver(p.pane, p.sets)
	}
	f.delivered = true
	if len(panes) > 0 {
		e.rd.delivered = true
	}
}

// recoverPanes retries panes of a failed file against the other copies its
// index knows in the same link, best-first (primaries before replicas, per
// catalog.PaneFiles), delivering each pane from the first copy that
// verifies end to end; a copy's directory, when its catalog lacks it, is
// read first, that directory alone (loadDirs), and a copy whose directory
// does not load is failed. The walk is deterministic — sorted panes, ordered sources,
// a shared bad-file set — so every process makes the same recovery
// decisions. A pane with no good copy anywhere is simply not delivered: the
// receivers then report the snapshot incomplete and the restore walk falls
// back a generation, which is exactly the all-copies-bad semantics the
// replica layer promises.
func (e *readRound) recoverPanes(it readItem, panes []int) {
	rd, w, cat := e.rd, e.req.Window, it.link.Catalog
	e.bad[it.plan.File] = true
	for _, pane := range panes {
		for _, f := range cat.PaneFiles(w, pane) {
			name := cat.Files[f]
			if e.bad[name] {
				continue
			}
			if !cat.HasDir(f) {
				rd.loadDirs(e.each.inline(), lacking(it.link, []int{f}))
				if !cat.HasDir(f) {
					e.bad[name] = true
					continue
				}
			}
			// A copy that cannot be opened is blacklisted; one that opens
			// but is damaged may still hold other panes intact, so only the
			// attempted read is charged as wasted.
			try := e.read(e.each.inline(), []readItem{{plan: attrPlan(cat.PaneCopy(w, pane, f), e.req.Attr), link: it.link}}, true)[0]
			if !try.x.opened {
				e.bad[name] = true
			}
			if try.delivered {
				rd.mx.repairedPanes.Inc()
				if catalog.ReplicaRank(name) > 0 {
					rd.mx.replicaReads.Inc()
				}
				break
			}
		}
	}
}

// assemble cuts one planned file's read buffers into its entries' stored
// bytes, decodes each entry's dataset from its catalog cat and unpacks it
// (hdf.Dataset.Unpack: CRC, inflate, logical length), and groups them into
// per-pane payloads, in plan (entry) order. ok is false when anything is
// damaged or an extent lies outside its run: the whole file must then be
// skipped with nothing delivered, so a restart never mixes verified and
// unverified panes from one file — it recovers the panes elsewhere or falls
// back a generation.
func assemble(cat *catalog.Catalog, plan catalog.FilePlan, runs []catalog.Run, bufs [][]byte, reg *metrics.Registry) (panes []paneSets, ok bool) {
	byPane := make(map[int]int) // pane → its index in panes, in first-seen order
	ri := 0
	for i := range plan.Entries {
		e := &plan.Entries[i]
		off, length := e.Extent()
		// A run ends where its last extent does, and an empty extent there
		// (Coalesce merges it) still lies in the run.
		for ri < len(runs) && off+length > runs[ri].Offset+runs[ri].Length {
			ri++
		}
		if ri == len(runs) || off < runs[ri].Offset {
			return nil, false
		}
		d := cat.Dataset(e)
		data, err := d.Unpack(bufs[ri][off-runs[ri].Offset:off-runs[ri].Offset+length], reg)
		if err != nil {
			return nil, false
		}
		i, seen := byPane[e.Pane]
		if !seen {
			i, byPane[e.Pane] = len(panes), len(panes)
			panes = append(panes, paneSets{pane: e.Pane})
		}
		panes[i].sets = append(panes[i].sets, roccom.IOSet{Name: d.Name, Type: d.Type, Dims: d.Dims, Attrs: d.Attrs, Data: data})
	}
	return panes, true
}

// Receiver is the receiving end of a restart read, written once for every
// module: panes arrive in any order and possibly twice (a failed-over write
// leaves identical copies in two files), the first arrival of each wanted
// pane is installed in the window, and Complete says whether all came.
type Receiver struct {
	w    *roccom.Window
	attr string
	want map[int]bool
	got  map[int]bool
	err  error // sticky first failure
}

// NewReceiver prepares to restore the panes ids of w; attr is "all" (the
// panes need not be registered yet) or one attribute of registered panes.
func NewReceiver(w *roccom.Window, attr string, ids []int) *Receiver {
	rc := &Receiver{w: w, attr: attr, want: make(map[int]bool, len(ids)), got: make(map[int]bool, len(ids))}
	for _, id := range ids {
		rc.want[id] = true
	}
	return rc
}

// Wanted returns the set of panes asked for.
func (rc *Receiver) Wanted() map[int]bool { return rc.want }

// Deliver installs one pane's datasets; a pane already restored is dropped.
// An unsolicited or uninstallable block is an error, which sticks.
func (rc *Receiver) Deliver(sets []roccom.IOSet) (err error) {
	if rc.err != nil {
		return rc.err
	}
	defer func() { rc.err = err }()
	if len(sets) == 0 {
		return fmt.Errorf("snapshot: empty restart block")
	}
	_, pane, _, ok := roccom.ParseDatasetName(sets[0].Name)
	if !ok || !rc.want[pane] {
		return fmt.Errorf("snapshot: unsolicited restart block %q", sets[0].Name)
	}
	if rc.got[pane] {
		return nil
	}
	if err = roccom.ApplyRestart(rc.w, pane, rc.attr, sets); err == nil {
		rc.got[pane] = true
	}
	return err
}

// Fail records a failure of the round outside Deliver — a block that would
// not decode, a flush that did not land — and nil records nothing. The first
// failure sticks: later deliveries install nothing.
func (rc *Receiver) Fail(err error) {
	if rc.err == nil {
		rc.err = err
	}
}

// Complete returns the first delivery failure, else nil once every wanted
// pane was delivered, and ErrIncompleteRestart otherwise.
func (rc *Receiver) Complete(base string) error {
	if rc.err == nil && len(rc.got) != len(rc.want) {
		return fmt.Errorf("snapshot: recovered %d of %d panes of window %q from %q: %w",
			len(rc.got), len(rc.want), rc.w.Name, base, ErrIncompleteRestart)
	}
	return rc.err
}
