package snapshot

// The restart's reads. Every read a Reader issues of byte ranges known
// before it is issued — the restore walk's file checks, the directories a
// round plans from and each planned data file of a round — is one
// extentRead: ranges of one file, each read into its own buffer. One rule
// cuts a batch of them into pieces (pieces) and one driver runs the pieces
// (reads.run), as it runs a chain's catalog opens: inline on the owner, in
// the paper's serial order, every read one piece; or pooled, one scheduler
// batch, every piece a task costed by its bytes — a data file's from its
// plan, a directory's from its catalog's file table — and submitted
// largest first, so the byte deal (iosched) ends with every
// worker near the batch's fair share. A read's pieces fill disjoint windows
// of its buffers; the owner folds each completed piece into its read and
// runs the read's hook (done) once its last piece is in, so a data file is
// verified and delivered while the pool reads on, and a cut read's bytes
// are checked as an uncut read's are.

import (
	"cmp"
	"fmt"
	"slices"

	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

const (
	// minPieceBytes is the least one piece of a cut read holds. A piece pays
	// its own open, request and close — on simulated Turing's NFS two 1.5 ms
	// metadata operations on the shared line and a 0.8 ms request, about
	// what one 0.75 MB/s stream reads in 4 KB, queued behind the other
	// workers' — and there a cut whose rest was 13 KB slowed a pooled check
	// batch rather than balancing it.
	minPieceBytes = 16 << 10
	// maxPieceBytes is the most one piece of a cut read holds: a full
	// file's runs spread across the pool even when the batch's fair share
	// is larger.
	maxPieceBytes = 512 << 10
)

// reads is one process's driver for batches of independent reads. fsys is
// the owner's filesystem view; width is the pool's width, 0 for the inline
// driver; rd, when set, is the Reader whose pool runs a pooled batch, whose
// trace row records each inline job and whose cut_pieces counts the cuts
// (nil: LoadChain's and the scrub's inline reads). round, when set, is what
// a round's batches share (roundState), so a file whose directory and data one
// round reads is opened once by each runner that reads it.
type reads struct {
	fsys  rt.FS
	width int
	rd    *Reader
	round *roundState
}

// roundState is what the batches of one round share: the owner's handles, which
// every inline job of the round reads through, and the pool the round's
// first pooled batch builds, whose workers keep their handles for every
// later batch of the round. Both stay open until the round ends (close).
type roundState struct {
	own *readHandles
	eng *iosched.Engine
}

func newRound() *roundState { return &roundState{own: newReadHandles()} }

// close closes the round's handles and its pool.
func (r *roundState) close() {
	r.own.Close()
	if r.eng != nil {
		r.eng.Close()
	}
}

// inline is each without its pool.
func (each reads) inline() reads {
	each.width = 0
	return each
}

// run is the one driver, and the one place a batch's driver is chosen: it
// runs job i for every i < len(costs), costs[i] the bytes it reads, then
// done(i) on the owner, and returns once all have run. A job gets its
// runner's filesystem view and kept handles (readHandles). Inline — no
// pool, or a lone job outside a round, where a pool would add only its
// start-up — the jobs run on the owner in index order, each followed by
// done and the closing of the handles it kept, unless they are the round's.
// Pooled, they are one scheduler batch, largest first (equal costs in
// index order, so an equal-cost batch deals round-robin), each on a
// worker's view with the handles that worker keeps until it exits — at the
// batch's end, or a round's — done as each completes. crash, when set, is
// the batch's injected crash point (a round's data reads): it keeps even a
// lone job on the pool, where a worker asks it after each job and dies
// with it (a fatal task result); inline the owner asks it once per job,
// after done, and dies as one process (Crashed).
func (each reads) run(costs []int64, crash func() bool, job func(fsys rt.FS, h *readHandles, i int), done func(i int)) {
	if len(costs) == 0 || each.width <= 0 || len(costs) == 1 && crash == nil && each.round == nil {
		own := newReadHandles()
		if each.round != nil {
			own = each.round.own
		}
		for i := range costs {
			t0 := each.now()
			job(each.fsys, own, i)
			if each.rd != nil {
				each.rd.cfg.Trace.Record(each.rd.cfg.TraceRank, trace.PhaseRead, t0, each.now())
			}
			done(i)
			if each.round == nil {
				own.Close()
			}
			if crash != nil && crash() {
				panic(Crashed{})
			}
		}
		return
	}
	tasks := make([]*iosched.Task, len(costs))
	for i, c := range costs {
		tasks[i] = &iosched.Task{Class: iosched.ClassRead, Cost: c, Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
			job(tc.FS(), st.(*readHandles), i)
			return iosched.Result{Value: i, Fatal: crash != nil && crash()}
		}}
	}
	slices.SortStableFunc(tasks, func(a, b *iosched.Task) int { return cmp.Compare(b.Cost, a.Cost) })
	each.rd.pool(tasks, each.round, func(c iosched.Completion) { done(c.Result.Value.(int)) })
}

// now is the owner's clock, when the driver has a Reader to read it from.
func (each reads) now() float64 {
	if each.rd == nil {
		return 0
	}
	return each.rd.ctx.Clock().Now()
}

// readHandles keeps one open handle per file for whoever runs the pieces of
// reads that keep theirs (extentRead.keep): a pool worker's private
// iosched.WorkerState, closed on every worker exit, crashed or not (several
// workers may hold handles on the same file; each reads disjoint windows);
// or the inline driver's, closed once the read's hook has run or, when
// they are a round's (roundState), once the round ends.
type readHandles struct{ m map[string]rt.File }

func newReadHandles() *readHandles { return &readHandles{m: make(map[string]rt.File)} }

// open returns the kept handle of name, opening it on fsys if there is none.
func (h *readHandles) open(fsys rt.FS, name string) (rt.File, error) {
	if f, ok := h.m[name]; ok {
		return f, nil
	}
	f, err := fsys.Open(name)
	if err == nil {
		h.m[name] = f
	}
	return f, err
}

// Flush implements iosched.WorkerState (restart reads never flush).
func (h *readHandles) Flush() error { return nil }

// Close implements iosched.WorkerState: it closes every kept handle.
func (h *readHandles) Close() error {
	for name, f := range h.m {
		f.Close()
		delete(h.m, name)
	}
	return nil
}

// extentRead is one read of byte ranges known before it is issued: ranges
// of the file name, each read into its own buffer. keep, when set, keeps
// the handle a piece opens on its runner for the batch, or for the round
// (roundState) — a data file's, and a directory's a round plans from, whose
// data the round reads next — where otherwise each piece opens and closes
// the file. done, when set, runs on the owner once the last piece is in. By
// then opened says whether any piece opened the file, got[r] counts the
// bytes of range r that arrived, and bad[r] marks each range that did not
// read whole. dir, when set, makes it a file check's read (checkFiles).
type extentRead struct {
	name string
	offs []int64
	bufs [][]byte
	keep bool
	done func()
	dir  *dirRead

	opened bool
	got    []int64
	bad    []bool
	left   int // pieces not yet folded in
}

// dirRead is what a file check's read learns from the file's header: range
// 0 of its extent read is the header and range 1 the directory, where its
// catalog places it. The piece that reads the header — the first, which
// also holds the directory range's first window — checks it
// (hdf.ParseHeader), and the check then holds the header to the place.
type dirRead struct {
	size  int64 // the file's size as the header's piece saw it; -1: it did not open the file
	off   int64 // where the header places the directory
	count int   // the header's dataset count
	err   error // why the header did not read or check
}

// add appends the range of n bytes at off.
func (x *extentRead) add(off, n int64) *extentRead {
	x.offs, x.bufs = append(x.offs, off), append(x.bufs, make([]byte, n))
	x.got, x.bad = append(x.got, 0), append(x.bad, false)
	return x
}

// bytesGot is the bytes of every range that arrived.
func (x *extentRead) bytesGot() (n int64) {
	for _, g := range x.got {
		n += g
	}
	return n
}

// cost is the bytes x reads.
func (x *extentRead) cost() (n int64) {
	for _, b := range x.bufs {
		n += int64(len(b))
	}
	return n
}

// piece is one task's share of an extent read: windows of its ranges, laid
// end to end, and what the task saw.
type piece struct {
	x      *extentRead
	ws     []window
	bytes  int64
	opened bool
	got    []int64 // the bytes that arrived, per window
	bad    []int   // the ranges whose window did not read whole
}

// window is bytes [lo, hi) of range r.
type window struct {
	r      int
	lo, hi int64
}

// pieces cuts a batch of reads for the driver, by the one rule: inline,
// every read is one piece; pooled, each range of a read is cut on its own
// into pieces of the batch's fair share — its bytes over the pool width,
// no less than minPieceBytes and no more than maxPieceBytes (cut) — so the
// byte deal gives each full piece a worker of its own and fills the other
// workers' shares with the batch's shorter reads and the pieces' rest.
// Every window beyond one per range counts on the Reader's cut_pieces: one
// more request than the inline driver makes.
func (each reads) pieces(xs []*extentRead) []*piece {
	var total int64
	for _, x := range xs {
		total += x.cost()
	}
	size := int64(0)
	if each.width > 0 {
		size = min(max((total+int64(each.width)-1)/int64(each.width), minPieceBytes), maxPieceBytes)
	}
	var ps []*piece
	cuts := 0
	for _, x := range xs {
		cut := x.cut(size)
		for _, p := range cut {
			cuts += len(p.ws)
		}
		cuts -= len(x.bufs)
		x.left = len(cut)
		ps = append(ps, cut...)
	}
	if each.rd != nil {
		each.rd.mx.cutPieces.Add(int64(cuts))
	}
	return ps
}

// cut cuts x into pieces of size bytes, size 0 into one piece. Each range
// is cut on its own, and a rest under minPieceBytes stays with the piece
// before it. A range under minPieceBytes that is not x's last rides at the
// front of the next range's first piece — so a file check's header travels
// with the first window of its directory (dirRead). Every range, an empty
// one too, is one window or more, so every range is requested once or more,
// as an uncut read requests it.
func (x *extentRead) cut(size int64) []*piece {
	var ps []*piece
	p := &piece{x: x}
	for r, b := range x.bufs {
		n := int64(len(b))
		for lo := int64(0); ; {
			hi := n
			if size > 0 && n-(lo+size) >= minPieceBytes {
				hi = lo + size
			}
			p.ws, p.bytes = append(p.ws, window{r: r, lo: lo, hi: hi}), p.bytes+hi-lo
			if lo = hi; lo == n {
				break
			}
			ps, p = append(ps, p), &piece{x: x}
		}
		if size > 0 && (n >= minPieceBytes || r == len(x.bufs)-1) {
			ps, p = append(ps, p), &piece{x: x}
		}
	}
	if len(ps) == 0 { // uncut, or no ranges at all
		ps = append(ps, p)
	}
	return ps
}

// read runs one piece on fsys, its runner's filesystem view: the read's
// handle, one kept in h or a handle of its own; then one request per
// window, in order.
func (p *piece) read(fsys rt.FS, h *readHandles) {
	x := p.x
	var f rt.File
	var err error
	if x.keep {
		f, err = h.open(fsys, x.name)
	} else if f, err = fsys.Open(x.name); err == nil {
		defer f.Close()
	}
	if err != nil {
		for _, w := range p.ws {
			p.bad = append(p.bad, w.r)
		}
		return
	}
	p.opened = true
	d := x.dir
	p.got = make([]int64, len(p.ws))
	for i, w := range p.ws {
		buf := x.bufs[w.r][w.lo:w.hi]
		n, err := f.ReadAt(buf, x.offs[w.r]+w.lo)
		p.got[i] = int64(n)
		if n != len(buf) {
			p.bad = append(p.bad, w.r)
		}
		if d != nil && w.r == 0 {
			var sizeErr error
			if d.size, sizeErr = f.Size(); sizeErr != nil {
				d.size = -1
			}
			if n != len(buf) {
				d.err = fmt.Errorf("hdf: reading header of %s: %w", x.name, err)
			} else {
				d.off, d.count, d.err = hdf.ParseHeader(x.name, buf, d.size)
			}
		}
	}
}

// fold folds a completed piece into its read, on the owner, and runs the
// read's hook when it was the last.
func (p *piece) fold() {
	x := p.x
	x.opened = x.opened || p.opened
	for i, n := range p.got {
		x.got[p.ws[i].r] += n
	}
	for _, r := range p.bad {
		x.bad[r] = true
	}
	if x.left--; x.left == 0 && x.done != nil {
		x.done()
	}
}

// readExtents reads xs as one batch: cut by pieces, run by run, each piece
// folded into its read on the owner as it completes. crash is the batch's
// crash point (run).
func (each reads) readExtents(xs []*extentRead, crash func() bool) {
	ps := each.pieces(xs)
	costs := make([]int64, len(ps))
	for i, p := range ps {
		costs[i] = p.bytes
	}
	each.run(costs, crash,
		func(fsys rt.FS, h *readHandles, i int) { ps[i].read(fsys, h) },
		func(i int) { ps[i].fold() })
}

// checkFiles is the restore walk's file check of a batch: each file held to
// its manifest entry by checkFile, as checkOnDisk holds it, from its header
// and directory bytes, read as one extent read each (checkReads;
// readExtents: pooled, a long directory in pieces on several workers), the
// directory where dirs[i], the file's place in a catalog of the chain,
// puts it. A file that passes has read the very bytes a round plans it
// from, held to its entry, and its directory is installed as they are
// (dirLoad.install): a round on the same Reader does not read it again. Every directory byte that arrived counts
// on the Reader's dir_bytes_read.
func (each reads) checkFiles(files []FileEntry, dirs []dirLoad) []bool {
	lens := make([]int64, len(dirs))
	for i, d := range dirs {
		lens[i] = d.cat.DirLen(d.f)
	}
	xs := checkReads(files, lens)
	each.readExtents(xs, nil)
	ok := make([]bool, len(files))
	for i, x := range xs {
		if each.rd != nil {
			each.rd.mx.dirBytes.Add(x.got[1])
		}
		if ok[i] = x.checkDir(files[i]) == nil; ok[i] && !dirs[i].cat.HasDir(dirs[i].f) {
			dirs[i].install(x.bufs[1])
		}
	}
	return ok
}

// checkReads lays out checkFiles' reads: each file's header, then its
// directory's range, dirs[i] bytes ending the file its entry pins.
func checkReads(files []FileEntry, dirs []int64) []*extentRead {
	xs := make([]*extentRead, len(files))
	for i, e := range files {
		lo := max(e.Size-dirs[i], hdf.HeaderSize())
		xs[i] = &extentRead{name: e.Name, dir: &dirRead{size: -1, err: fmt.Errorf("snapshot: %s: header not read", e.Name)}}
		xs[i].add(0, hdf.HeaderSize()).add(lo, max(e.Size-lo, 0))
	}
	return xs
}

// checkDir is checkOnDisk's verdict on x, checkFiles' read of e, in
// checkOnDisk's order: a file of another size fails (checkFile, on the size
// alone), and so does a header that did not read or check, a directory
// that did not read whole, or one the header places elsewhere than its
// catalog does; otherwise the directory's bytes must be e's (checkFile).
func (x *extentRead) checkDir(e FileEntry) error {
	d := x.dir
	sized := e
	sized.Size = d.size
	if err := checkFile(e, sized); d.size >= 0 && err != nil {
		return err
	}
	switch {
	case d.err != nil:
		return d.err
	case x.bad[1]:
		return fmt.Errorf("snapshot: %s: directory did not read", e.Name)
	case d.off != x.offs[1]:
		return fmt.Errorf("snapshot: %s: header places its directory at %d, its catalog at %d", e.Name, d.off, x.offs[1])
	}
	return checkFile(e, FileEntry{Size: d.size, DirCRC: hdf.Checksum(x.bufs[1]), Datasets: d.count})
}
