package snapshot

// The metadata driver: how a process issues a batch of independent metadata
// reads — a chain's catalogs, their entry runs, the restore walk's file
// checks — inline, in the paper's serial order, or on a Reader's pool.
//
// Pooled, every read is a task that carries its byte cost, known before the
// read: a catalog's header length from its manifest's file count, an entry
// run's length or a file's directory length from its catalog's section
// table. The batch goes to the scheduler largest first, so its byte deal
// (iosched: each task to the worker dealt the fewest bytes) starts the
// longest reads first and ends with every worker near the batch's fair
// share, its bytes over the pool width. A read of known byte ranges
// (extentRead) that is longer than that share is cut into pieces that read
// on several workers, each into its own windows of the read's buffers; the
// owner checks the reassembled bytes as it checks an uncut read's.

import (
	"cmp"
	"fmt"
	"slices"

	"genxio/internal/hdf"
	"genxio/internal/iosched"
	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// minPieceBytes is the least one piece of a cut read holds. A piece pays its
// own open, request and close — on simulated Turing's NFS two 1.5 ms
// metadata operations on the shared line and a 0.8 ms request, about what
// one 0.75 MB/s stream reads in 4 KB, queued behind the other workers' —
// and there a cut whose rest was 13 KB slowed a pooled check batch rather
// than balancing it.
const minPieceBytes = 16 << 10

// reads is one process's driver for batches of independent metadata reads.
// fsys is the owner's filesystem view; width is the pool's width, 0 for the
// inline driver; pool runs one pooled batch (Reader.reads), and cut counts
// the pieces it cuts reads into beyond one per read.
type reads struct {
	fsys  rt.FS
	width int
	pool  func(tasks []*iosched.Task)
	cut   *metrics.Counter
}

// serial is the inline driver on fsys: every batch in index order on the
// owner, the paper's serial restart.
func serial(fsys rt.FS) reads { return reads{fsys: fsys} }

// run issues read(fsys, i, owner) for every i < len(costs), each on the
// filesystem view of whoever runs it, costs[i] the bytes read i reads,
// returning once all have run. owner says the view is the batch owner's
// own, so a handle opened on it may serve the owner's later reads. A batch
// of one runs inline: a pool would only add its start-up.
func (each reads) run(costs []int64, read func(fsys rt.FS, i int, owner bool)) {
	if each.width == 0 || len(costs) < 2 {
		for i := range costs {
			read(each.fsys, i, true)
		}
		return
	}
	tasks := make([]*iosched.Task, len(costs))
	for i, c := range costs {
		tasks[i] = &iosched.Task{Class: iosched.ClassRead, Cost: c, Run: func(tc rt.TaskCtx, _ iosched.WorkerState) iosched.Result {
			read(tc.FS(), i, false)
			return iosched.Result{}
		}}
	}
	each.pool(largestFirst(tasks))
}

// cuts reports whether a pooled batch could cut a read of n bytes: whether
// it holds two pieces.
func (each reads) cuts(n int64) bool { return each.width > 0 && n >= 2*minPieceBytes }

// largestFirst orders a pooled batch for the scheduler's byte deal: largest
// cost first, equal costs in submission order (so an equal-cost batch still
// deals round-robin by index).
func largestFirst(tasks []*iosched.Task) []*iosched.Task {
	slices.SortStableFunc(tasks, func(a, b *iosched.Task) int { return cmp.Compare(b.Cost, a.Cost) })
	return tasks
}

// extentRead is one metadata read of byte ranges known before it is
// issued: ranges of the file name, each read into its own buffer. After
// readExtents, size is the file's size as a reader of it saw it (-1: none
// opened it) and bad[r] marks each range that did not read whole. dir, when
// set, makes it a file check's read (checkFiles).
type extentRead struct {
	name string
	offs []int64
	bufs [][]byte
	size int64
	bad  []bool
	dir  *dirRead
}

// dirRead is what a file check's read learns from the file's header: range
// 0 of its extent read is the header and range 1 the directory as the
// catalog sizes it, which the header may place earlier (a directory also
// lists datasets no catalog run holds). The piece that reads the header —
// the first, which also holds the directory range's first window — checks
// it (hdf.ParseHeader) and reads that window from where the header places
// the directory, the bytes before the range (lead) and the window in one
// request: an uncut check issues exactly checkOnDisk's requests.
type dirRead struct {
	off   int64 // where the directory starts
	count int   // the header's dataset count
	err   error // why the header did not read or check
	lead  []byte
}

// add appends the range of n bytes at off.
func (x *extentRead) add(off, n int64) *extentRead {
	x.offs, x.bufs, x.bad = append(x.offs, off), append(x.bufs, make([]byte, n)), append(x.bad, false)
	return x
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
	x     *extentRead
	ws    []window
	bytes int64
	size  int64 // the file's size as the piece saw it; -1: not opened
	bad   []int // the ranges whose window did not read whole
}

// window is bytes [lo, hi) of range r.
type window struct {
	r      int
	lo, hi int64
}

// cut lays x's ranges end to end and cuts them into pieces of size bytes,
// each a run of windows; the last holds the rest, and a rest under
// minPieceBytes stays with the piece before it. An empty range goes to the
// piece its place falls in, so every range is requested once, as an uncut
// read requests it.
func (x *extentRead) cut(size int64) []*piece {
	total := x.cost()
	bounds := []int64{0} // where each piece starts, then the end
	for end := size; end < total && total-end >= minPieceBytes; end += size {
		bounds = append(bounds, end)
	}
	bounds = append(bounds, total)
	ps := make([]*piece, len(bounds)-1)
	for j := range ps {
		ps[j] = &piece{x: x, bytes: bounds[j+1] - bounds[j]}
	}
	var pos int64
	for r, b := range x.bufs {
		n := int64(len(b))
		if n == 0 {
			j, _ := slices.BinarySearch(bounds[1:len(bounds)-1], pos+1)
			ps[j].ws = append(ps[j].ws, window{r: r})
			continue
		}
		for j, p := range ps {
			if a, z := max(bounds[j], pos), min(bounds[j+1], pos+n); a < z {
				p.ws = append(p.ws, window{r: r, lo: a - pos, hi: z - pos})
			}
		}
		pos += n
	}
	return ps
}

// read runs one piece on fsys: one open, one request per window, each byte
// that arrived counted on read.
func (p *piece) read(fsys rt.FS, read *metrics.Counter) {
	x := p.x
	p.size = -1
	f, err := fsys.Open(x.name)
	if err != nil {
		for _, w := range p.ws {
			p.bad = append(p.bad, w.r)
		}
		return
	}
	defer f.Close()
	if p.size, err = f.Size(); err != nil {
		p.size = -1
	}
	for _, w := range p.ws {
		buf, off := x.bufs[w.r][w.lo:w.hi], x.offs[w.r]+w.lo
		d := x.dir
		lead := d != nil && w.r == 1 && w.lo == 0 && d.err == nil && d.off < off
		if lead {
			buf, off = make([]byte, off-d.off+int64(len(buf))), d.off
		}
		n, err := f.ReadAt(buf, off)
		read.Add(int64(n))
		if n != len(buf) {
			p.bad = append(p.bad, w.r)
		}
		switch {
		case lead:
			d.lead = buf[:len(buf)-int(w.hi)]
			copy(x.bufs[1], buf[len(d.lead):])
		case d != nil && w.r == 0:
			if n != len(buf) {
				d.err = fmt.Errorf("hdf: reading header of %s: %w", x.name, err)
			} else {
				d.off, d.count, d.err = hdf.ParseHeader(x.name, buf, p.size)
			}
		}
	}
}

// readExtents reads xs as one batch through the driver, cut as pieces cuts
// them. Every byte read counts on read.
func (each reads) readExtents(xs []*extentRead, read *metrics.Counter) {
	ps := each.pieces(xs)
	costs := make([]int64, len(ps))
	for i, p := range ps {
		costs[i] = p.bytes
	}
	each.run(costs, func(fsys rt.FS, i int, _ bool) { ps[i].read(fsys, read) })
	for _, x := range xs {
		x.size = -1
	}
	for _, p := range ps {
		if p.x.size < 0 {
			p.x.size = p.size
		}
		for _, r := range p.bad {
			p.x.bad[r] = true
		}
	}
}

// pieces cuts a batch of reads for the driver. Pooled, a read longer than
// the batch's fair share — its bytes over the pool width, and no less than
// minPieceBytes — is cut into pieces of that share (cut), so the byte deal
// gives each full piece a worker of its own and fills the other workers'
// shares with the batch's shorter reads and the pieces' rest.
func (each reads) pieces(xs []*extentRead) []*piece {
	var total int64
	for _, x := range xs {
		total += x.cost()
	}
	share := total
	if each.width > 0 {
		share = max((total+int64(each.width)-1)/int64(each.width), minPieceBytes)
	}
	var ps []*piece
	for _, x := range xs {
		ps = append(ps, x.cut(share)...)
	}
	each.cut.Add(int64(len(ps) - len(xs)))
	return ps
}

// checkFiles is the restore walk's file check of a batch: each file held to
// its manifest entry by checkFile, as checkOnDisk holds it, from its header
// and directory bytes, read as one extent read each (checkReads;
// readExtents: pooled, a long directory in pieces on several workers).
func (each reads) checkFiles(files []FileEntry, dirs []int64) []bool {
	xs := checkReads(files, dirs)
	each.readExtents(xs, nil)
	ok := make([]bool, len(files))
	for i, x := range xs {
		ok[i] = x.checkDir(files[i]) == nil
	}
	return ok
}

// checkReads lays out checkFiles' reads: each file's header, then its
// directory's range, sized by dirs[i] (dirBytes) and ending the file its
// entry pins, its start placed by the header as it is read (dirRead).
func checkReads(files []FileEntry, dirs []int64) []*extentRead {
	xs := make([]*extentRead, len(files))
	for i, e := range files {
		lo := max(e.Size-dirs[i], hdf.HeaderSize())
		xs[i] = &extentRead{name: e.Name, dir: &dirRead{err: fmt.Errorf("snapshot: %s: header not read", e.Name)}}
		xs[i].add(0, hdf.HeaderSize()).add(lo, max(e.Size-lo, 0))
	}
	return xs
}

// checkDir is checkOnDisk's verdict on x, checkFiles' read of e: a file of
// another size fails, and so does a header that did not read or check, or a
// directory that did not read whole; otherwise the directory's bytes — from
// where the header places it to the end of the file — must be e's.
func (x *extentRead) checkDir(e FileEntry) error {
	d := x.dir
	switch {
	case x.size != e.Size && x.size >= 0:
		return checkFile(e, FileEntry{Size: x.size})
	case d.err != nil:
		return d.err
	case x.bad[1]:
		return fmt.Errorf("snapshot: %s: directory did not read", e.Name)
	}
	// The header placed the directory no later than the file's end (and so
	// inside the range read), or before it, where the first piece read the
	// lead.
	dir := x.bufs[1]
	if d.lead != nil {
		dir = append(d.lead, dir...)
	} else {
		dir = dir[d.off-x.offs[1]:]
	}
	return checkFile(e, FileEntry{Size: x.size, DirCRC: hdf.Checksum(dir), Datasets: d.count})
}
